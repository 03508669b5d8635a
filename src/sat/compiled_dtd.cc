#include "src/sat/compiled_dtd.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "src/xml/generator.h"
#include "src/xpath/ast.h"
#include "src/xpath/rewrites.h"

namespace xpathsat {

namespace {

// Sets in `row` every symbol B with an occurrence in some word of L(re)
// whose symbols all terminate: exactly the B that can be a child of an
// element with content model `re` in a conforming tree (Thm 4.1 edge
// relation). Returns whether L(re) has such a word at all; when it has
// none, `row` is left as it was.
bool RealizableChildren(const Regex& re, const LabelGraph& g, uint64_t* row) {
  switch (re.kind()) {
    case Regex::Kind::kEpsilon:
      return true;
    case Regex::Kind::kSymbol: {
      const int b = g.Id(re.symbol());
      if (b < 0 || !LabelGraph::Test(g.terminating.data(), b)) return false;
      LabelGraph::Set(row, b);
      return true;
    }
    case Regex::Kind::kConcat: {
      std::vector<uint64_t> part(g.words, 0);
      for (const Regex& c : re.children()) {
        if (!RealizableChildren(c, g, part.data())) return false;
      }
      for (size_t w = 0; w < g.words; ++w) row[w] |= part[w];
      return true;
    }
    case Regex::Kind::kUnion: {
      bool any = false;
      for (const Regex& c : re.children()) {
        any = RealizableChildren(c, g, row) || any;
      }
      return any;
    }
    case Regex::Kind::kStar:
      RealizableChildren(re.children()[0], g, row);
      return true;
  }
  return false;
}

// The label graph of `dtd` over its terminating types (the edges
// RealizableChildren admits) and its reflexive-transitive closure.
LabelGraph BuildLabelGraph(const Dtd& dtd) {
  LabelGraph g;
  g.names = dtd.TypeNames();
  std::sort(g.names.begin(), g.names.end());
  const int n = static_cast<int>(g.names.size());
  g.words = (g.names.size() + 63) / 64;
  g.terminating.assign(g.words, 0);
  for (const std::string& t : dtd.TerminatingTypes()) {
    LabelGraph::Set(g.terminating.data(), g.Id(t));
  }
  g.edges.assign(g.names.size() * g.words, 0);
  for (const ElementType& t : dtd.types()) {
    const int a = g.Id(t.name);
    if (LabelGraph::Test(g.terminating.data(), a)) {
      RealizableChildren(t.content, g, g.edges.data() + a * g.words);
    }
  }
  // Warshall over rows: once pivot k is done, row i holds every label
  // reachable from i through intermediates <= k.
  g.closure = g.edges;
  for (int a = 0; a < n; ++a) {
    if (LabelGraph::Test(g.terminating.data(), a)) {
      LabelGraph::Set(g.closure.data() + a * g.words, a);
    }
  }
  for (int k = 0; k < n; ++k) {
    const uint64_t* pivot = g.closure.data() + k * g.words;
    for (int i = 0; i < n; ++i) {
      uint64_t* row = g.closure.data() + i * g.words;
      if (i == k || !LabelGraph::Test(row, k)) continue;
      for (size_t w = 0; w < g.words; ++w) row[w] |= pivot[w];
    }
  }
  return g;
}

// Glushkov automata of every terminating type's content model, transitions
// restricted to terminating symbols (only those children can exist in a
// conforming tree).
std::map<std::string, Nfa> BuildTerminatingRestrictedNfas(
    const Dtd& dtd, const LabelGraph& graph) {
  std::map<std::string, Nfa> nfas;
  for (const ElementType& t : dtd.types()) {
    if (!graph.IsTerminating(t.name)) continue;
    Nfa nfa = BuildGlushkov(t.content);
    for (auto& out : nfa.trans) {
      out.erase(std::remove_if(out.begin(), out.end(),
                               [&](const std::pair<std::string, int>& e) {
                                 return !graph.IsTerminating(e.first);
                               }),
                out.end());
    }
    nfas.emplace(t.name, std::move(nfa));
  }
  return nfas;
}

// Cache key: the canonical printing (exact), a separator that cannot appear
// in a printed query, then the raw 8 fingerprint bytes — the same shape as
// the engine's memo key, minus the options digest (SatOptions do not affect
// the rewrite).
std::string RewriteKey(const std::string& canonical, uint64_t fingerprint) {
  std::string key;
  key.reserve(canonical.size() + 9);
  key.append(canonical);
  key.push_back('\0');
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((fingerprint >> (8 * i)) & 0xff));
  }
  return key;
}

// Per-thread rewrite-work accumulator behind TakeThreadRewriteNs(). A plain
// thread_local (no atomics): only the owning thread reads or writes it.
thread_local uint64_t g_thread_rewrite_ns = 0;

// The uncached Prop 3.3 rewrite, timed into this thread's accumulator.
Result<std::shared_ptr<const PathExpr>> Rewrite(const PathExpr& p,
                                                const CompiledDtd& compiled) {
  const auto rewrite_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<PathExpr>> rewritten =
      RewriteForNormalizedDtd(p, compiled.dtd, compiled.norm);
  g_thread_rewrite_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - rewrite_start)
          .count());
  if (!rewritten.ok()) {
    return Result<std::shared_ptr<const PathExpr>>::Error(rewritten.error());
  }
  return std::shared_ptr<const PathExpr>(std::move(rewritten).value());
}

}  // namespace

int LabelGraph::Id(const std::string& name) const {
  auto it = std::lower_bound(names.begin(), names.end(), name);
  return it != names.end() && *it == name ? static_cast<int>(it - names.begin())
                                          : -1;
}

bool LabelGraph::IsTerminating(const std::string& name) const {
  const int id = Id(name);
  return id >= 0 && Test(terminating.data(), id);
}

int LabelGraph::Next(const uint64_t* row, int from) const {
  size_t w = static_cast<size_t>(from) / 64;
  if (w >= words) return -1;
  uint64_t bits = row[w] & (~uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++w == words) return -1;
    bits = row[w];
  }
  return static_cast<int>(w * 64) + __builtin_ctzll(bits);
}

RewriteCache::RewriteCache(size_t capacity) : cache_(capacity) {}

uint64_t RewriteCache::TakeThreadRewriteNs() {
  const uint64_t taken = g_thread_rewrite_ns;
  g_thread_rewrite_ns = 0;
  return taken;
}

Result<std::shared_ptr<const PathExpr>> RewriteCache::GetOrRewrite(
    const PathExpr& p, const CompiledDtd& compiled) {
  const std::string key = RewriteKey(p.ToString(), compiled.fingerprint);
  std::shared_ptr<const PathExpr> served;
  cache_.LookupWith(key, [&](Entry& entry) {
    // Pointer equality is the fast path (CompiledDtds compiled once and
    // shared carry one shared_dtd); the structural check only runs after an
    // eviction+recompile, and the pin is refreshed so later hits for the
    // new artifacts take the fast path again — the verdict memo's pattern.
    if (entry.source != compiled.shared_dtd) {
      if (!entry.source->EquivalentTo(compiled.dtd)) return false;
      entry.source = compiled.shared_dtd;
    }
    served = entry.rewritten;
    return true;
  });
  if (served != nullptr) return served;

  Result<std::shared_ptr<const PathExpr>> result = Rewrite(p, compiled);
  if (!result.ok()) return result;
  // Keep the incumbent on a race or a fingerprint collision: either way this
  // request serves the AST it just computed (identical on a race — the
  // rewrite is deterministic — and necessarily its own on a collision).
  cache_.InsertIfAbsent(key, Entry{compiled.shared_dtd, result.value()});
  return result;
}

Result<std::shared_ptr<const PathExpr>> RewriteOntoNormalForm(
    const PathExpr& p, const CompiledDtd& compiled, RewriteCache* cache) {
  return cache != nullptr ? cache->GetOrRewrite(p, compiled)
                          : Rewrite(p, compiled);
}

CompiledDtd::CompiledDtd(Dtd source)
    : shared_dtd(std::make_shared<const Dtd>(std::move(source))),
      dtd(*shared_dtd),
      fingerprint(dtd.Fingerprint()) {}

std::shared_ptr<const CompiledDtd> CompiledDtd::Compile(const Dtd& dtd) {
  auto cd = std::make_shared<CompiledDtd>(dtd);
  cd->disjunction_free = dtd.IsDisjunctionFree();
  cd->graph = BuildLabelGraph(dtd);
  cd->min_sizes = MinimalExpansionSizes(dtd);
  cd->content_nfas = BuildTerminatingRestrictedNfas(dtd, cd->graph);
  cd->norm = NormalizeDtd(dtd);
  // Over N(D) of a disjunction-free D the rule reads: concat children are
  // mandatory (so all terminate if the parent does), star children exist
  // iff they terminate.
  if (cd->disjunction_free) cd->norm_graph = BuildLabelGraph(cd->norm.dtd);
  return cd;
}

}  // namespace xpathsat
