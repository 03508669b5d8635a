// Precompiled per-DTD artifacts shared by the decision procedures.
//
// Every decider in this directory starts by analyzing the DTD: terminating
// types (Sec. 2.1), the realizable-child label graph and its closure (the
// edge relation of the Thm 4.1 reach DP), per-production Glushkov automata
// (Thm 7.1), the normal form N(D) of Prop 3.3, and minimal expansion sizes
// for witness construction. In batch workloads thousands of queries share a
// handful of DTDs, so CompiledDtd hoists all of that out of the per-query
// path: compile once, decide many. It is also the only way in: every
// decider takes a CompiledDtd, and DecideSatisfiability(p, dtd) is Compile
// followed by the same dispatch.
//
// The label graphs are over dense label ids, not names: terminating types,
// edges and closure are bitset rows, so the Thm 4.1 and Thm 6.8(1) DPs
// (ReachTable in reach_sat.h) combine 64 labels per word operation and each
// graph is a few flat vectors. Names come back only where a witness is
// realized.
#ifndef XPATHSAT_SAT_COMPILED_DTD_H_
#define XPATHSAT_SAT_COMPILED_DTD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/util/lru_cache.h"
#include "src/util/status.h"
#include "src/xml/dtd.h"
#include "src/xml/normalize.h"

namespace xpathsat {

class PathExpr;

/// The DTD graph restricted to realizable children, plus its
/// reflexive-transitive closure over terminating types, over dense label ids.
/// Id i is the i-th declared type in name order, so walking a row's bits
/// upward visits labels in the order a std::set of their names would. A row
/// is `words` words, bit i in word i / 64; `edges` and `closure` hold one
/// row per id, back to back. Immutable once built: safe to share.
struct LabelGraph {
  std::vector<std::string> names;     ///< id -> name, sorted
  size_t words = 0;                   ///< words per row
  std::vector<uint64_t> terminating;  ///< one row
  std::vector<uint64_t> edges;        ///< row a: realizable children of a
  std::vector<uint64_t> closure;      ///< row a: reachable from a, a included

  /// Id of a declared type, or -1 (binary search over `names`).
  int Id(const std::string& name) const;
  bool IsTerminating(const std::string& name) const;
  const uint64_t* Edges(int id) const { return edges.data() + id * words; }
  const uint64_t* Closure(int id) const { return closure.data() + id * words; }
  /// The least id >= `from` set in `row`, or -1.
  int Next(const uint64_t* row, int from) const;

  static bool Test(const uint64_t* row, int id) {
    return (row[id / 64] >> (id % 64)) & 1;
  }
  static void Set(uint64_t* row, int id) {
    row[id / 64] |= uint64_t{1} << (id % 64);
  }
};

/// Immutable bundle of per-DTD artifacts. Compile once (O(|D|) up to the
/// closure, n²·n/64 word operations for n types), then share across queries
/// and threads via shared_ptr<const CompiledDtd>.
struct CompiledDtd {
  /// Sets `shared_dtd`, `dtd` and `fingerprint`; the artifacts below are
  /// left for Compile to fill in.
  explicit CompiledDtd(Dtd source);

  /// The source DTD, the one owned copy (a copied CompiledDtd shares it).
  /// Caches that pin schema identity per entry (the engine's verdict memo,
  /// RewriteCache) hold this pointer — a refcount bump per entry, and the
  /// compiled artifacts below stay free to die with their last user. Never
  /// null.
  const std::shared_ptr<const Dtd> shared_dtd;
  const Dtd& dtd;        ///< *shared_dtd
  uint64_t fingerprint;  ///< Dtd::Fingerprint() of `dtd` (the cache key)
  bool disjunction_free = false;

  /// Thm 4.1 artifacts: realizable-child graph + closure (general DTDs),
  /// ids over dtd's types.
  LabelGraph graph;
  /// Per-type minimal conforming subtree sizes (witness realization).
  std::map<std::string, long long> min_sizes;
  /// Thm 7.1 artifacts: Glushkov automata of the content models, transitions
  /// restricted to terminating symbols; only terminating types appear.
  std::map<std::string, Nfa> content_nfas;
  /// Prop 3.3 normal form N(D) (used by Thm 6.8(1) and Thm 4.4).
  NormalizedDtd norm;
  /// The same graph of norm.dtd, ids over its types (Thm 6.8(1)); only
  /// populated when disjunction_free.
  LabelGraph norm_graph;

  static std::shared_ptr<const CompiledDtd> Compile(const Dtd& dtd);
};

/// LRU memo for the Prop 3.3 query rewriting f(p), keyed by (canonical
/// query printing, Dtd::Fingerprint()).
///
/// Both PTIME decision pipelines that dominate warm filter traffic —
/// Thm 6.8(1) and Thm 4.4 — start by rewriting the query onto the normal
/// form N(D), and that per-(query, DTD) rewrite is the bulk of the remaining
/// per-request cost once the DTD artifacts are precompiled. The engine owns
/// one RewriteCache and threads it through DecideSatisfiability into the
/// deciders, so a rewrite computed by any request (on any thread, from any
/// connection) is reused by every later miss on the same (query, DTD) pair
/// — including requests whose verdict-memo key differs (other SatOptions
/// digests, evicted memo entries, or a memo-disabled engine).
///
/// Correctness: fingerprints are 64-bit FNV and can collide, so every hit is
/// verified against the source DTD the entry was rewritten for
/// (Dtd::EquivalentTo); a colliding second DTD never serves the first DTD's
/// rewrite — it computes its own, uncached (the incumbent keeps the slot),
/// exactly like the engine's artifact-cache collision rule. Rewrite errors
/// are never cached. Thread-safe; the returned ASTs are immutable and shared
/// freely across threads.
class RewriteCache {
 public:
  /// `capacity` is the entry budget (LRU eviction past it).
  explicit RewriteCache(size_t capacity);

  /// Returns f(p) for `compiled`'s normal form, from the cache or computed
  /// (and cached) on miss. The error is RewriteForNormalizedDtd's when the
  /// query is outside the rewriting's fragment.
  Result<std::shared_ptr<const PathExpr>> GetOrRewrite(
      const PathExpr& p, const CompiledDtd& compiled);

  /// Aggregate probe counters (a rejected fingerprint-collision hit counts
  /// as a miss). A single request can probe more than once when the dispatch
  /// tries several deciders.
  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }

  /// Returns the nanoseconds this thread has spent computing Prop 3.3
  /// rewrites (GetOrRewrite miss paths) since the last call, and resets the
  /// accumulator to zero. Thread-local, so a caller that resets it before
  /// dispatching and reads it after gets exactly the rewrite work its own
  /// request performed — the engine's rewrite-span hook. Cache hits
  /// accumulate nothing.
  static uint64_t TakeThreadRewriteNs();

 private:
  struct Entry {
    /// The schema the rewrite was computed against — the collision check
    /// (same fingerprint does not imply the same DTD).
    std::shared_ptr<const Dtd> source;
    std::shared_ptr<const PathExpr> rewritten;
  };
  LruCache<std::string, Entry> cache_;
};

/// f(p) over `compiled`'s normal form N(D), the Prop 3.3 step that starts
/// the Thm 6.8(1), 6.8(2) and 4.4 pipelines: served from `cache` when it is
/// non-null, computed afresh otherwise. The AST is the same either way.
Result<std::shared_ptr<const PathExpr>> RewriteOntoNormalForm(
    const PathExpr& p, const CompiledDtd& compiled, RewriteCache* cache);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_COMPILED_DTD_H_
