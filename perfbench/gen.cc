// Seeded input generation: DTD families, the per-route query grammar, the
// three workloads' request streams, and the correctness gate's expected
// verdicts (in process, over CompiledDtd) plus the bounded-model oracle
// sample. The server only ever sees the files and lines built here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "perfbench/bench.h"
#include "src/sat/bounded_model.h"
#include "src/util/rng.h"
#include "src/xml/dtd.h"
#include "src/xpath/features.h"
#include "src/xpath/parser.h"

namespace perfbench {

using xpathsat::CompiledDtd;
using xpathsat::Dtd;
using xpathsat::Rng;
using xpathsat::SatVerdict;

const char* const kRoutes[] = {"reach",  "sibling",  "djfree",
                               "updown", "skeleton", "bounded"};
const int kRouteCount = 6;

std::string RouteName(const std::string& algorithm) {
  for (int i = 0; i < kRouteCount; ++i) {
    if (algorithm.rfind(kRoutes[i], 0) == 0) return kRoutes[i];
  }
  return "other";
}

const char* VerdictToken(SatVerdict v) {
  switch (v) {
    case SatVerdict::kSat: return "sat";
    case SatVerdict::kUnsat: return "unsat";
    case SatVerdict::kUnknown: return "unknown";
  }
  return "?";
}

namespace {

// The publishing schema the engine's own throughput bench serves (30 types,
// disjunction-free): the one hand-written DTD next to the generated ones.
constexpr char kCatalogDtd[] = R"(root catalog
catalog -> frontmatter, section*, backmatter
frontmatter -> title, subtitle, author*, legal
subtitle -> eps
author -> name, affiliation
name -> eps
affiliation -> eps
legal -> para*
section -> heading, para*, item*, figure*, subsection*, appendix
subsection -> heading, para*, item*, figure*
heading -> eps
para -> emph, xref
emph -> eps
xref -> eps
item -> title, price, variant*, note*
title -> eps
price -> amount, range*
amount -> eps
range -> amount, amount
variant -> swatch, swatch*
swatch -> eps
note -> ref, para*
ref -> eps
figure -> caption, image*, table*
caption -> eps
image -> eps
table -> row, row*
row -> cell*
cell -> para*
appendix -> note*
backmatter -> index, colophon
index -> entrylist*
entrylist -> eps
colophon -> eps
)";

// A generated DTD over types e0..e{n-1} (root e0). A random tree skeleton
// keeps every type reachable; mandatory children always have a larger
// index, so every type terminates; extra references (recursion included)
// sit under a star. `span` sets the depth: a child's parent is drawn from
// the `span` types before it (small span: deep and narrow); `star_pct` is
// the share of starred children.
std::string GenerateDtdText(Rng* rng, int n, bool disjunction, int span,
                            int star_pct) {
  std::vector<std::vector<int>> kids(static_cast<size_t>(n));
  for (int i = 1; i < n; ++i) {
    const int lo = std::max(0, i - span);
    kids[static_cast<size_t>(rng->IntIn(lo, i - 1))].push_back(i);
  }
  std::string text = "root e0\n";
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& c = kids[static_cast<size_t>(i)];
    std::vector<std::string> items;
    for (size_t k = 0; k < c.size(); ++k) {
      const std::string a = "e" + std::to_string(c[k]);
      if (disjunction && k + 1 < c.size() && rng->Percent(35)) {
        const std::string b = "e" + std::to_string(c[k + 1]);
        items.push_back(rng->Percent(50) ? "(" + a + " + " + b + ")"
                                         : "(" + a + " + " + b + ")*");
        ++k;
      } else {
        items.push_back(rng->Percent(star_pct) ? a + "*" : a);
      }
    }
    if (rng->Percent(25)) {
      items.push_back("e" + std::to_string(rng->IntIn(0, n - 1)) + "*");
    }
    text += "e" + std::to_string(i) + " -> ";
    if (items.empty()) {
      text += "eps";
    } else {
      for (size_t k = 0; k < items.size(); ++k) {
        text += (k == 0 ? "" : ", ") + items[k];
      }
    }
    text += "\n";
  }
  return text;
}

enum class Route { kReach, kSibling, kDjfree, kUpdown, kSkeleton };

// Query grammar per Sec. 8 route. Steps follow the DTD's child edges most
// of the time (so a useful share of queries is satisfiable) and jump to a
// random label otherwise.
class QueryGen {
 public:
  QueryGen(const Dtd& dtd, Rng* rng) : rng_(rng), children_(dtd.ChildMap()) {
    labels_ = dtd.TypeNames();
    root_ = dtd.root();
  }
  /// Restricts labels to a fixed vocabulary (schema_churn's shared pool).
  QueryGen(std::vector<std::string> labels, Rng* rng)
      : rng_(rng), labels_(std::move(labels)) {
    root_ = labels_.front();
  }

  std::string Make(Route route) {
    descendant_left_ = 1;  // at most one `**` per query
    switch (route) {
      case Route::kReach: {
        std::string q = Path(rng_->IntIn(1, 4), true, nullptr);
        if (rng_->Percent(25)) q += "|" + Path(rng_->IntIn(1, 3), true, nullptr);
        return q;
      }
      case Route::kSibling: {
        std::string last;
        std::string q = Path(rng_->IntIn(1, 3), false, &last);
        const int sibs = rng_->IntIn(1, 2);
        for (int i = 0; i < sibs; ++i) q += rng_->Percent(60) ? "/>" : "/<";
        if (rng_->Percent(40)) q += "/" + Label(last);
        return q;
      }
      case Route::kDjfree:
      case Route::kSkeleton: {
        // Filters over child-label paths: p[q] with q a short label chain.
        // No `**`: it makes these DPs ten times slower and heavy-tailed.
        std::string last;
        std::string q = Path(rng_->IntIn(1, 3), false, &last, std::string(),
                             /*wildcards=*/false);
        std::string inner = Label(last);
        if (rng_->Percent(40)) inner += "/" + Label(inner);
        q += "[" + inner + "]";
        if (rng_->Percent(30)) q += "/" + Label(last);
        return q;
      }
      case Route::kUpdown: {
        std::string last;
        std::string q = Path(rng_->IntIn(2, 3), false, &last, std::string(),
                             /*wildcards=*/false);
        q += "/^";
        if (rng_->Percent(60)) q += "/" + Label("");
        return q;
      }
    }
    return ".";
  }

 private:
  // A child of `from` (when known) or any label.
  std::string Label(const std::string& from) {
    auto it = children_.find(from);
    if (it != children_.end() && !it->second.empty() && rng_->Percent(75)) {
      auto pick = it->second.begin();
      std::advance(pick, static_cast<long>(rng_->Below(it->second.size())));
      return *pick;
    }
    return labels_[rng_->Below(labels_.size())];
  }

  // `steps` downward steps from `from` (default: the root); `desc` allows
  // the query's one `**`, `wildcards` allows `*`. *last receives the final
  // label ("" after a wildcard).
  std::string Path(int steps, bool desc, std::string* last,
                   std::string from = std::string(), bool wildcards = true) {
    std::string cur = from.empty() ? root_ : from;
    std::string q;
    for (int i = 0; i < steps; ++i) {
      if (!q.empty()) q += "/";
      const int roll = rng_->IntIn(0, 99);
      if (desc && descendant_left_ > 0 && roll < 25) {
        --descendant_left_;
        cur = labels_[rng_->Below(labels_.size())];
        q += "**/" + cur;
      } else if (wildcards && roll >= 25 && roll < 33) {
        q += "*";
        cur.clear();
      } else {
        cur = Label(cur);
        q += cur;
      }
    }
    if (last != nullptr) *last = cur;
    return q;
  }

  Rng* rng_;
  std::map<std::string, std::set<std::string>> children_;
  std::vector<std::string> labels_;
  std::string root_;
  int descendant_left_ = 1;
};

// Canonical printing of a generated query; the generator only emits
// parseable text, so a parse failure is a generator bug.
std::string Canonical(const Config& cfg, const std::string& text) {
  auto parsed = xpathsat::ParsePath(text);
  if (!parsed.ok()) {
    Fail(cfg, "generated query does not parse: '" + text + "': " +
                  parsed.error());
  }
  return parsed.value()->ToString();
}

// Route weights (percent) per schema: the Thm 6.8 routes on the small
// disjunction-free schemas, the Thm 4.4 skeleton route on the disjunctive
// one, and only the Thm 4.1 / 7.1 routes on the 120-type schema, whose
// filter DPs would put multi-millisecond tails into every run.
Route PickRoute(Rng* rng, bool disjunction, bool large) {
  const int roll = rng->IntIn(0, 99);
  if (disjunction) {
    if (roll < 45) return Route::kReach;
    if (roll < 75) return Route::kSibling;
    return Route::kSkeleton;
  }
  if (large) return roll < 65 ? Route::kReach : Route::kSibling;
  if (roll < 30) return Route::kReach;
  if (roll < 45) return Route::kSibling;
  if (roll < 85) return Route::kDjfree;
  return Route::kUpdown;
}

class StreamBuilder {
 public:
  explicit StreamBuilder(const Config& cfg)
      : cfg_(cfg), rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5eed) {}

  Stream Build() {
    switch (cfg_.workload) {
      case Workload::kRepeatHot: BuildRepeatHot(); break;
      case Workload::kFreshMix: BuildFreshMix(); break;
      case Workload::kSchemaChurn: BuildSchemaChurn(); break;
    }
    WriteFiles();
    const int64_t e0 = NowNs();
    Expect();
    const int64_t e1 = NowNs();
    if (cfg_.workload == Workload::kFreshMix) OracleSample();
    std::fprintf(stderr, "prep: expected verdicts %.2f s, oracle sample %.2f s\n",
                 static_cast<double>(e1 - e0) / 1e9,
                 static_cast<double>(NowNs() - e1) / 1e9);
    if (cfg_.inject_wrong_verdict) {
      // Self-test: the first request the open loop sends gets a wrong
      // expectation, which the gate must catch.
      Request& r = s_.requests[static_cast<size_t>(s_.open.front().requests[0])];
      r.expected = r.expected == SatVerdict::kSat ? SatVerdict::kUnsat
                                                  : SatVerdict::kSat;
    }
    return std::move(s_);
  }

 private:
  double ClosedSeconds() const { return cfg_.seconds * cfg_.closed_share; }
  double OpenSeconds() const { return cfg_.seconds - ClosedSeconds(); }
  // Closed-loop pool: the open rate is a third to a half of capacity, so
  // six times the rate over the closed window leaves at least half again
  // what the closed loop can use.
  int ClosedCount() const {
    return std::max(8, static_cast<int>(6 * cfg_.open_rate * ClosedSeconds()));
  }
  int OpenCount() const {
    return std::max(8, static_cast<int>(cfg_.open_rate * OpenSeconds()));
  }

  int AddSchema(const std::string& name, std::string text, bool at_setup) {
    Schema s;
    s.name = name;
    s.path = cfg_.work_dir + "/" + name + ".dtd";
    s.text = std::move(text);
    s.at_setup = at_setup;
    s_.schemas.push_back(std::move(s));
    return static_cast<int>(s_.schemas.size()) - 1;
  }

  // The four serving schemas of repeat_hot and fresh_mix: the catalog plus
  // three generated ones (30-150 types; the last has disjunction). They are
  // the same for every seed: a schema's wiring alone moved the decide cost
  // of a seed's queries by a quarter, so seeds vary only the queries.
  void AddServingSchemas() {
    Rng wiring(0x5e471d7ULL);
    AddSchema("catalog", kCatalogDtd, true);
    AddSchema("g40", GenerateDtdText(&wiring, 40, false, 3, 45), true);
    AddSchema("g120", GenerateDtdText(&wiring, 120, false, 120, 45), true);
    AddSchema("d40", GenerateDtdText(&wiring, 40, true, 4, 45), true);
  }

  // A never-seen canonical query for `schema`.
  int FreshRequest(int schema, const Dtd& dtd) {
    QueryGen gen(dtd, &rng_);
    const bool dj = !dtd.IsDisjunctionFree();
    const bool large = dtd.types().size() > 100;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      std::string q = Canonical(cfg_, gen.Make(PickRoute(&rng_, dj, large)));
      if (!seen_.insert(q).second) continue;
      Request r;
      r.schema = schema;
      r.query = std::move(q);
      s_.requests.push_back(std::move(r));
      return static_cast<int>(s_.requests.size()) - 1;
    }
    Fail(cfg_, "query grammar exhausted: no fresh query in 1000 draws");
  }

  std::vector<Dtd> ParsedSchemas() {
    std::vector<Dtd> out;
    for (const Schema& s : s_.schemas) {
      auto d = Dtd::Parse(s.text);
      if (!d.ok()) Fail(cfg_, "generated DTD does not parse: " + d.error());
      out.push_back(std::move(d).value());
    }
    return out;
  }

  void BuildRepeatHot() {
    AddServingSchemas();
    const std::vector<Dtd> dtds = ParsedSchemas();
    // The working set: an equal share of distinct pairs per schema.
    const int per_schema = cfg_.working_set / 4;
    std::vector<std::vector<int>> by_schema(4);
    for (int s = 0; s < 4; ++s) {
      for (int i = 0; i < per_schema; ++i) {
        by_schema[static_cast<size_t>(s)].push_back(
            FreshRequest(s, dtds[static_cast<size_t>(s)]));
      }
    }
    // Warm-up: every pair once, so the query cache holds the working set.
    for (int s = 0; s < 4; ++s) {
      const auto& pairs = by_schema[static_cast<size_t>(s)];
      for (size_t i = 0; i < pairs.size(); i += 16) {
        Op op;
        op.schema = s;
        for (size_t j = i; j < std::min(pairs.size(), i + 16); ++j) {
          op.requests.push_back(pairs[j]);
        }
        s_.warmup.push_back(std::move(op));
      }
    }
    // Skewed draws: pair rank r is picked with weight (r+1)^-0.6, so the
    // top ten pairs of a schema draw about a seventh of its traffic. (A
    // steeper skew makes the cost of a run hinge on the few hottest
    // queries' lengths, which differ from seed to seed.)
    std::vector<double> cdf;
    double total = 0;
    for (int r = 0; r < per_schema; ++r) {
      total += std::pow(r + 1.0, -0.6);
      cdf.push_back(total);
    }
    auto draw_ops = [&](int verdicts, int batch, std::vector<Op>* out) {
      for (int n = 0; n < verdicts; n += batch) {
        Op op;
        op.schema = static_cast<int>(rng_.Below(4));
        for (int j = 0; j < batch; ++j) {
          const double u = static_cast<double>(rng_.Next() >> 11) /
                           static_cast<double>(1ULL << 53) * total;
          const size_t rank = static_cast<size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          op.requests.push_back(by_schema[static_cast<size_t>(op.schema)]
                                         [std::min(rank, cdf.size() - 1)]);
        }
        out->push_back(std::move(op));
      }
    };
    draw_ops(ClosedCount(), cfg_.batch, &s_.closed);
    draw_ops(OpenCount(), cfg_.open_batch, &s_.open);
  }

  void BuildFreshMix() {
    AddServingSchemas();
    const std::vector<Dtd> dtds = ParsedSchemas();
    // The disjunctive schema gets one batch in eight: a small Thm 4.4 slice.
    auto fresh_ops = [&](int verdicts, int batch, std::vector<Op>* out) {
      for (int n = 0; n < verdicts; n += batch) {
        Op op;
        op.schema = rng_.Percent(12) ? 3 : static_cast<int>(rng_.Below(3));
        for (int j = 0; j < batch; ++j) {
          op.requests.push_back(
              FreshRequest(op.schema, dtds[static_cast<size_t>(op.schema)]));
        }
        out->push_back(std::move(op));
      }
    };
    fresh_ops(cfg_.smoke ? 32 : 256, cfg_.batch, &s_.warmup);
    fresh_ops(ClosedCount(), cfg_.batch, &s_.closed);
    fresh_ops(OpenCount(), cfg_.open_batch, &s_.open);
  }

  void BuildSchemaChurn() {
    // The fixed pool, over labels every generated DTD has (>= 20 types).
    std::vector<std::string> vocab;
    for (int i = 0; i < 20; ++i) vocab.push_back("e" + std::to_string(i));
    QueryGen gen(vocab, &rng_);
    std::vector<std::string> pool;
    while (static_cast<int>(pool.size()) < cfg_.job_pool) {
      const int roll = rng_.IntIn(0, 99);
      const Route route = roll < 40   ? Route::kReach
                          : roll < 55 ? Route::kSibling
                          : roll < 85 ? Route::kDjfree
                                      : Route::kUpdown;
      std::string q = Canonical(cfg_, gen.Make(route));
      if (seen_.insert(q).second) pool.push_back(std::move(q));
    }
    std::unordered_set<uint64_t> fingerprints;
    int next_job = 0;
    // A job's DTD: its size and shape are a fixed function of the job's
    // index (sizes stepping through 20-200 types, three in ten with
    // disjunction, deep and shallow in turn, 25-65% starred) and only its
    // wiring depends on the seed, so every seed's setup (the warm-up jobs)
    // and every stretch of its timed jobs cost about the same.
    auto job = [&](const std::vector<int>& pool_picks) {
      std::string text;
      const int j = next_job;
      const int n = 20 + (j * 97) % 181;
      const bool disjunction = j % 10 == 2 || j % 10 == 5 || j % 10 == 8;
      const int span = j % 2 == 0 ? 2 + j % 3 : n;
      const int star_pct = 25 + (j * 13) % 41;
      for (;;) {
        text = GenerateDtdText(&rng_, n, disjunction, span, star_pct);
        auto d = Dtd::Parse(text);
        if (!d.ok()) Fail(cfg_, "generated DTD does not parse: " + d.error());
        if (fingerprints.insert(d.value().Fingerprint()).second) break;
      }
      Op op;
      op.job = true;
      op.schema = AddSchema("j" + std::to_string(next_job++), std::move(text),
                            false);
      for (int pick : pool_picks) {
        Request r;
        r.schema = op.schema;
        r.query = pool[static_cast<size_t>(pick)];
        s_.requests.push_back(std::move(r));
        op.requests.push_back(static_cast<int>(s_.requests.size()) - 1);
      }
      return op;
    };
    // Warm-up: jobs that together run every pool text once.
    for (int i = 0; i < cfg_.job_pool; i += cfg_.job_queries) {
      std::vector<int> picks;
      for (int j = i; j < std::min(cfg_.job_pool, i + cfg_.job_queries); ++j) {
        picks.push_back(j);
      }
      s_.warmup.push_back(job(picks));
    }
    // Distinct pool texts per job, so no job answers its own repeat from
    // the memo.
    auto jobs = [&](int count, std::vector<Op>* out) {
      for (int n = 0; n < count; ++n) {
        std::vector<int> picks;
        while (static_cast<int>(picks.size()) < cfg_.job_queries) {
          const int pick = static_cast<int>(rng_.Below(pool.size()));
          if (std::find(picks.begin(), picks.end(), pick) == picks.end()) {
            picks.push_back(pick);
          }
        }
        out->push_back(job(picks));
      }
    };
    jobs(ClosedCount(), &s_.closed);
    jobs(OpenCount(), &s_.open);
  }

  void WriteFiles() {
    for (const Schema& s : s_.schemas) {
      std::ofstream out(s.path);
      out << s.text;
      if (!out.good()) Fail(cfg_, "cannot write " + s.path);
    }
  }

  // The correctness gate's expectations: every request decided in process
  // through DecideSatisfiability over CompiledDtd with the options the
  // server's sessions use. Untimed; four threads over chunks of requests.
  // The serving schemas are compiled once up front; a job schema is
  // compiled for its chunk and dropped again, which keeps memory flat.
  void Expect() {
    std::vector<Schema>& schemas = s_.schemas;
    auto compile = [&](Schema* sc) {
      auto d = Dtd::Parse(sc->text);
      if (!d.ok()) Fail(cfg_, "generated DTD does not parse: " + d.error());
      sc->compiled = CompiledDtd::Compile(d.value());
    };
    for (Schema& sc : schemas) {
      if (sc.at_setup) compile(&sc);
    }
    std::vector<std::vector<int>> by_schema(schemas.size());
    for (size_t i = 0; i < s_.requests.size(); ++i) {
      by_schema[static_cast<size_t>(s_.requests[i].schema)].push_back(
          static_cast<int>(i));
    }
    struct Chunk {
      size_t schema, begin, end;
    };
    std::vector<Chunk> chunks;
    for (size_t sc = 0; sc < schemas.size(); ++sc) {
      for (size_t b = 0; b < by_schema[sc].size(); b += 256) {
        chunks.push_back({sc, b, std::min(by_schema[sc].size(), b + 256)});
      }
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
      xpathsat::SatOptions options;
      options.compute_witness = false;
      for (size_t k; (k = next.fetch_add(1)) < chunks.size();) {
        const Chunk& c = chunks[k];
        Schema& sc = schemas[c.schema];
        if (!sc.at_setup) compile(&sc);
        for (size_t i = c.begin; i < c.end; ++i) {
          Request& r = s_.requests[static_cast<size_t>(by_schema[c.schema][i])];
          auto p = xpathsat::ParsePath(r.query);
          xpathsat::SatReport rep = xpathsat::DecideSatisfiability(
              *p.value(), xpathsat::DetectFeatures(*p.value()), *sc.compiled,
              options);
          r.expected = rep.decision.verdict;
        }
        if (!sc.at_setup) sc.compiled.reset();
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  // A seeded ~1% sample of fresh_mix against the bounded-model oracle:
  // where the oracle is definite (a verified witness, or an exhausted
  // search whose bounds are justified) the expected verdict must agree, so
  // a bug shared by the engine and the facade still shows. The 120-type
  // schema is left out: there one enumeration takes up to a second, which
  // would put minutes of preparation into some seeds.
  void OracleSample() {
    std::vector<Dtd> dtds = ParsedSchemas();
    Rng pick(cfg_.seed ^ 0x0dac1e5ULL);
    std::vector<int> sample;
    for (size_t i = 0; i < s_.requests.size(); ++i) {
      const Dtd& dtd = dtds[static_cast<size_t>(s_.requests[i].schema)];
      if (pick.Percent(1) && dtd.types().size() <= 100) {
        sample.push_back(static_cast<int>(i));
      }
    }
    xpathsat::BoundedModelOptions caps;
    caps.max_depth = 5;
    caps.max_nodes = 16;
    caps.max_star = 2;
    caps.max_trees = 500;
    std::atomic<size_t> next{0};
    std::atomic<int> definite{0};
    std::vector<std::string> mismatches;
    std::mutex mu;
    auto worker = [&] {
      for (;;) {
        const size_t k = next.fetch_add(1);
        if (k >= sample.size()) return;
        const Request& r = s_.requests[static_cast<size_t>(sample[k])];
        auto p = xpathsat::ParsePath(r.query);
        const Dtd& dtd = dtds[static_cast<size_t>(r.schema)];
        xpathsat::DerivedBounds b =
            xpathsat::DeriveBoundsChecked(*p.value(), dtd, caps);
        xpathsat::SatDecision d = xpathsat::BoundedModelSat(*p.value(), dtd,
                                                            b.options);
        SatVerdict oracle = SatVerdict::kUnknown;
        if (d.sat()) oracle = SatVerdict::kSat;
        if (d.unsat() && b.complete) oracle = SatVerdict::kUnsat;
        if (oracle == SatVerdict::kUnknown) continue;
        ++definite;
        if (oracle != r.expected) {
          std::lock_guard<std::mutex> lock(mu);
          mismatches.push_back("query '" + r.query + "' on schema " +
                               s_.schemas[static_cast<size_t>(r.schema)].name +
                               ": engine " + VerdictToken(r.expected) +
                               ", oracle " + VerdictToken(oracle));
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    s_.oracle_checked = static_cast<int>(sample.size());
    s_.oracle_definite = definite;
    if (!mismatches.empty()) {
      Fail(cfg_, "bounded-model oracle disagrees: " + mismatches.front());
    }
  }

  const Config& cfg_;
  Rng rng_;
  Stream s_;
  std::unordered_set<std::string> seen_;  // canonical printings issued
};

}  // namespace

Stream BuildStream(const Config& cfg) { return StreamBuilder(cfg).Build(); }

}  // namespace perfbench
