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
#ifndef XPATHSAT_SAT_COMPILED_DTD_H_
#define XPATHSAT_SAT_COMPILED_DTD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/automata/nfa.h"
#include "src/util/sharded_lru_cache.h"
#include "src/util/status.h"
#include "src/xml/dtd.h"
#include "src/xml/normalize.h"

namespace xpathsat {

class PathExpr;

/// The DTD graph restricted to realizable children, plus its
/// reflexive-transitive closure over terminating types.
struct LabelGraph {
  std::set<std::string> terminating;
  std::map<std::string, std::set<std::string>> edges;
  std::map<std::string, std::set<std::string>> closure;

  /// Edge / closure lookups that never mutate (safe to share across threads).
  const std::set<std::string>& Edges(const std::string& type) const;
  const std::set<std::string>& Closure(const std::string& type) const;
};

/// Immutable bundle of per-DTD artifacts. Compile once (O(|D|) up to the
/// closure computation), then share across queries and threads via
/// shared_ptr<const CompiledDtd>.
struct CompiledDtd {
  /// Sets `dtd`, `shared_dtd` and `fingerprint`; the artifacts below are
  /// left for Compile (or the snapshot decoder) to fill in.
  explicit CompiledDtd(Dtd source);

  Dtd dtd;               ///< the source DTD (owning copy)
  /// The same schema behind a shared_ptr, for caches that pin schema
  /// identity per entry (RewriteCache collision verification) — a refcount
  /// bump per entry instead of a Dtd copy per entry. Never null.
  std::shared_ptr<const Dtd> shared_dtd;
  uint64_t fingerprint;  ///< Dtd::Fingerprint() of `dtd` (the cache key)
  bool disjunction_free = false;

  /// Thm 4.1 artifacts: realizable-child graph + closure (general DTDs).
  LabelGraph graph;
  /// Per-type minimal conforming subtree sizes (witness realization).
  std::map<std::string, long long> min_sizes;
  /// Thm 7.1 artifacts: Glushkov automata of the content models, transitions
  /// restricted to terminating symbols; only terminating types appear.
  std::map<std::string, Nfa> content_nfas;
  /// Prop 3.3 normal form N(D) (used by Thm 6.8(1) and Thm 4.4).
  NormalizedDtd norm;
  /// Graph of norm.dtd under the normalized disjunction-free edge rule;
  /// only populated when disjunction_free.
  LabelGraph norm_graph;

  static std::shared_ptr<const CompiledDtd> Compile(const Dtd& dtd);
};

/// Sharded memo for the Prop 3.3 query rewriting f(p), keyed by (canonical
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
  /// `capacity` is the aggregate entry budget; `num_shards` as in
  /// ShardedLruCache (0 picks the hardware default, 1 gives global LRU).
  explicit RewriteCache(size_t capacity, size_t num_shards = 0);

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
  size_t num_shards() const { return cache_.num_shards(); }

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
  ShardedLruCache<std::string, Entry> cache_;
};

/// f(p) over `compiled`'s normal form N(D), the Prop 3.3 step that starts
/// the Thm 6.8(1), 6.8(2) and 4.4 pipelines: served from `cache` when it is
/// non-null, computed afresh otherwise. The AST is the same either way.
Result<std::shared_ptr<const PathExpr>> RewriteOntoNormalForm(
    const PathExpr& p, const CompiledDtd& compiled, RewriteCache* cache);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_COMPILED_DTD_H_
