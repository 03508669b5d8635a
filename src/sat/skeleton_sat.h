// SAT(X(↓,↓*,↑,↑*,∪,[],=)) — the positive fragment with DTDs — via witness
// skeletons (Theorem 4.4).
//
// The procedure mirrors the NP upper-bound proof: a satisfying tree can be
// pruned to a witness tree with at most |p| branches and depth at most
// (3|p|−1)|D| (Lemmas 4.5/4.6). We search for such a witness directly: the
// DTD is normalized (Prop 3.3) so children structure is one of
// {ε, fixed word, single-choice, star}; navigation steps of the (rewritten)
// query get embedded into a partial witness tree with backtracking; ↓*/↑*
// edges choose connecting DTD-graph chains bounded by the shortcut lemma;
// data-value (in)equalities are collected and checked by union-find at the
// leaves of the search.
//
// Answers are exact within the configured bounds: kSat comes with a verified
// conforming witness; kUnsat means the bounded witness space is exhausted
// (complete when the bounds dominate the paper's, see options); kUnknown means
// the step cap was hit.
#ifndef XPATHSAT_SAT_SKELETON_SAT_H_
#define XPATHSAT_SAT_SKELETON_SAT_H_

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xpath/ast.h"

namespace xpathsat {

/// Search bounds for SkeletonSat.
struct SkeletonSatOptions {
  /// Witness node cap; 0 derives 4·|p|·(|D|+1) from Lemma 4.5.
  int max_nodes = 0;
  /// Maximum length of a single ↓* connecting chain; 0 derives (3|p|−1)|D|,
  /// clamped to 64.
  int max_desc_len = 0;
  /// Max occurrences of one element type along a single ↓* chain (the
  /// shortcut lemma removes repeats from connector segments; 2 leaves room
  /// for interleaved witness nodes).
  int desc_repeat_cap = 2;
  /// Backtracking step cap before returning kUnknown.
  long long max_steps = 20000000;
};

/// Decides (p, D) for positive p (no negation; data values, qualifiers,
/// union, upward and recursive axes all allowed; no sibling axes), searching
/// over the compiled normal form N(D). Thread-safe for concurrent calls
/// sharing one CompiledDtd. A non-null `rewrites` memoizes the f(p)
/// rewriting across calls (see RewriteOntoNormalForm); verdicts are
/// identical either way.
Result<SatDecision> SkeletonSat(const PathExpr& p, const CompiledDtd& compiled,
                                const SkeletonSatOptions& options = {},
                                RewriteCache* rewrites = nullptr);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_SKELETON_SAT_H_
