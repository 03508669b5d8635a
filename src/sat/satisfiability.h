// The public entry point: detects the query's fragment and the DTD class and
// dispatches to the best decision procedure, reproducing the complexity
// landscape of the paper (Sec. 8 summary):
//
//   X(↓,↓*,∪)                                 -> Thm 4.1 reach DP (PTIME)
//   X(→,←) chains                             -> Thm 7.1 NFA chains (PTIME)
//   X(↓,↓*,∪,[]) + disjunction-free DTD       -> Thm 6.8(1) DP (PTIME)
//   X(↓,↑) + disjunction-free DTD             -> Thm 6.8(2) rewrite (PTIME)
//   positive fragments                        -> Thm 4.4 skeletons (NP)
//   negation fragments                        -> bounded-model search with
//     bounds from Thm 5.5 / Cor 6.2 (PSPACE..NEXPTIME regimes; kUnknown when
//     no small-model bound applies and caps are hit — the general
//     data+negation+recursion fragment is undecidable, Thm 5.4)
//
// The absence-of-DTD variants dispatch to Thm 6.11 procedures or reduce via
// the universal DTDs of Prop 3.1.
#ifndef XPATHSAT_SAT_SATISFIABILITY_H_
#define XPATHSAT_SAT_SATISFIABILITY_H_

#include <cstdint>
#include <string>

#include "src/sat/bounded_model.h"
#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/sat/skeleton_sat.h"
#include "src/xpath/ast.h"
#include "src/xpath/features.h"

namespace xpathsat {

/// Outcome of the facade: the decision plus which algorithm ran.
struct SatReport {
  SatDecision decision;
  std::string algorithm;
  bool sat() const { return decision.sat(); }
  bool unsat() const { return decision.unsat(); }
};

/// Resource caps for the fallback procedures. The defaults allow deeper
/// trees than raw BoundedModelOptions so that the justified small-model
/// bounds of nonrecursive instances are met (completeness); DeriveBounds
/// shrinks them per instance.
struct SatOptions {
  BoundedModelOptions bounded_caps = [] {
    BoundedModelOptions b;
    b.max_depth = 24;
    b.max_nodes = 400;
    b.max_star = 12;  // DeriveBounds shrinks to the justified witness count
    return b;
  }();
  /// Caps for the Thm 4.4 skeleton search (NP cells); the defaults derive
  /// the paper's bounds per instance. Tighten max_steps for latency-capped
  /// batch traffic (kUnknown on cap hit).
  SkeletonSatOptions skeleton_caps;
  /// When false, procedures MAY skip constructing a satisfying witness tree
  /// on kSat (verdicts are unchanged). Batch audit traffic wants verdicts,
  /// and the Tree(p, D) realization of Thm 4.1 costs more than the reach DP
  /// itself. Procedures whose witness falls out of the search for free still
  /// attach it.
  bool compute_witness = true;

  /// Canonical 64-bit digest over every field that can influence a verdict
  /// (all resource caps plus compute_witness, which decides whether kSat
  /// reports carry a witness tree). Two SatOptions with equal digests produce
  /// identical SatReports for any (query, DTD) pair — this is the options
  /// component of the engine's verdict-memoization key, so any new
  /// semantically relevant field MUST be folded in here (and the version tag
  /// bumped if the encoding changes).
  uint64_t Digest() const;
};

/// SAT(X): is there a tree T with T |= D and T |= p? Compiles `dtd` and
/// runs the dispatch below; callers deciding many queries against one DTD
/// compile it once and use the CompiledDtd overloads instead.
SatReport DecideSatisfiability(const PathExpr& p, const Dtd& dtd,
                               const SatOptions& options = {});

/// The dispatch over precompiled per-DTD artifacts. Thread-safe for
/// concurrent calls sharing one CompiledDtd; used by the batch SatEngine. A
/// non-null `rewrite_cache` memoizes the Prop 3.3 f(p) rewriting of the
/// Thm 6.8(1)/6.8(2)/4.4 pipelines across calls (the engine threads its
/// cache through here); verdicts are identical either way.
SatReport DecideSatisfiability(const PathExpr& p, const CompiledDtd& compiled,
                               const SatOptions& options = {},
                               RewriteCache* rewrite_cache = nullptr);

/// As above with a precomputed fragment profile (`features` must equal
/// DetectFeatures(p) — the engine's query cache stores it alongside the AST).
SatReport DecideSatisfiability(const PathExpr& p, const Features& features,
                               const CompiledDtd& compiled,
                               const SatOptions& options = {},
                               RewriteCache* rewrite_cache = nullptr);

/// Satisfiability in the absence of DTDs (Sec. 6.4).
SatReport DecideSatisfiabilityNoDtd(const PathExpr& p,
                                    const SatOptions& options = {});

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_SATISFIABILITY_H_
