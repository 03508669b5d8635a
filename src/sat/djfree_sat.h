// SAT(X(↓,↓*,∪,[])) under disjunction-free DTDs in PTIME (Theorem 6.8(1)),
// and the X(↓,↑) case via the qualifier-introducing rewriting (Theorem
// 6.8(2)).
//
// Pipeline: normalize the DTD (Prop 3.3 keeps it disjunction-free), rewrite
// the query with f(p), then run the reach/sat dynamic program. Soundness of
// the qualifier decomposition sat([q1∧q2],A) = sat([q1],A) ∧ sat([q2],A)
// relies on the normalized disjunction-free production forms B1,...,Bn / B*.
#ifndef XPATHSAT_SAT_DJFREE_SAT_H_
#define XPATHSAT_SAT_DJFREE_SAT_H_

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xpath/ast.h"

namespace xpathsat {

/// Decides (p, D) for p in X(↓,↓*,∪,[]) (label tests allowed; no negation,
/// data values, upward or sibling axes) and disjunction-free D, over the
/// compiled normal form and its label graph; only the per-query f(p)
/// rewriting and DP remain. Thread-safe for concurrent calls sharing one
/// CompiledDtd. A non-null `rewrites` memoizes the f(p) rewriting across
/// calls (see RewriteOntoNormalForm); verdicts are identical either way.
Result<SatDecision> DisjunctionFreeSat(const PathExpr& p,
                                       const CompiledDtd& compiled,
                                       RewriteCache* rewrites = nullptr);

/// Decides (p, D) for p in X(↓,↑) (steps only) and disjunction-free D, by
/// rewriting into X(↓,[]) (Thm 6.8(2)) and delegating. `rewrites` memoizes
/// the f(p) step of the delegated Thm 6.8(1) decision (keyed by the X(↓,[])
/// query the up/down rewriting produces, which is deterministic per input
/// query).
Result<SatDecision> UpDownDisjunctionFreeSat(const PathExpr& p,
                                             const CompiledDtd& compiled,
                                             RewriteCache* rewrites = nullptr);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_DJFREE_SAT_H_
