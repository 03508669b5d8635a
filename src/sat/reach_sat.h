// SAT(X(↓,↓*,∪)) in PTIME — the reach(p',A) dynamic program of Theorem 4.1,
// including the witness-tree construction Tree(p, D).
//
// Works directly on arbitrary DTDs: the DTD-graph edge (A,B) is present iff
// some word of L(P(A)) contains B with every symbol terminating, which is the
// exact condition for B to appear as a child of an A element in a conforming
// tree.
#ifndef XPATHSAT_SAT_REACH_SAT_H_
#define XPATHSAT_SAT_REACH_SAT_H_

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xpath/ast.h"

namespace xpathsat {

/// Decides satisfiability of (p, D) for p in X(↓,↓*,∪) (no qualifiers, no
/// data values, no upward or sibling axes). O(|p| · |D|²) over the compiled
/// label graph. Returns an error if p is outside the fragment. Produces the
/// Tree(p, D) witness on kSat unless `build_witness` is false (the
/// realization costs more than the reach DP; verdict-only callers skip it).
/// Thread-safe for concurrent calls sharing one CompiledDtd.
Result<SatDecision> ReachSat(const PathExpr& p, const CompiledDtd& compiled,
                             bool build_witness = true);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_REACH_SAT_H_
