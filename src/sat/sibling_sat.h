// SAT(X(→,←)) in PTIME (Theorem 7.1): queries of the form
// A1/η1/A2/η2/.../An/ηn where each Ai is a downward step (label or wildcard)
// and each ηi a sequence of immediate-sibling moves.
//
// For a fixed children word, a sequence of ←/→ moves is determined by its
// prefix-sum profile (positions move by ±1 and must stay inside the word), so
// feasibility per level reduces to an NFA pattern query on the Glushkov
// automaton M_A of P(A): does an accepted word exist with the entered child at
// position i, the landing child at position i+net, at least max(0,−min)
// symbols before and max(0,max−net) after? The decision procedure chains these
// checks level by level, exactly as in the proof of Theorem 7.1.
#ifndef XPATHSAT_SAT_SIBLING_SAT_H_
#define XPATHSAT_SAT_SIBLING_SAT_H_

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xpath/ast.h"

namespace xpathsat {

/// Decides (p, D) for p in X(→,←) extended with wildcard downward steps,
/// over the compiled content-model automata. Returns an error if p is
/// outside the fragment. Thread-safe for concurrent calls sharing one
/// CompiledDtd.
Result<SatDecision> SiblingChainSat(const PathExpr& p,
                                    const CompiledDtd& compiled);

}  // namespace xpathsat

#endif  // XPATHSAT_SAT_SIBLING_SAT_H_
