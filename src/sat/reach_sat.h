// SAT(X(↓,↓*,∪)) in PTIME — the reach(p',A) dynamic program of Theorem 4.1,
// including the witness-tree construction Tree(p, D).
//
// Works directly on arbitrary DTDs: the DTD-graph edge (A,B) is present iff
// some word of L(P(A)) contains B with every symbol terminating, which is the
// exact condition for B to appear as a child of an A element in a conforming
// tree.
#ifndef XPATHSAT_SAT_REACH_SAT_H_
#define XPATHSAT_SAT_REACH_SAT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xpath/ast.h"

namespace xpathsat {

/// reach(p, A) of the Thm 4.1 DP, with Thm 6.8(1)'s sat(q, A) for
/// qualifiers, over one LabelGraph: an (AST node × label id) table of bitset
/// rows, each filled on first use. kSeq ORs the rows of its midpoints and
/// kDescOrSelf reads a closure row. Splitting sat([q1 ∧ q2], A) into
/// sat(q1, A) ∧ sat(q2, A) is sound only over a normalized disjunction-free
/// DTD's graph; X(↓,↓*,∪) has no qualifiers. One table per query: the graph
/// may be shared, the table may not.
class ReachTable {
 public:
  /// Sized for the nodes of `query`, the only nodes Reach and Sat take.
  ReachTable(const LabelGraph& graph, const PathExpr& query);

  /// reach(p, a) as a row of graph.words words, valid until the next call.
  const uint64_t* Reach(const PathExpr* p, int a) { return &rows_[Row(p, a)]; }
  bool Sat(const Qualifier* q, int a);

 private:
  size_t Row(const PathExpr* p, int a);  // offset of reach(p, a) in rows_
  template <typename T>
  size_t Slot(const void* node, int a, std::vector<T>* table, T unset);

  const LabelGraph& graph_;
  std::unordered_map<const void*, size_t> base_;  // AST node -> first slot
  std::vector<size_t> reach_;                     // slot -> offset in rows_
  std::vector<int8_t> sat_;                       // slot -> 0, 1 or unset
  std::vector<uint64_t> rows_;
};

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
