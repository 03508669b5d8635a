#include "src/sat/djfree_sat.h"

#include "src/sat/reach_sat.h"
#include "src/xpath/features.h"
#include "src/xpath/rewrites.h"

namespace xpathsat {

namespace {

bool PathInFragment(const PathExpr& p);

bool QualInFragment(const Qualifier& q) {
  switch (q.kind) {
    case QualKind::kPath:
      return PathInFragment(*q.path);
    case QualKind::kLabelTest:
      return true;
    case QualKind::kAnd:
    case QualKind::kOr:
      return QualInFragment(*q.q1) && QualInFragment(*q.q2);
    default:
      return false;  // negation / data values
  }
}

bool PathInFragment(const PathExpr& p) {
  switch (p.kind) {
    case PathKind::kEmpty:
    case PathKind::kLabel:
    case PathKind::kChildAny:
    case PathKind::kDescOrSelf:
      return true;
    case PathKind::kSeq:
    case PathKind::kUnion:
      return PathInFragment(*p.lhs) && PathInFragment(*p.rhs);
    case PathKind::kFilter:
      return PathInFragment(*p.lhs) && QualInFragment(*p.qual);
    default:
      return false;
  }
}

}  // namespace

Result<SatDecision> DisjunctionFreeSat(const PathExpr& p,
                                       const CompiledDtd& compiled,
                                       RewriteCache* rewrites) {
  if (!PathInFragment(p)) {
    return Result<SatDecision>::Error(
        "query outside X(down,ds,union,[]): negation/data/upward/sibling not "
        "supported by the Thm 6.8(1) procedure");
  }
  if (!compiled.disjunction_free) {
    return Result<SatDecision>::Error("DTD is not disjunction-free");
  }
  Result<std::shared_ptr<const PathExpr>> fp =
      RewriteOntoNormalForm(p, compiled, rewrites);
  if (!fp.ok()) return Result<SatDecision>::Error(fp.error());
  // The reach/sat DP over N(D)'s graph, where the qualifier decomposition
  // is sound.
  const LabelGraph& graph = compiled.norm_graph;
  const int root = graph.Id(compiled.norm.dtd.root());
  ReachTable table(graph, *fp.value());
  if (root >= 0 && graph.Next(table.Reach(fp.value().get(), root), 0) >= 0) {
    return SatDecision::SatNoWitness("Thm 6.8(1) reach/sat DP (normalized)");
  }
  return SatDecision::Unsat("Thm 6.8(1) reach/sat DP (normalized)");
}

Result<SatDecision> UpDownDisjunctionFreeSat(const PathExpr& p,
                                             const CompiledDtd& compiled,
                                             RewriteCache* rewrites) {
  Result<UpDownRewrite> rw = RewriteUpDownToQualifiers(p);
  if (!rw.ok()) return Result<SatDecision>::Error(rw.error());
  if (rw.value().always_unsat) {
    return SatDecision::Unsat("query ascends above the root (Thm 6.8(2))");
  }
  return DisjunctionFreeSat(*rw.value().path, compiled, rewrites);
}

}  // namespace xpathsat
