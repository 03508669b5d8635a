#include "src/sat/djfree_sat.h"

#include <map>

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

// reach/sat dynamic program over a normalized disjunction-free DTD whose
// label graph is precomputed (and possibly shared across threads — all
// mutable memo state is solver-local).
class DjFreeSolver {
 public:
  DjFreeSolver(const Dtd& dtd, const LabelGraph& graph)
      : dtd_(dtd), graph_(graph) {}

  bool Decide(const PathExpr& p) { return !Reach(&p, dtd_.root()).empty(); }

  const std::set<std::string>& Reach(const PathExpr* p, const std::string& a) {
    auto key = std::make_pair(static_cast<const void*>(p), a);
    auto it = reach_.find(key);
    if (it != reach_.end()) return it->second;
    std::set<std::string> r;
    if (graph_.terminating.count(a)) {
      switch (p->kind) {
        case PathKind::kEmpty:
          r = {a};
          break;
        case PathKind::kLabel:
          if (graph_.Edges(a).count(p->label)) r = {p->label};
          break;
        case PathKind::kChildAny:
          r = graph_.Edges(a);
          break;
        case PathKind::kDescOrSelf:
          r = graph_.Closure(a);
          break;
        case PathKind::kSeq:
          for (const auto& b : Reach(p->lhs.get(), a)) {
            const auto& r2 = Reach(p->rhs.get(), b);
            r.insert(r2.begin(), r2.end());
          }
          break;
        case PathKind::kUnion: {
          r = Reach(p->lhs.get(), a);
          const auto& r2 = Reach(p->rhs.get(), a);
          r.insert(r2.begin(), r2.end());
          break;
        }
        case PathKind::kFilter:
          for (const auto& b : Reach(p->lhs.get(), a)) {
            if (Sat(p->qual.get(), b)) r.insert(b);
          }
          break;
        default:
          break;
      }
    }
    return reach_[key] = std::move(r);
  }

  bool Sat(const Qualifier* q, const std::string& a) {
    auto key = std::make_pair(static_cast<const void*>(q), a);
    auto it = sat_.find(key);
    if (it != sat_.end()) return it->second;
    bool v = false;
    switch (q->kind) {
      case QualKind::kPath:
        v = !Reach(q->path.get(), a).empty();
        break;
      case QualKind::kLabelTest:
        v = (q->label == a);
        break;
      case QualKind::kAnd:
        // Decomposition is sound for normalized disjunction-free DTDs.
        v = Sat(q->q1.get(), a) && Sat(q->q2.get(), a);
        break;
      case QualKind::kOr:
        v = Sat(q->q1.get(), a) || Sat(q->q2.get(), a);
        break;
      default:
        v = false;
    }
    return sat_[key] = v;
  }

 private:
  const Dtd& dtd_;
  const LabelGraph& graph_;
  std::map<std::pair<const void*, std::string>, std::set<std::string>> reach_;
  std::map<std::pair<const void*, std::string>, bool> sat_;
};

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
  DjFreeSolver solver(compiled.norm.dtd, compiled.norm_graph);
  if (solver.Decide(*fp.value())) {
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
