#include "src/sat/reach_sat.h"

#include <map>

#include "src/sat/compiled_dtd.h"
#include "src/xml/generator.h"

namespace xpathsat {

namespace {

// True iff p lies in X(↓,↓*,∪).
bool InFragment(const PathExpr& p) {
  switch (p.kind) {
    case PathKind::kEmpty:
    case PathKind::kLabel:
    case PathKind::kChildAny:
    case PathKind::kDescOrSelf:
      return true;
    case PathKind::kSeq:
    case PathKind::kUnion:
      return InFragment(*p.lhs) && InFragment(*p.rhs);
    default:
      return false;
  }
}

using ReachTable = std::map<const PathExpr*, std::map<std::string, std::set<std::string>>>;

// The per-query DP over a (possibly shared, immutable) compiled DTD. All
// mutable state is solver-local so concurrent solvers can share one graph.
class ReachSolver {
 public:
  ReachSolver(const PathExpr& p, const CompiledDtd& compiled)
      : p_(p),
        dtd_(compiled.dtd),
        graph_(compiled.graph),
        min_sizes_(compiled.min_sizes) {}

  SatDecision Solve(bool build_witness) {
    if (!graph_.terminating.count(dtd_.root())) {
      return SatDecision::Unsat("root element type is nonterminating");
    }
    const std::set<std::string>& res = Reach(&p_, dtd_.root());
    if (res.empty()) return SatDecision::Unsat("reach(p, r) is empty");
    if (!build_witness) {
      return SatDecision::SatNoWitness("Thm 4.1 reach DP (witness skipped)");
    }
    // Build Tree(p, D): realize a path to some B in reach(p, r).
    const std::string& target = *res.begin();
    std::vector<std::string> chain;
    BuildPath(&p_, dtd_.root(), target, &chain);
    XmlTree tree = RealizeChain(chain);
    return SatDecision::Sat(std::move(tree), "Thm 4.1 reach DP");
  }

 private:
  const std::set<std::string>& Reach(const PathExpr* p, const std::string& a) {
    auto& per_type = table_[p];
    auto it = per_type.find(a);
    if (it != per_type.end()) return it->second;
    std::set<std::string> r;
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
      case PathKind::kUnion: {
        r = Reach(p->lhs.get(), a);
        const auto& r2 = Reach(p->rhs.get(), a);
        r.insert(r2.begin(), r2.end());
        break;
      }
      case PathKind::kSeq: {
        for (const auto& b : Reach(p->lhs.get(), a)) {
          const auto& r2 = Reach(p->rhs.get(), b);
          r.insert(r2.begin(), r2.end());
        }
        break;
      }
      default:
        break;
    }
    return per_type[a] = std::move(r);
  }

  // path(p, A, B) of the Thm 4.1 proof: labels of a chain from A to B.
  void BuildPath(const PathExpr* p, const std::string& a, const std::string& b,
                 std::vector<std::string>* out) {
    switch (p->kind) {
      case PathKind::kEmpty:
        return;  // a == b
      case PathKind::kLabel:
      case PathKind::kChildAny:
        out->push_back(b);
        return;
      case PathKind::kDescOrSelf: {
        // Shortest DTD-graph path from a to b (possibly empty when a == b).
        if (a == b) return;
        std::map<std::string, std::string> pred;
        std::vector<std::string> queue = {a};
        pred[a] = a;
        for (size_t i = 0; i < queue.size(); ++i) {
          std::string cur = queue[i];
          if (cur == b) break;
          for (const auto& c : graph_.Edges(cur)) {
            if (!pred.count(c)) {
              pred[c] = cur;
              queue.push_back(c);
            }
          }
        }
        std::vector<std::string> rev;
        for (std::string cur = b; cur != a; cur = pred[cur]) rev.push_back(cur);
        out->insert(out->end(), rev.rbegin(), rev.rend());
        return;
      }
      case PathKind::kUnion: {
        if (Reach(p->lhs.get(), a).count(b)) {
          BuildPath(p->lhs.get(), a, b, out);
        } else {
          BuildPath(p->rhs.get(), a, b, out);
        }
        return;
      }
      case PathKind::kSeq: {
        for (const auto& c : Reach(p->lhs.get(), a)) {
          if (Reach(p->rhs.get(), c).count(b)) {
            BuildPath(p->lhs.get(), a, c, out);
            BuildPath(p->rhs.get(), c, b, out);
            return;
          }
        }
        return;
      }
      default:
        return;
    }
  }

  // Realizes the chain below the root and completes to a conforming tree.
  XmlTree RealizeChain(const std::vector<std::string>& chain) {
    XmlTree tree;
    NodeId cur = tree.CreateRoot(dtd_.root());
    std::vector<NodeId> pending;  // nodes needing minimal expansion
    for (const auto& next : chain) {
      for (const auto& a : dtd_.Attrs(tree.label(cur))) {
        tree.SetAttr(cur, a, "0");
      }
      std::vector<std::string> word;
      int tpos = 0;
      if (!MinimalWordContaining(dtd_.Production(tree.label(cur)), next,
                                 min_sizes_, &word, &tpos)) {
        break;  // unreachable by construction; keep the tree well formed
      }
      NodeId next_node = kNullNode;
      for (size_t i = 0; i < word.size(); ++i) {
        NodeId c = tree.AddChild(cur, word[i]);
        if (static_cast<int>(i) == tpos) {
          next_node = c;
        } else {
          pending.push_back(c);
        }
      }
      cur = next_node;
    }
    pending.push_back(cur);
    for (NodeId n : pending) ExpandMinimally(dtd_, &tree, n);
    return tree;
  }

  const PathExpr& p_;
  const Dtd& dtd_;
  const LabelGraph& graph_;
  const std::map<std::string, long long>& min_sizes_;
  ReachTable table_;
};

}  // namespace

Result<SatDecision> ReachSat(const PathExpr& p, const CompiledDtd& compiled,
                             bool build_witness) {
  if (!InFragment(p)) {
    return Result<SatDecision>::Error(
        "query outside X(down,ds,union): qualifiers/upward/sibling axes not "
        "supported by the Thm 4.1 procedure");
  }
  return ReachSolver(p, compiled).Solve(build_witness);
}

}  // namespace xpathsat
