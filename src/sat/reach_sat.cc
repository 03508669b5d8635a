#include "src/sat/reach_sat.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

constexpr size_t kUnset = SIZE_MAX;

// The per-query DP over a (possibly shared, immutable) compiled DTD. All
// mutable state is solver-local so concurrent solvers can share one graph.
class ReachSolver {
 public:
  ReachSolver(const PathExpr& p, const CompiledDtd& compiled)
      : p_(p),
        dtd_(compiled.dtd),
        graph_(compiled.graph),
        min_sizes_(compiled.min_sizes),
        table_(compiled.graph, p) {}

  SatDecision Solve(bool build_witness) {
    const int root = graph_.Id(dtd_.root());
    if (root < 0 || !LabelGraph::Test(graph_.terminating.data(), root)) {
      return SatDecision::Unsat("root element type is nonterminating");
    }
    const int target = graph_.Next(table_.Reach(&p_, root), 0);
    if (target < 0) return SatDecision::Unsat("reach(p, r) is empty");
    if (!build_witness) {
      return SatDecision::SatNoWitness("Thm 4.1 reach DP (witness skipped)");
    }
    // Build Tree(p, D): realize a path to the least B in reach(p, r).
    std::vector<int> chain;
    BuildPath(&p_, root, target, &chain);
    XmlTree tree = RealizeChain(chain);
    return SatDecision::Sat(std::move(tree), "Thm 4.1 reach DP");
  }

 private:
  bool Reaches(const PathExpr* p, int a, int b) {
    return LabelGraph::Test(table_.Reach(p, a), b);
  }

  // path(p, A, B) of the Thm 4.1 proof: labels of a chain from A to B.
  void BuildPath(const PathExpr* p, int a, int b, std::vector<int>* out) {
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
        std::vector<int> pred(graph_.names.size(), -1);
        std::vector<int> queue = {a};
        pred[a] = a;
        for (size_t i = 0; i < queue.size() && queue[i] != b; ++i) {
          const uint64_t* edges = graph_.Edges(queue[i]);
          for (int c = 0; (c = graph_.Next(edges, c)) >= 0; ++c) {
            if (pred[c] < 0) {
              pred[c] = queue[i];
              queue.push_back(c);
            }
          }
        }
        std::vector<int> rev;
        for (int cur = b; cur != a; cur = pred[cur]) rev.push_back(cur);
        out->insert(out->end(), rev.rbegin(), rev.rend());
        return;
      }
      case PathKind::kUnion: {
        BuildPath(Reaches(p->lhs.get(), a, b) ? p->lhs.get() : p->rhs.get(),
                  a, b, out);
        return;
      }
      case PathKind::kSeq: {
        // Midpoints in id order; the lhs row is re-read after each probe,
        // which may grow the table.
        for (int c = 0;
             (c = graph_.Next(table_.Reach(p->lhs.get(), a), c)) >= 0; ++c) {
          if (Reaches(p->rhs.get(), c, b)) {
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
  XmlTree RealizeChain(const std::vector<int>& chain) {
    XmlTree tree;
    NodeId cur = tree.CreateRoot(dtd_.root());
    std::vector<NodeId> pending;  // nodes needing minimal expansion
    for (int id : chain) {
      const std::string& next = graph_.names[id];
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

ReachTable::ReachTable(const LabelGraph& graph, const PathExpr& query)
    : graph_(graph) {
  // A node takes a block of names.size() slots on first use. Reserving
  // every block up front keeps the tables from being copied as they grow,
  // which on deep queries cost more than the DP itself.
  const size_t slots = static_cast<size_t>(query.Size()) * graph.names.size();
  reach_.reserve(slots);
  sat_.reserve(slots);
}

template <typename T>
size_t ReachTable::Slot(const void* node, int a, std::vector<T>* table,
                        T unset) {
  auto [it, fresh] = base_.try_emplace(node, table->size());
  if (fresh) table->resize(table->size() + graph_.names.size(), unset);
  return it->second + static_cast<size_t>(a);
}

size_t ReachTable::Row(const PathExpr* p, int a) {
  const size_t slot = Slot(p, a, &reach_, kUnset);
  if (reach_[slot] != kUnset) return reach_[slot];
  // Rows are addressed by offset: the recursive calls below grow rows_.
  const size_t out = rows_.size();
  rows_.resize(out + graph_.words, 0);
  auto or_into_out = [&](const uint64_t* row) {
    for (size_t w = 0; w < graph_.words; ++w) rows_[out + w] |= row[w];
  };
  if (LabelGraph::Test(graph_.terminating.data(), a)) {
    switch (p->kind) {
      case PathKind::kEmpty:
        LabelGraph::Set(&rows_[out], a);
        break;
      case PathKind::kLabel: {
        const int b = graph_.Id(p->label);
        if (b >= 0 && LabelGraph::Test(graph_.Edges(a), b)) {
          LabelGraph::Set(&rows_[out], b);
        }
        break;
      }
      case PathKind::kChildAny:
        or_into_out(graph_.Edges(a));
        break;
      case PathKind::kDescOrSelf:
        or_into_out(graph_.Closure(a));
        break;
      case PathKind::kUnion:
        or_into_out(Reach(p->lhs.get(), a));
        or_into_out(Reach(p->rhs.get(), a));
        break;
      case PathKind::kSeq:
      case PathKind::kFilter: {
        const size_t mid = Row(p->lhs.get(), a);
        for (int b = 0; (b = graph_.Next(&rows_[mid], b)) >= 0; ++b) {
          if (p->kind == PathKind::kSeq) {
            or_into_out(Reach(p->rhs.get(), b));
          } else if (Sat(p->qual.get(), b)) {
            LabelGraph::Set(&rows_[out], b);
          }
        }
        break;
      }
      default:
        break;
    }
  }
  reach_[slot] = out;
  return out;
}

bool ReachTable::Sat(const Qualifier* q, int a) {
  const size_t slot = Slot(q, a, &sat_, int8_t{-1});
  if (sat_[slot] >= 0) return sat_[slot] != 0;
  bool v = false;
  switch (q->kind) {
    case QualKind::kPath:
      v = graph_.Next(Reach(q->path.get(), a), 0) >= 0;
      break;
    case QualKind::kLabelTest:
      v = graph_.names[a] == q->label;
      break;
    case QualKind::kAnd:
      v = Sat(q->q1.get(), a) && Sat(q->q2.get(), a);
      break;
    case QualKind::kOr:
      v = Sat(q->q1.get(), a) || Sat(q->q2.get(), a);
      break;
    default:
      break;
  }
  sat_[slot] = v ? 1 : 0;
  return v;
}

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
