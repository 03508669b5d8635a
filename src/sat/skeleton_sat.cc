#include "src/sat/skeleton_sat.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/xml/generator.h"
#include "src/xml/normalize.h"
#include "src/xpath/evaluator.h"

namespace xpathsat {

namespace {

bool PathPositive(const PathExpr& p);

bool QualPositive(const Qualifier& q) {
  switch (q.kind) {
    case QualKind::kPath:
      return PathPositive(*q.path);
    case QualKind::kLabelTest:
      return true;
    case QualKind::kAttrCmpConst:
      return PathPositive(*q.path);
    case QualKind::kAttrJoin:
      return PathPositive(*q.path) && PathPositive(*q.path2);
    case QualKind::kAnd:
    case QualKind::kOr:
      return QualPositive(*q.q1) && QualPositive(*q.q2);
    case QualKind::kNot:
      return false;
  }
  return false;
}

bool PathPositive(const PathExpr& p) {
  switch (p.kind) {
    case PathKind::kRightSib:
    case PathKind::kLeftSib:
    case PathKind::kRightSibStar:
    case PathKind::kLeftSibStar:
      return false;
    case PathKind::kSeq:
    case PathKind::kUnion:
      return PathPositive(*p.lhs) && PathPositive(*p.rhs);
    case PathKind::kFilter:
      return PathPositive(*p.lhs) && QualPositive(*p.qual);
    default:
      return true;
  }
}

// Shape of a normalized production.
enum class ProdKind { kEps, kConcat, kUnion, kStar };

struct ProdInfo {
  ProdKind kind = ProdKind::kEps;
  std::vector<std::string> word;     // kConcat: the fixed children word
  std::vector<std::string> members;  // kUnion: the choices
  std::string star_sym;              // kStar
  std::vector<std::string> child_symbols;  // all usable (terminating) symbols
};

// A node of the partial witness tree.
struct WNode {
  std::string label;
  int parent = -1;
  int depth = 0;
  std::vector<int> concat_kids;  // kConcat: per word position, -1 = missing
  int union_kid = -1;            // kUnion
  std::vector<int> star_kids;    // kStar
};

// Recorded data-value constraint between attribute slots / constants.
struct DataCmp {
  int node1;
  std::string attr1;
  CmpOp op;
  bool vs_const = false;
  int node2 = -1;
  std::string attr2;
  std::string constant;
};

enum class TrailOp { kNewNode, kSetConcat, kSetUnion, kPushStar, kPushCmp };

struct TrailEntry {
  TrailOp op;
  int node = -1;
  int index = -1;
};

class SkeletonSearch {
 public:
  SkeletonSearch(const PathExpr& p, const Dtd& norm_dtd,
                 const std::set<std::string>& new_types,
                 const SkeletonSatOptions& options)
      : p_(p), dtd_(norm_dtd), options_(options) {
    (void)new_types;
    term_sizes_ = MinimalExpansionSizes(norm_dtd);
    for (const auto& t : norm_dtd.types()) {
      ProdInfo info;
      const Regex& re = t.content;
      switch (re.kind()) {
        case Regex::Kind::kEpsilon:
          info.kind = ProdKind::kEps;
          break;
        case Regex::Kind::kSymbol:
          info.kind = ProdKind::kConcat;
          info.word = {re.symbol()};
          break;
        case Regex::Kind::kConcat:
          info.kind = ProdKind::kConcat;
          for (const Regex& c : re.children()) info.word.push_back(c.symbol());
          break;
        case Regex::Kind::kUnion:
          info.kind = ProdKind::kUnion;
          for (const Regex& c : re.children()) {
            if (term_sizes_.count(c.symbol())) {
              info.members.push_back(c.symbol());
            }
          }
          break;
        case Regex::Kind::kStar:
          info.kind = ProdKind::kStar;
          info.star_sym = re.children()[0].symbol();
          break;
      }
      std::set<std::string> syms;
      re.CollectSymbols(&syms);
      for (const auto& s : syms) {
        if (term_sizes_.count(s)) info.child_symbols.push_back(s);
      }
      prods_[t.name] = std::move(info);
    }
  }

  SatDecision Run() {
    if (!term_sizes_.count(dtd_.root())) {
      return SatDecision::Unsat("root element type is nonterminating");
    }
    NewNode(dtd_.root(), -1);
    bool found = NavPath(p_, 0, [this]() { return DataConsistent(); });
    if (steps_exceeded_) {
      return SatDecision::Unknown("skeleton search step cap reached");
    }
    if (!found) return SatDecision::Unsat("witness space exhausted (Thm 4.4)");
    XmlTree tree = Materialize();
    return SatDecision::Sat(std::move(tree), "Thm 4.4 witness-skeleton search");
  }

 private:
  using Cont = std::function<bool()>;
  using NodeCont = std::function<bool(int)>;

  bool Budget() {
    if (++steps_ > options_.max_steps) {
      steps_exceeded_ = true;
      return false;
    }
    return true;
  }

  // ---- witness-tree mutation with trail-based undo ----

  int NewNode(const std::string& label, int parent) {
    WNode n;
    n.label = label;
    n.parent = parent;
    n.depth = parent < 0 ? 0 : nodes_[parent].depth + 1;
    const ProdInfo& info = prods_[label];
    if (info.kind == ProdKind::kConcat) {
      n.concat_kids.assign(info.word.size(), -1);
    }
    nodes_.push_back(std::move(n));
    trail_.push_back({TrailOp::kNewNode, static_cast<int>(nodes_.size()) - 1, 0});
    return static_cast<int>(nodes_.size()) - 1;
  }

  size_t Mark() const { return trail_.size(); }

  void Unwind(size_t mark) {
    while (trail_.size() > mark) {
      TrailEntry e = trail_.back();
      trail_.pop_back();
      switch (e.op) {
        case TrailOp::kNewNode:
          nodes_.pop_back();
          break;
        case TrailOp::kSetConcat:
          nodes_[e.node].concat_kids[e.index] = -1;
          break;
        case TrailOp::kSetUnion:
          nodes_[e.node].union_kid = -1;
          break;
        case TrailOp::kPushStar:
          nodes_[e.node].star_kids.pop_back();
          break;
        case TrailOp::kPushCmp:
          cmps_.pop_back();
          break;
      }
    }
  }

  // Enumerates candidate children of `u` with the given symbol (empty string
  // = any symbol): existing children first, then creations. `k` is invoked
  // with the child node id; returning true stops (success propagates).
  bool ForEachChild(int u, const std::string& sym, const NodeCont& k) {
    if (static_cast<int>(nodes_.size()) > max_nodes_) return false;
    const ProdInfo& info = prods_[nodes_[u].label];
    switch (info.kind) {
      case ProdKind::kEps:
        return false;
      case ProdKind::kConcat: {
        // Existing slots.
        for (size_t i = 0; i < info.word.size(); ++i) {
          int kid = nodes_[u].concat_kids[i];
          if (kid >= 0 && (sym.empty() || info.word[i] == sym)) {
            if (k(kid)) return true;
          }
        }
        // Creations.
        for (size_t i = 0; i < info.word.size(); ++i) {
          if (nodes_[u].concat_kids[i] >= 0) continue;
          if (!sym.empty() && info.word[i] != sym) continue;
          if (!term_sizes_.count(info.word[i])) continue;
          size_t mark = Mark();
          int kid = NewNode(info.word[i], u);
          nodes_[u].concat_kids[i] = kid;
          trail_.push_back({TrailOp::kSetConcat, u, static_cast<int>(i)});
          if (k(kid)) return true;
          Unwind(mark);
          // Creating at a later identical slot is symmetric; stop after the
          // first free slot per symbol.
          if (sym.empty()) continue;
          break;
        }
        return false;
      }
      case ProdKind::kUnion: {
        int kid = nodes_[u].union_kid;
        if (kid >= 0) {
          if (sym.empty() || nodes_[kid].label == sym) {
            if (k(kid)) return true;
          }
          return false;  // a union node has exactly one child
        }
        for (const auto& m : info.members) {
          if (!sym.empty() && m != sym) continue;
          size_t mark = Mark();
          int nk = NewNode(m, u);
          nodes_[u].union_kid = nk;
          trail_.push_back({TrailOp::kSetUnion, u, 0});
          if (k(nk)) return true;
          Unwind(mark);
        }
        return false;
      }
      case ProdKind::kStar: {
        if (!sym.empty() && info.star_sym != sym) return false;
        if (!term_sizes_.count(info.star_sym)) return false;
        for (int kid : nodes_[u].star_kids) {
          if (k(kid)) return true;
        }
        size_t mark = Mark();
        int nk = NewNode(info.star_sym, u);
        nodes_[u].star_kids.push_back(nk);
        trail_.push_back({TrailOp::kPushStar, u, 0});
        if (k(nk)) return true;
        Unwind(mark);
        return false;
      }
    }
    return false;
  }

  // ---- navigation (CPS with backtracking) ----

  bool NavPath(const PathExpr& p, int from, const Cont& k) {
    if (!Budget()) return false;
    switch (p.kind) {
      case PathKind::kEmpty:
        return NavAt(from, k);  // the continuation reads the cursor
      case PathKind::kLabel:
        return ForEachChild(from, p.label, [&](int kid) {
          (void)kid;
          return NavAt(kid, k);
        });
      case PathKind::kChildAny:
        return ForEachChild(from, "", [&](int kid) { return NavAt(kid, k); });
      case PathKind::kDescOrSelf:
        return NavDescend(from, 0, {}, k);
      case PathKind::kParent: {
        int par = nodes_[from].parent;
        if (par < 0) return false;
        return NavAt(par, k);
      }
      case PathKind::kAncOrSelf: {
        for (int cur = from; cur >= 0; cur = nodes_[cur].parent) {
          size_t mark = Mark();
          if (NavAt(cur, k)) return true;
          Unwind(mark);
        }
        return false;
      }
      case PathKind::kSeq:
        return NavPath(*p.lhs, from,
                       [&]() { return NavPathAtCursor(*p.rhs, k); });
      case PathKind::kUnion: {
        size_t mark = Mark();
        if (NavPath(*p.lhs, from, k)) return true;
        Unwind(mark);
        return NavPath(*p.rhs, from, k);
      }
      case PathKind::kFilter:
        return NavPath(*p.lhs, from, [&]() {
          int at = cursor_;
          return CheckQual(*p.qual, at, k);
        });
      default:
        return false;  // sibling axes rejected earlier
    }
  }

  // The CPS needs the endpoint of the previous step; we thread it through a
  // cursor member set by NavAt.
  bool NavAt(int node, const Cont& k) {
    int saved = cursor_;
    cursor_ = node;
    bool r = k();
    if (!r) cursor_ = saved;
    return r;
  }

  bool NavPathAtCursor(const PathExpr& p, const Cont& k) {
    return NavPath(p, cursor_, k);
  }

  // ↓* descent: visit `from` itself, then children chains. `chain_counts`
  // tracks per-label occurrences along this connecting chain (shortcut
  // bound).
  bool NavDescend(int from, int len, std::map<std::string, int> chain_counts,
                  const Cont& k) {
    if (!Budget()) return false;
    size_t mark = Mark();
    if (NavAt(from, k)) return true;
    Unwind(mark);
    if (len >= max_desc_len_) return false;
    return ForEachChild(from, "", [&](int kid) {
      const std::string& lab = nodes_[kid].label;
      auto counts = chain_counts;
      if (++counts[lab] > options_.desc_repeat_cap) return false;
      return NavDescend(kid, len + 1, std::move(counts), k);
    });
  }

  bool CheckQual(const Qualifier& q, int at, const Cont& k) {
    if (!Budget()) return false;
    switch (q.kind) {
      case QualKind::kPath:
        // The endpoint inside the qualifier is existential; restore the
        // cursor for the continuation.
        return NavPath(*q.path, at, [&]() { return NavAt(at, k); });
      case QualKind::kLabelTest:
        return nodes_[at].label == q.label && k();
      case QualKind::kAttrCmpConst:
        return NavPath(*q.path, at, [&]() {
          int end = cursor_;
          if (!HasAttr(end, q.attr)) return false;
          size_t mark = Mark();
          DataCmp c;
          c.node1 = end;
          c.attr1 = q.attr;
          c.op = q.op;
          c.vs_const = true;
          c.constant = q.constant;
          cmps_.push_back(std::move(c));
          trail_.push_back({TrailOp::kPushCmp, 0, 0});
          // Incremental pruning: an inconsistent partial constraint set can
          // never be completed.
          if (DataConsistent() && NavAt(at, k)) return true;
          Unwind(mark);
          return false;
        });
      case QualKind::kAttrJoin:
        return NavPath(*q.path, at, [&]() {
          int end1 = cursor_;
          if (!HasAttr(end1, q.attr)) return false;
          return NavPath(*q.path2, at, [&]() {
            int end2 = cursor_;
            if (!HasAttr(end2, q.attr2)) return false;
            size_t mark = Mark();
            DataCmp c;
            c.node1 = end1;
            c.attr1 = q.attr;
            c.op = q.op;
            c.node2 = end2;
            c.attr2 = q.attr2;
            cmps_.push_back(std::move(c));
            trail_.push_back({TrailOp::kPushCmp, 0, 0});
            if (DataConsistent() && NavAt(at, k)) return true;
            Unwind(mark);
            return false;
          });
        });
      case QualKind::kAnd:
        return CheckQual(*q.q1, at, [&]() { return CheckQual(*q.q2, at, k); });
      case QualKind::kOr: {
        size_t mark = Mark();
        if (CheckQual(*q.q1, at, k)) return true;
        Unwind(mark);
        return CheckQual(*q.q2, at, k);
      }
      case QualKind::kNot:
        return false;  // rejected by the fragment check
    }
    return false;
  }

  bool HasAttr(int node, const std::string& attr) const {
    const auto& attrs = dtd_.Attrs(nodes_[node].label);
    return std::find(attrs.begin(), attrs.end(), attr) != attrs.end();
  }

  // ---- data-value consistency (union-find over attribute slots) ----

  bool DataConsistent() {
    if (cmps_.empty()) return true;
    std::map<std::pair<int, std::string>, int> slot_ids;
    std::map<std::string, int> const_ids;
    std::vector<int> uf;
    auto make = [&]() {
      uf.push_back(static_cast<int>(uf.size()));
      return static_cast<int>(uf.size()) - 1;
    };
    std::function<int(int)> find = [&](int x) {
      while (uf[x] != x) x = uf[x] = uf[uf[x]];
      return x;
    };
    auto slot = [&](int node, const std::string& attr) {
      auto key = std::make_pair(node, attr);
      auto it = slot_ids.find(key);
      if (it != slot_ids.end()) return it->second;
      return slot_ids[key] = make();
    };
    auto cnst = [&](const std::string& c) {
      auto it = const_ids.find(c);
      if (it != const_ids.end()) return it->second;
      return const_ids[c] = make();
    };
    for (const auto& c : cmps_) {
      if (c.op != CmpOp::kEq) continue;
      int a = slot(c.node1, c.attr1);
      int b = c.vs_const ? cnst(c.constant) : slot(c.node2, c.attr2);
      uf[find(a)] = find(b);
    }
    for (const auto& c : cmps_) {
      if (c.op != CmpOp::kNeq) continue;
      int a = slot(c.node1, c.attr1);
      int b = c.vs_const ? cnst(c.constant) : slot(c.node2, c.attr2);
      if (find(a) == find(b)) return false;
    }
    std::map<int, std::string> rep_const;
    for (const auto& [c, id] : const_ids) {
      int rep = find(id);
      auto it = rep_const.find(rep);
      if (it != rep_const.end() && it->second != c) return false;
      rep_const[rep] = c;
    }
    return true;
  }

  // ---- witness materialization ----

  XmlTree Materialize() {
    XmlTree tree;
    std::vector<NodeId> ids(nodes_.size(), kNullNode);
    ids[0] = tree.CreateRoot(nodes_[0].label);
    std::function<void(int)> emit = [&](int w) {
      const WNode& n = nodes_[w];
      const ProdInfo& info = prods_[n.label];
      auto add = [&](int kid_w, const std::string& label) {
        if (kid_w >= 0) {
          ids[kid_w] = tree.AddChild(ids[w], nodes_[kid_w].label);
          emit(kid_w);
        } else {
          NodeId c = tree.AddChild(ids[w], label);
          ExpandMinimally(dtd_, &tree, c);
        }
      };
      switch (info.kind) {
        case ProdKind::kEps:
          break;
        case ProdKind::kConcat:
          for (size_t i = 0; i < info.word.size(); ++i) {
            add(n.concat_kids[i], info.word[i]);
          }
          break;
        case ProdKind::kUnion:
          if (n.union_kid >= 0) {
            add(n.union_kid, "");
          } else {
            // Minimal member.
            std::string best;
            long long best_cost = -1;
            for (const auto& m : info.members) {
              long long c = term_sizes_.at(m);
              if (best_cost < 0 || c < best_cost) {
                best_cost = c;
                best = m;
              }
            }
            add(-1, best);
          }
          break;
        case ProdKind::kStar:
          for (int kid : n.star_kids) add(kid, "");
          break;
      }
    };
    emit(0);
    // Attribute values: union-find classes get constants or fresh values.
    std::map<std::pair<int, std::string>, std::string> values;
    AssignValues(&values);
    for (size_t w = 0; w < nodes_.size(); ++w) {
      if (ids[w] == kNullNode) continue;
      for (const auto& a : dtd_.Attrs(nodes_[w].label)) {
        auto it = values.find({static_cast<int>(w), a});
        tree.SetAttr(ids[w], a, it != values.end() ? it->second : "0");
      }
    }
    return tree;
  }

  void AssignValues(std::map<std::pair<int, std::string>, std::string>* out) {
    std::map<std::pair<int, std::string>, int> slot_ids;
    std::map<std::string, int> const_ids;
    std::vector<int> uf;
    auto make = [&]() {
      uf.push_back(static_cast<int>(uf.size()));
      return static_cast<int>(uf.size()) - 1;
    };
    std::function<int(int)> find = [&](int x) {
      while (uf[x] != x) x = uf[x] = uf[uf[x]];
      return x;
    };
    auto slot = [&](int node, const std::string& attr) {
      auto key = std::make_pair(node, attr);
      auto it = slot_ids.find(key);
      if (it != slot_ids.end()) return it->second;
      return slot_ids[key] = make();
    };
    auto cnst = [&](const std::string& c) {
      auto it = const_ids.find(c);
      if (it != const_ids.end()) return it->second;
      return const_ids[c] = make();
    };
    for (const auto& c : cmps_) {
      if (c.op != CmpOp::kEq) continue;
      int a = slot(c.node1, c.attr1);
      int b = c.vs_const ? cnst(c.constant) : slot(c.node2, c.attr2);
      uf[find(a)] = find(b);
    }
    // Touch slots mentioned by inequalities so they receive values too.
    for (const auto& c : cmps_) {
      if (c.op != CmpOp::kNeq) continue;
      slot(c.node1, c.attr1);
      if (!c.vs_const) slot(c.node2, c.attr2);
    }
    std::map<int, std::string> rep_value;
    for (const auto& [c, id] : const_ids) rep_value[find(id)] = c;
    int fresh = 0;
    for (const auto& [key, id] : slot_ids) {
      int rep = find(id);
      auto it = rep_value.find(rep);
      if (it == rep_value.end()) {
        rep_value[rep] = "_v" + std::to_string(fresh++);
      }
      (*out)[key] = rep_value[rep];
    }
  }

  const PathExpr& p_;
  const Dtd& dtd_;
  SkeletonSatOptions options_;
  std::map<std::string, ProdInfo> prods_;
  std::map<std::string, long long> term_sizes_;
  std::vector<WNode> nodes_;
  std::vector<TrailEntry> trail_;
  std::vector<DataCmp> cmps_;
  int cursor_ = 0;
  long long steps_ = 0;
  bool steps_exceeded_ = false;
  int max_nodes_ = 0;
  int max_desc_len_ = 0;

 public:
  void SetBounds(int max_nodes, int max_desc_len) {
    max_nodes_ = max_nodes;
    max_desc_len_ = max_desc_len;
  }
};

}  // namespace

Result<SatDecision> SkeletonSat(const PathExpr& p, const CompiledDtd& compiled,
                                const SkeletonSatOptions& options,
                                RewriteCache* rewrites) {
  if (!PathPositive(p)) {
    return Result<SatDecision>::Error(
        "query outside the positive fragment X(down,ds,up,as,union,[],=): "
        "negation/sibling axes not supported by the Thm 4.4 procedure");
  }
  Result<std::shared_ptr<const PathExpr>> fp =
      RewriteOntoNormalForm(p, compiled, rewrites);
  if (!fp.ok()) return Result<SatDecision>::Error(fp.error());
  const NormalizedDtd& norm = compiled.norm;
  int psize = p.Size();
  int dsize = norm.dtd.Size();
  int max_nodes =
      options.max_nodes > 0 ? options.max_nodes : 4 * psize * (dsize + 1);
  // With the per-type repeat cap, a single connecting chain never needs more
  // than cap·#types steps; clamp for practicality (Lemma 4.5 gives
  // (3|p|−1)|D| in the worst case).
  int max_desc =
      options.max_desc_len > 0
          ? options.max_desc_len
          : std::min(64, options.desc_repeat_cap *
                                 static_cast<int>(norm.dtd.types().size()) +
                             2);
  SkeletonSearch search(*fp.value(), norm.dtd, norm.new_types, options);
  search.SetBounds(max_nodes, max_desc);
  SatDecision d = search.Run();
  if (d.sat() && d.witness.has_value()) {
    // The search works over N(D); hand back a witness conforming to D.
    d.witness = DenormalizeTree(*d.witness, norm);
  }
  return d;
}

}  // namespace xpathsat
