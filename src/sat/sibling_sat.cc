#include "src/sat/sibling_sat.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/automata/nfa.h"

namespace xpathsat {

namespace {

// One level of the chain: a downward step followed by sibling moves.
struct Group {
  bool any_label = false;  // wildcard ↓
  std::string label;       // when !any_label
  std::vector<int> moves;  // +1 for →, -1 for ←
};

bool Flatten(const PathExpr& p, std::vector<const PathExpr*>* steps) {
  switch (p.kind) {
    case PathKind::kSeq:
      return Flatten(*p.lhs, steps) && Flatten(*p.rhs, steps);
    case PathKind::kEmpty:
    case PathKind::kLabel:
    case PathKind::kChildAny:
    case PathKind::kRightSib:
    case PathKind::kLeftSib:
      steps->push_back(&p);
      return true;
    default:
      return false;
  }
}

// Splits the step list into groups. Returns false if a sibling move occurs
// before the first downward step (the root has no siblings -> unsat), which
// is reported via *root_sibling.
bool MakeGroups(const std::vector<const PathExpr*>& steps,
                std::vector<Group>* groups, bool* root_sibling) {
  *root_sibling = false;
  for (const PathExpr* s : steps) {
    switch (s->kind) {
      case PathKind::kEmpty:
        break;
      case PathKind::kLabel: {
        Group g;
        g.label = s->label;
        groups->push_back(std::move(g));
        break;
      }
      case PathKind::kChildAny: {
        Group g;
        g.any_label = true;
        groups->push_back(std::move(g));
        break;
      }
      case PathKind::kRightSib:
      case PathKind::kLeftSib: {
        if (groups->empty()) {
          *root_sibling = true;
          return true;
        }
        groups->back().moves.push_back(s->kind == PathKind::kRightSib ? 1 : -1);
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

// The level-by-level chain check over the compiled terminating-restricted
// Glushkov automata (possibly shared across threads — the memo is
// solver-local).
class SiblingSolver {
 public:
  SiblingSolver(const CompiledDtd& compiled, const std::vector<Group>& groups)
      : dtd_(compiled.dtd),
        groups_(groups),
        graph_(compiled.graph),
        nfas_(compiled.content_nfas) {}

  bool Solve() {
    if (!graph_.IsTerminating(dtd_.root())) return false;
    return SatFrom(0, dtd_.root());
  }

 private:
  // sat(p_i..., A): can groups i.. be realized below an A element?
  bool SatFrom(size_t i, const std::string& a) {
    if (i == groups_.size()) return true;
    auto key = std::make_pair(i, a);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    memo_[key] = false;  // cut cycles conservatively (re-entered level)
    const Group& g = groups_[i];
    bool last = (i + 1 == groups_.size());
    bool ok = false;
    if (last && g.moves.empty()) {
      ok = LevelFeasible(a, g, /*landing=*/nullptr);
    } else if (last) {
      ok = LevelFeasible(a, g, nullptr);
    } else {
      for (const auto& t : dtd_.types()) {
        if (!graph_.IsTerminating(t.name)) continue;
        if (LevelFeasible(a, g, &t.name) && SatFrom(i + 1, t.name)) {
          ok = true;
          break;
        }
      }
    }
    return memo_[key] = ok;
  }

  // Subset image under one arbitrary symbol.
  std::set<int> StepAny(const Nfa& nfa, const std::set<int>& s) const {
    std::set<int> out;
    for (int q : s) {
      for (const auto& [sym, t] : nfa.trans[q]) {
        (void)sym;
        out.insert(t);
      }
    }
    return out;
  }

  // Reachability closure under arbitrary symbols.
  std::set<int> CloseAny(const Nfa& nfa, std::set<int> s) const {
    std::vector<int> stack(s.begin(), s.end());
    while (!stack.empty()) {
      int q = stack.back();
      stack.pop_back();
      for (const auto& [sym, t] : nfa.trans[q]) {
        (void)sym;
        if (s.insert(t).second) stack.push_back(t);
      }
    }
    return s;
  }

  // Transition on a constrained symbol: the entered child (label or any) or
  // the landing type.
  std::set<int> StepMarker(const Nfa& nfa, const std::set<int>& s,
                           const std::string* required) const {
    std::set<int> out;
    for (int q : s) {
      for (const auto& [sym, t] : nfa.trans[q]) {
        if (required == nullptr || sym == *required) out.insert(t);
      }
    }
    return out;
  }

  // Is there an accepted word of P(a) realizing group g with the landing
  // child of type *landing (nullptr = unconstrained)?
  bool LevelFeasible(const std::string& a, const Group& g,
                     const std::string* landing) {
    auto nit = nfas_.find(a);
    if (nit == nfas_.end()) return false;
    const Nfa& nfa = nit->second;
    // Prefix-sum profile of the moves.
    int sum = 0, mn = 0, mx = 0;
    for (int m : g.moves) {
      sum += m;
      mn = std::min(mn, sum);
      mx = std::max(mx, sum);
    }
    const std::string* entered = g.any_label ? nullptr : &g.label;
    int net = sum;

    // Marker order along the word and segment lengths.
    const std::string* first_marker;
    const std::string* second_marker;
    int pre, mid, post;
    bool single_marker = false;
    if (net == 0) {
      // Landing position equals the entered position.
      if (landing != nullptr && entered != nullptr && *landing != *entered) {
        return false;
      }
      const std::string* both =
          entered != nullptr ? entered : landing;  // most constrained
      first_marker = both;
      second_marker = nullptr;
      single_marker = true;
      pre = std::max(0, -mn);
      mid = 0;
      post = std::max(0, mx);
    } else if (net > 0) {
      first_marker = entered;
      second_marker = landing;
      pre = std::max(0, -mn);
      mid = net - 1;
      post = std::max(0, mx - net);
    } else {
      first_marker = landing;
      second_marker = entered;
      pre = std::max(0, net - mn);
      mid = -net - 1;
      post = std::max(0, mx);
    }

    std::set<int> s = {nfa.start};
    for (int k = 0; k < pre; ++k) {
      s = StepAny(nfa, s);
      if (s.empty()) return false;
    }
    s = CloseAny(nfa, s);  // "at least pre" symbols before
    s = StepMarker(nfa, s, first_marker);
    if (s.empty()) return false;
    if (!single_marker) {
      for (int k = 0; k < mid; ++k) {
        s = StepAny(nfa, s);
        if (s.empty()) return false;
      }
      s = StepMarker(nfa, s, second_marker);
      if (s.empty()) return false;
    }
    for (int k = 0; k < post; ++k) {
      s = StepAny(nfa, s);
      if (s.empty()) return false;
    }
    s = CloseAny(nfa, s);  // "at least post" symbols after
    for (int q : s) {
      if (nfa.accepting[q]) return true;
    }
    return false;
  }

  const Dtd& dtd_;
  const std::vector<Group>& groups_;
  const LabelGraph& graph_;
  const std::map<std::string, Nfa>& nfas_;
  std::map<std::pair<size_t, std::string>, bool> memo_;
};

}  // namespace

Result<SatDecision> SiblingChainSat(const PathExpr& p,
                                    const CompiledDtd& compiled) {
  std::vector<const PathExpr*> steps;
  std::vector<Group> groups;
  bool root_sibling = false;
  if (!Flatten(p, &steps) || !MakeGroups(steps, &groups, &root_sibling)) {
    return Result<SatDecision>::Error(
        "query outside X(sib): only label, wildcard, ->, <- steps allowed by "
        "the Thm 7.1 procedure");
  }
  if (root_sibling) {
    return SatDecision::Unsat("sibling move at the root (Thm 7.1)");
  }
  if (SiblingSolver(compiled, groups).Solve()) {
    return SatDecision::SatNoWitness("Thm 7.1 NFA chain procedure");
  }
  return SatDecision::Unsat("Thm 7.1 NFA chain procedure");
}

}  // namespace xpathsat
