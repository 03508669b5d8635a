#include "src/sat/satisfiability.h"

#include <algorithm>

#include "src/sat/cq_sat.h"
#include "src/util/hashing.h"
#include "src/sat/djfree_sat.h"
#include "src/sat/nodtd_sat.h"
#include "src/sat/reach_sat.h"
#include "src/sat/sibling_sat.h"
#include "src/sat/skeleton_sat.h"
#include "src/xpath/features.h"

namespace xpathsat {

namespace {

SatReport Report(SatDecision d, std::string algorithm) {
  SatReport r;
  r.decision = std::move(d);
  r.algorithm = std::move(algorithm);
  return r;
}

}  // namespace

uint64_t SatOptions::Digest() const {
  // Version tag: bump when fields are added/removed or the order changes so
  // stale memo entries from an older encoding can never alias a new one.
  uint64_t h = FnvHash("SatOptions/v1");
  auto fold = [&h](uint64_t v) { h = HashCombine(h, HashMix(v)); };
  fold(static_cast<uint64_t>(bounded_caps.max_depth));
  fold(static_cast<uint64_t>(bounded_caps.max_star));
  fold(static_cast<uint64_t>(bounded_caps.max_nodes));
  fold(static_cast<uint64_t>(bounded_caps.max_trees));
  fold(static_cast<uint64_t>(bounded_caps.max_fresh_values));
  fold(static_cast<uint64_t>(skeleton_caps.max_nodes));
  fold(static_cast<uint64_t>(skeleton_caps.max_desc_len));
  fold(static_cast<uint64_t>(skeleton_caps.desc_repeat_cap));
  fold(static_cast<uint64_t>(skeleton_caps.max_steps));
  fold(compute_witness ? 1u : 0u);
  return HashMix(h);
}

SatReport DecideSatisfiability(const PathExpr& p, const Dtd& dtd,
                               const SatOptions& options) {
  return DecideSatisfiability(p, *CompiledDtd::Compile(dtd), options);
}

SatReport DecideSatisfiability(const PathExpr& p, const CompiledDtd& compiled,
                               const SatOptions& options,
                               RewriteCache* rewrite_cache) {
  return DecideSatisfiability(p, DetectFeatures(p), compiled, options,
                              rewrite_cache);
}

// The Sec. 8 dispatch: the one decide path behind every entry point.
SatReport DecideSatisfiability(const PathExpr& p, const Features& f,
                               const CompiledDtd& compiled,
                               const SatOptions& options,
                               RewriteCache* rewrite_cache) {
  // X(↓,↓*,∪): Thm 4.1 (PTIME).
  if (!f.qualifier && !f.negation && !f.data_values && !f.HasUpward() &&
      !f.HasSibling()) {
    Result<SatDecision> r = ReachSat(p, compiled, options.compute_witness);
    if (r.ok()) return Report(std::move(r).value(), "reach-dp (Thm 4.1)");
  }

  // X(→,←) chains: Thm 7.1 (PTIME).
  if (!f.qualifier && !f.negation && !f.data_values && !f.HasUpward() &&
      !f.descendant && !f.union_op && !f.right_sib_star && !f.left_sib_star) {
    Result<SatDecision> r = SiblingChainSat(p, compiled);
    if (r.ok()) return Report(std::move(r).value(), "sibling-nfa (Thm 7.1)");
  }

  // Disjunction-free DTDs: Thm 6.8 (PTIME).
  if (compiled.disjunction_free && !f.negation && !f.data_values &&
      !f.HasSibling()) {
    if (!f.HasUpward()) {
      Result<SatDecision> r = DisjunctionFreeSat(p, compiled, rewrite_cache);
      if (r.ok()) return Report(std::move(r).value(), "djfree-dp (Thm 6.8(1))");
    } else if (!f.qualifier && !f.union_op && !f.HasRecursion()) {
      Result<SatDecision> r =
          UpDownDisjunctionFreeSat(p, compiled, rewrite_cache);
      if (r.ok()) {
        return Report(std::move(r).value(), "updown-rewrite (Thm 6.8(2))");
      }
    }
  }

  // Positive fragment: Thm 4.4 (NP).
  if (f.IsPositive() && !f.HasSibling()) {
    Result<SatDecision> r =
        SkeletonSat(p, compiled, options.skeleton_caps, rewrite_cache);
    if (r.ok()) return Report(std::move(r).value(), "skeleton (Thm 4.4)");
  }

  // Negation (and/or sibling axes): bounded-model search with small-model
  // bounds where the paper provides them.
  DerivedBounds bounds =
      DeriveBoundsChecked(p, compiled.dtd, options.bounded_caps);
  SatDecision d = BoundedModelSat(p, compiled.dtd, bounds.options);
  if (d.unsat() && !bounds.complete) {
    // The caps clipped the justified small-model bounds (or none applies):
    // exhausting the clipped space proves nothing.
    d.verdict = SatVerdict::kUnknown;
    d.note += "; bounded space not known to be exhaustive";
  }
  return Report(std::move(d), "bounded-model (Thm 5.5 / Cor 6.2 bounds)");
}

SatReport DecideSatisfiabilityNoDtd(const PathExpr& p,
                                    const SatOptions& options) {
  Features f = DetectFeatures(p);

  // X(↓,↓*,∪,[]): Thm 6.11(1) (PTIME; trivially sat without label tests).
  if (!f.negation && !f.data_values && !f.HasUpward() && !f.HasSibling()) {
    Result<SatDecision> r = NoDtdSat(p);
    if (r.ok()) return Report(std::move(r).value(), "nodtd-dp (Thm 6.11(1))");
  }

  // X(↓,↑,[],=): Thm 6.11(2) (PTIME).
  if (!f.negation && !f.union_op && !f.HasRecursion() && !f.HasSibling() &&
      !f.ancestor) {
    Result<SatDecision> r = CqSat(p);
    if (r.ok()) {
      return Report(std::move(r).value(), "canonical-cq (Thm 6.11(2))");
    }
  }

  // General case: Prop 3.1 universal DTDs, one per root choice. The
  // universal content model (A1+...+An)* needs no mandatory children, so a
  // width of |p| subformula witnesses suffices.
  SatOptions tight = options;
  // The universal content model (A1+...+An)* needs no mandatory children, so
  // |p| witness children per node are exhaustive; raise the star cap so the
  // derived (smaller) justified width applies with completeness.
  tight.bounded_caps.max_star =
      std::max(tight.bounded_caps.max_star, std::max(1, p.Size()));
  SatReport last;
  for (const Dtd& d : UniversalDtds(p)) {
    last = DecideSatisfiability(p, d, tight);
    if (last.sat()) {
      last.algorithm += " + universal DTD (Prop 3.1)";
      return last;
    }
    if (last.decision.verdict == SatVerdict::kUnknown) {
      last.algorithm += " + universal DTD (Prop 3.1)";
      return last;
    }
  }
  last.algorithm += " + universal DTD (Prop 3.1)";
  return last;
}

}  // namespace xpathsat
