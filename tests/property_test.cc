// Cross-validation sweep: every specialized decider must agree with the
// bounded-model oracle (and with each other) on randomized small instances.
#include <gtest/gtest.h>

#include "src/sat/bounded_model.h"
#include "src/sat/djfree_sat.h"
#include "src/sat/fixed_dtd_sat.h"
#include "src/sat/reach_sat.h"
#include "src/sat/satisfiability.h"
#include "src/sat/sibling_sat.h"
#include "src/sat/skeleton_sat.h"
#include "src/xpath/evaluator.h"
#include "src/xpath/features.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

class DeciderAgreement : public ::testing::TestWithParam<int> {};

// Random query in the X(→,←) chain fragment of Thm 7.1: levels of a downward
// step (label or wildcard) followed by immediate-sibling moves.
std::unique_ptr<PathExpr> RandomSiblingChain(
    Rng* rng, const std::vector<std::string>& labels) {
  std::unique_ptr<PathExpr> p;
  int levels = rng->IntIn(1, 3);
  for (int level = 0; level < levels; ++level) {
    std::unique_ptr<PathExpr> step =
        rng->Percent(30) ? PathExpr::Axis(PathKind::kChildAny)
                         : PathExpr::Label(labels[rng->Below(labels.size())]);
    p = p ? PathExpr::Seq(std::move(p), std::move(step)) : std::move(step);
    int moves = rng->IntIn(0, 2);
    for (int m = 0; m < moves; ++m) {
      p = PathExpr::Seq(std::move(p),
                        PathExpr::Axis(rng->Percent(50) ? PathKind::kRightSib
                                                        : PathKind::kLeftSib));
    }
  }
  return p;
}

TEST_P(DeciderAgreement, ReachVsSkeletonOnQualifierFreeQueries) {
  Rng rng(GetParam() * 211);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_filter = false;
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    auto cd = CompiledDtd::Compile(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> reach = ReachSat(*p, *cd);
    ASSERT_TRUE(reach.ok());
    // Thm 4.1 is a PTIME decision procedure: no resource caps, no punting.
    EXPECT_NE(reach.value().verdict, SatVerdict::kUnknown)
        << p->ToString() << "\n" << d.ToString();
    if (reach.value().sat()) {
      // Tree(p, D) conforms to D and satisfies p.
      ASSERT_TRUE(reach.value().witness.has_value());
      EXPECT_TRUE(d.Validate(*reach.value().witness).ok())
          << p->ToString() << "\n" << d.ToString();
      EXPECT_TRUE(Satisfies(*reach.value().witness, *p))
          << p->ToString() << "\n" << reach.value().witness->ToString();
    }
    // Skipping the witness keeps the verdict and drops the tree.
    Result<SatDecision> nowit = ReachSat(*p, *cd, /*build_witness=*/false);
    ASSERT_TRUE(nowit.ok());
    EXPECT_EQ(nowit.value().verdict, reach.value().verdict);
    EXPECT_FALSE(nowit.value().witness.has_value());
    Result<SatDecision> skel = SkeletonSat(*p, *cd);
    ASSERT_TRUE(skel.ok());
    if (skel.value().verdict == SatVerdict::kUnknown) continue;
    EXPECT_EQ(reach.value().sat(), skel.value().sat())
        << p->ToString() << "\n" << d.ToString();
  }
}

TEST_P(DeciderAgreement, DjfreeVsSkeletonOnDisjunctionFreeDtds) {
  Rng rng(GetParam() * 223 + 7);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    if (!d.IsDisjunctionFree()) continue;
    auto cd = CompiledDtd::Compile(d);
    auto p = RandomPath(&rng, labels, 3);
    Result<SatDecision> fast = DisjunctionFreeSat(*p, *cd);
    ASSERT_TRUE(fast.ok());
    // Thm 6.8(1) is a PTIME decision procedure: kUnknown is a bug.
    EXPECT_NE(fast.value().verdict, SatVerdict::kUnknown)
        << p->ToString() << "\n" << d.ToString();
    Result<SatDecision> skel = SkeletonSat(*p, *cd);
    ASSERT_TRUE(skel.ok());
    if (skel.value().verdict == SatVerdict::kUnknown) continue;
    EXPECT_EQ(fast.value().sat(), skel.value().sat())
        << p->ToString() << "\n" << d.ToString();
  }
}

TEST_P(DeciderAgreement, SatAnswersComeWithValidWitnesses) {
  Rng rng(GetParam() * 239 + 11);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_data = true;
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> r = SkeletonSat(*p, *CompiledDtd::Compile(d));
    ASSERT_TRUE(r.ok()) << p->ToString();
    if (r.value().sat()) {
      ASSERT_TRUE(r.value().witness.has_value());
      EXPECT_TRUE(d.Validate(*r.value().witness).ok())
          << p->ToString() << "\n"
          << d.Validate(*r.value().witness).message() << "\n"
          << r.value().witness->ToString();
      EXPECT_TRUE(Satisfies(*r.value().witness, *p))
          << p->ToString() << "\n" << r.value().witness->ToString();
    }
  }
}

TEST_P(DeciderAgreement, OracleSatisfiableImpliesSkeletonSatisfiable) {
  // Completeness direction: whatever the bounded oracle finds, the skeleton
  // search must also find (positive fragment).
  Rng rng(GetParam() * 241 + 13);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  for (int round = 0; round < 6; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30));
    auto p = RandomPath(&rng, labels, 3, opt);
    BoundedModelOptions bounds;
    bounds.max_depth = 4;
    bounds.max_star = 2;
    bounds.max_trees = 100000;
    SatDecision oracle = BoundedModelSat(*p, d, bounds);
    if (!oracle.sat()) continue;
    Result<SatDecision> skel = SkeletonSat(*p, *CompiledDtd::Compile(d));
    ASSERT_TRUE(skel.ok());
    EXPECT_TRUE(skel.value().sat())
        << p->ToString() << "\n" << d.ToString() << "\noracle witness: "
        << oracle.witness->ToString();
  }
}

TEST_P(DeciderAgreement, SiblingChainsAgreeWithOracle) {
  Rng rng(GetParam() * 251 + 17);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 12; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30));
    auto p = RandomSiblingChain(&rng, labels);
    Result<SatDecision> fast = SiblingChainSat(*p, *CompiledDtd::Compile(d));
    ASSERT_TRUE(fast.ok()) << p->ToString();
    // Thm 7.1 is a PTIME decision procedure: kUnknown is a bug.
    ASSERT_NE(fast.value().verdict, SatVerdict::kUnknown)
        << p->ToString() << "\n" << d.ToString();
    BoundedModelOptions caps;
    caps.max_depth = 5;
    caps.max_star = 3;
    caps.max_trees = 200000;
    DerivedBounds db = DeriveBoundsChecked(*p, d, caps);
    SatDecision oracle = BoundedModelSat(*p, d, db.options);
    if (oracle.sat()) {
      EXPECT_TRUE(fast.value().sat())
          << p->ToString() << "\n" << d.ToString() << "\noracle witness: "
          << oracle.witness->ToString();
    } else if (oracle.unsat() && db.complete) {
      EXPECT_TRUE(fast.value().unsat())
          << p->ToString() << "\n" << d.ToString();
    }
  }
}

TEST_P(DeciderAgreement, FixedDtdAgreesWithOracleUnderNegation) {
  Rng rng(GetParam() * 257 + 19);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_negation = true;
  opt.allow_upward = true;
  for (int round = 0; round < 6; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    auto p = RandomPath(&rng, labels, 3, opt);
    // g = 4 matches the oracle's star cap below, so any witness the oracle
    // can enumerate fits the star-eliminated DTD and vice versa.
    FixedDtdOptions fopt;
    fopt.branch_bound = 4;
    Result<SatDecision> fast = FixedDtdSat(*p, d, fopt);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    if (fast.value().verdict == SatVerdict::kUnknown) continue;  // cap hit
    BoundedModelOptions caps;
    caps.max_depth = 6;
    caps.max_star = 4;
    caps.max_trees = 200000;
    DerivedBounds db = DeriveBoundsChecked(*p, d, caps);
    SatDecision oracle = BoundedModelSat(*p, d, db.options);
    if (oracle.sat()) {
      EXPECT_TRUE(fast.value().sat())
          << p->ToString() << "\n" << d.ToString() << "\noracle witness: "
          << oracle.witness->ToString();
    } else if (oracle.unsat() && db.complete) {
      EXPECT_TRUE(fast.value().unsat())
          << p->ToString() << "\n" << d.ToString();
    }
    if (fast.value().sat() && fast.value().witness.has_value()) {
      EXPECT_TRUE(d.Validate(*fast.value().witness).ok())
          << p->ToString() << "\n" << fast.value().witness->ToString();
      EXPECT_TRUE(Satisfies(*fast.value().witness, *p))
          << p->ToString() << "\n" << fast.value().witness->ToString();
    }
  }
}

TEST_P(DeciderAgreement, DispatchAgreesWithOracle) {
  // The full Sec. 8 dispatch on random queries from every fragment but data
  // values (negation+data is the undecidable Thm 5.4 fragment, where the
  // oracle enumerates attribute assignments exponentially). Small caps keep
  // pathological negation instances fast; a capped kUnknown is allowed.
  Rng rng(GetParam() * 263 + 23);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_negation = true;
  opt.allow_sibling = true;
  SatOptions caps;
  caps.bounded_caps.max_depth = 6;
  caps.bounded_caps.max_nodes = 60;
  caps.bounded_caps.max_star = 3;
  caps.bounded_caps.max_trees = 20000;
  caps.skeleton_caps.max_steps = 50000;
  for (int round = 0; round < 4; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    auto p = RandomPath(&rng, labels, 3, opt);
    SatReport r = DecideSatisfiability(*p, d, caps);
    DerivedBounds db = DeriveBoundsChecked(*p, d, caps.bounded_caps);
    SatDecision oracle = BoundedModelSat(*p, d, db.options);
    if (oracle.sat()) {
      EXPECT_FALSE(r.unsat())
          << r.algorithm << ": " << p->ToString() << "\n" << d.ToString()
          << "\noracle witness: " << oracle.witness->ToString();
    } else if (oracle.unsat() && db.complete) {
      EXPECT_FALSE(r.sat())
          << r.algorithm << ": " << p->ToString() << "\n" << d.ToString();
    }
    if (r.sat() && r.decision.witness.has_value()) {
      EXPECT_TRUE(d.Validate(*r.decision.witness).ok())
          << r.algorithm << ": " << p->ToString() << "\n"
          << r.decision.witness->ToString();
      EXPECT_TRUE(Satisfies(*r.decision.witness, *p))
          << r.algorithm << ": " << p->ToString() << "\n"
          << r.decision.witness->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeciderAgreement, ::testing::Range(1, 41));

}  // namespace
}  // namespace xpathsat
