// CompiledDtd artifacts must be faithful to the source DTD, and every
// decider must decide the same over an artifact that is shared, cached or
// restored from a snapshot as over one compiled for a single call. The
// deciders themselves are checked against the bounded-model oracle in
// property_test and the per-decider suites.
#include <gtest/gtest.h>

#include "src/sat/compiled_dtd.h"
#include "src/sat/djfree_sat.h"
#include "src/sat/reach_sat.h"
#include "src/sat/satisfiability.h"
#include "src/sat/sibling_sat.h"
#include "src/sat/skeleton_sat.h"
#include "src/store/snapshot.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

TEST(CompiledDtdTest, FieldsMatchTheSourceDtd) {
  Dtd d = ParseDtdOrDie(
      "root r\nr -> A, B*\nA -> C*\nB -> eps\nC -> C\n"
      "attrs A: x\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_EQ(cd->fingerprint, d.Fingerprint());
  ASSERT_NE(cd->shared_dtd, nullptr);
  EXPECT_TRUE(cd->shared_dtd->EquivalentTo(d));
  EXPECT_EQ(cd->disjunction_free, d.IsDisjunctionFree());
  EXPECT_EQ(cd->graph.terminating, d.TerminatingTypes());
  // C never terminates: no NFA, no graph node, no minimal size for it.
  EXPECT_EQ(cd->content_nfas.count("C"), 0u);
  EXPECT_EQ(cd->min_sizes.count("C"), 0u);
  EXPECT_EQ(cd->content_nfas.count("r"), 1u);
  // A terminates (the star can be empty), but its only mentioned child C is
  // nonterminating, so A has no realizable edge.
  EXPECT_EQ(cd->graph.terminating.count("A"), 1u);
  EXPECT_TRUE(cd->graph.Edges("A").empty());
  EXPECT_TRUE(cd->graph.Edges("r").count("A"));
}

TEST(CompiledDtdTest, RealizableEdgesRespectNontermination) {
  // B appears in P(r) but only next to the nonterminating C in one branch;
  // the realizable edge exists because the other branch works.
  Dtd d = ParseDtdOrDie("root r\nr -> (B, C) + B\nB -> eps\nC -> C\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(cd->graph.Edges("r").count("B"));
  EXPECT_FALSE(cd->graph.Edges("r").count("C"));
  // And closure is reflexive.
  EXPECT_TRUE(cd->graph.Closure("r").count("r"));
}

// --- Artifact reuse and snapshot parity ------------------------------------
//
// The engine compiles a DTD once, shares the artifact across every query and
// thread, memoizes f(p) in a RewriteCache, and restores artifacts from
// snapshots on restart. Each decider must return the same verdict there as
// on the one-shot path: a CompiledDtd::Compile made for that single call and
// no rewrite cache.

class CompiledAgreement : public ::testing::TestWithParam<int> {};

// One schema as the engine holds it: compiled once, plus the same artifact
// after a snapshot encode/decode round trip.
struct HeldArtifacts {
  std::shared_ptr<const CompiledDtd> shared;
  std::shared_ptr<const CompiledDtd> restored;
};

HeldArtifacts Hold(const Dtd& d) {
  HeldArtifacts held;
  held.shared = CompiledDtd::Compile(d);
  Result<std::shared_ptr<const CompiledDtd>> decoded =
      store::DecodeCompiledDtdRecord(
          store::EncodeCompiledDtdRecord(*held.shared));
  EXPECT_TRUE(decoded.ok()) << decoded.error() << "\n" << d.ToString();
  held.restored = decoded.ok() ? decoded.value() : held.shared;
  return held;
}

// Asserts `held` agrees with `one_shot` on status and verdict.
void ExpectSameDecision(const Result<SatDecision>& one_shot,
                        const Result<SatDecision>& held, const char* what,
                        const PathExpr& p, const Dtd& d) {
  ASSERT_EQ(one_shot.ok(), held.ok()) << what << ": " << p.ToString();
  if (!one_shot.ok()) return;
  EXPECT_EQ(one_shot.value().verdict, held.value().verdict)
      << what << ": " << p.ToString() << "\n" << d.ToString();
}

TEST_P(CompiledAgreement, ReachSatMatchesOneShot) {
  Rng rng(GetParam() * 131 + 3);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_filter = false;
  for (int round = 0; round < 5; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    HeldArtifacts held = Hold(d);
    for (int q = 0; q < 2; ++q) {
      auto p = RandomPath(&rng, labels, 3, opt);
      Result<SatDecision> one_shot = ReachSat(*p, *CompiledDtd::Compile(d));
      ExpectSameDecision(one_shot, ReachSat(*p, *held.shared), "shared", *p,
                         d);
      ExpectSameDecision(one_shot, ReachSat(*p, *held.restored), "restored",
                         *p, d);
      if (!one_shot.ok()) continue;
      // Witness-skipping must not change the verdict either.
      Result<SatDecision> nowit =
          ReachSat(*p, *held.restored, /*build_witness=*/false);
      ExpectSameDecision(one_shot, nowit, "no witness", *p, d);
      if (nowit.ok() && nowit.value().sat()) {
        EXPECT_FALSE(nowit.value().witness.has_value());
      }
      if (one_shot.value().sat()) {
        ASSERT_TRUE(one_shot.value().witness.has_value());
        EXPECT_TRUE(d.Validate(*one_shot.value().witness).ok())
            << p->ToString() << "\n" << d.ToString();
      }
    }
  }
}

TEST_P(CompiledAgreement, SiblingChainSatMatchesOneShot) {
  Rng rng(GetParam() * 137 + 5);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 5; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    HeldArtifacts held = Hold(d);
    for (int q = 0; q < 2; ++q) {
      // Random chain in the Thm 7.1 fragment.
      std::unique_ptr<PathExpr> p;
      int levels = rng.IntIn(1, 3);
      for (int level = 0; level < levels; ++level) {
        std::unique_ptr<PathExpr> step =
            rng.Percent(30) ? PathExpr::Axis(PathKind::kChildAny)
                            : PathExpr::Label(labels[rng.Below(labels.size())]);
        p = p ? PathExpr::Seq(std::move(p), std::move(step)) : std::move(step);
        int moves = rng.IntIn(0, 2);
        for (int m = 0; m < moves; ++m) {
          p = PathExpr::Seq(
              std::move(p), PathExpr::Axis(rng.Percent(50) ? PathKind::kRightSib
                                                           : PathKind::kLeftSib));
        }
      }
      Result<SatDecision> one_shot =
          SiblingChainSat(*p, *CompiledDtd::Compile(d));
      ExpectSameDecision(one_shot, SiblingChainSat(*p, *held.shared), "shared",
                         *p, d);
      ExpectSameDecision(one_shot, SiblingChainSat(*p, *held.restored),
                         "restored", *p, d);
    }
  }
}

TEST_P(CompiledAgreement, DisjunctionFreeSatMatchesOneShot) {
  Rng rng(GetParam() * 139 + 7);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RewriteCache rewrites(64);
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    if (!d.IsDisjunctionFree()) continue;
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3);
    Result<SatDecision> one_shot =
        DisjunctionFreeSat(*p, *CompiledDtd::Compile(d));
    // The first cached call computes f(p); the second is served by the
    // cache, over the restored artifact of the same schema.
    ExpectSameDecision(one_shot, DisjunctionFreeSat(*p, *held.shared, &rewrites),
                       "shared, cache miss", *p, d);
    ExpectSameDecision(one_shot,
                       DisjunctionFreeSat(*p, *held.restored, &rewrites),
                       "restored, cache hit", *p, d);
  }
}

TEST_P(CompiledAgreement, SkeletonSatMatchesOneShot) {
  Rng rng(GetParam() * 149 + 11);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_data = true;
  RewriteCache rewrites(64);
  for (int round = 0; round < 6; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> one_shot = SkeletonSat(*p, *CompiledDtd::Compile(d));
    ExpectSameDecision(one_shot, SkeletonSat(*p, *held.shared, {}, &rewrites),
                       "shared, cache miss", *p, d);
    ExpectSameDecision(one_shot, SkeletonSat(*p, *held.restored, {}, &rewrites),
                       "restored, cache hit", *p, d);
  }
}

TEST_P(CompiledAgreement, FacadeDispatchMatchesCompiledDispatch) {
  Rng rng(GetParam() * 151 + 13);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_negation = true;
  opt.allow_sibling = true;
  // No data values here: negation+data is the undecidable fragment (Thm 5.4)
  // where the bounded oracle enumerates attribute assignments exponentially —
  // random instances can stall for minutes. Data values are swept in
  // SkeletonSatMatchesOneShot (positive fragment) instead.
  // Small bounded-model caps keep pathological negation instances fast; the
  // same caps go to both sides, so parity is still exact (possibly kUnknown
  // on both).
  SatOptions caps;
  caps.bounded_caps.max_depth = 6;
  caps.bounded_caps.max_nodes = 60;
  caps.bounded_caps.max_star = 3;
  caps.bounded_caps.max_trees = 20000;
  caps.skeleton_caps.max_steps = 50000;
  RewriteCache rewrites(64);
  for (int round = 0; round < 8; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    SatReport facade = DecideSatisfiability(*p, d, caps);
    SatReport restored =
        DecideSatisfiability(*p, *held.restored, caps, &rewrites);
    EXPECT_EQ(facade.decision.verdict, restored.decision.verdict)
        << p->ToString() << "\n" << d.ToString();
    EXPECT_EQ(facade.algorithm, restored.algorithm) << p->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledAgreement, ::testing::Range(0, 20));

}  // namespace
}  // namespace xpathsat
