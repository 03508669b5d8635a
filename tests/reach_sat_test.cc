#include "src/sat/reach_sat.h"

#include <gtest/gtest.h>

#include "src/sat/bounded_model.h"
#include "src/xpath/evaluator.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

TEST(ReachSatTest, Example23Unsat) {
  // Paper Example 2.3: D with r -> A*, query B.
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  Result<SatDecision> r = ReachSat(*Path("B"), *cd);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().unsat());
}

TEST(ReachSatTest, SimpleSatWithWitness) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B\nA -> C + D\nB -> eps\nC -> eps\nD -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  for (const char* q : {"A", "B", "A/C", "A/D", "**/C", "A|Z", "*/*"}) {
    Result<SatDecision> r = ReachSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q;
    EXPECT_TRUE(r.value().sat()) << q;
    ASSERT_TRUE(r.value().witness.has_value()) << q;
    const XmlTree& w = *r.value().witness;
    EXPECT_TRUE(d.Validate(w).ok()) << q << ": " << w.ToString();
    EXPECT_TRUE(Satisfies(w, *Path(q))) << q << ": " << w.ToString();
  }
  for (const char* q : {"B/A", "A/C/D", "Z", "**/Z", "A/A"}) {
    Result<SatDecision> r = ReachSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q;
    EXPECT_TRUE(r.value().unsat()) << q;
  }
}

// Tree(p, D) picks the least label of reach(p, r), scans kSeq midpoints and
// breadth-first DTD-graph successors in name order. The types here are
// declared out of name order, so a decider that walked declaration order
// (or hash order) would print a different witness.
TEST(ReachSatTest, WitnessAndReasonArePinned) {
  Dtd d = ParseDtdOrDie(
      "root r\nr -> (Z + M + A)*, Q\nZ -> K\nM -> K + Y\nA -> Y*\n"
      "Y -> K + eps\nK -> eps\nQ -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  const std::pair<const char*, const char*> kPinned[] = {
      {"**/K", "<r><M><K/></M><Q/></r>"},
      {"*/*|Q", "<r><M><K/></M><Q/></r>"},
      {"**/Y/K", "<r><A><Y><K/></Y></A><Q/></r>"},
      {"**", "<r><A/><Q/></r>"},
  };
  for (const auto& [q, want] : kPinned) {
    Result<SatDecision> r = ReachSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q;
    ASSERT_TRUE(r.value().witness.has_value()) << q;
    EXPECT_EQ(r.value().note, "Thm 4.1 reach DP") << q;
    EXPECT_EQ(r.value().witness->ToString(), want) << q;
  }
  Result<SatDecision> r = ReachSat(*Path("Q/K"), *cd);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().unsat());
  EXPECT_EQ(r.value().note, "reach(p, r) is empty");
}

TEST(ReachSatTest, RecursiveDtd) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> (A + eps), B\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(ReachSat(*Path("A/A/A/B"), *cd).value().sat());
  EXPECT_TRUE(ReachSat(*Path("**/B"), *cd).value().sat());
  EXPECT_TRUE(ReachSat(*Path("**/A/B"), *cd).value().sat());
  EXPECT_TRUE(ReachSat(*Path("B"), *cd).value().unsat());  // B only under A
}

TEST(ReachSatTest, NonterminatingTypesAreUnusable) {
  // A -> A never terminates; the only conforming trees use the B branch.
  Dtd d = ParseDtdOrDie("root r\nr -> A + B\nA -> A\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(ReachSat(*Path("A"), *cd).value().unsat());
  EXPECT_TRUE(ReachSat(*Path("B"), *cd).value().sat());
}

TEST(ReachSatTest, ConcatenationForcesCoexistence) {
  // r -> A, B: both children always exist.
  Dtd d = ParseDtdOrDie("root r\nr -> A, B\nA -> eps\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(ReachSat(*Path("A"), *cd).value().sat());
  EXPECT_TRUE(ReachSat(*Path("B"), *cd).value().sat());
}

TEST(ReachSatTest, RejectsOutOfFragment) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_FALSE(ReachSat(*Path("A[B]"), *cd).ok());
  EXPECT_FALSE(ReachSat(*Path("A/^"), *cd).ok());
  EXPECT_FALSE(ReachSat(*Path("A/>"), *cd).ok());
}

class ReachVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(ReachVsOracle, AgreesWithBoundedModel) {
  Rng rng(GetParam());
  RandomPathOptions opt;
  opt.allow_filter = false;
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 8; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    auto cd = CompiledDtd::Compile(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> fast = ReachSat(*p, *cd);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    // Thm 4.1 is a PTIME decision procedure: kUnknown would silently read as
    // unsat in the agreement check below, so rule it out explicitly.
    ASSERT_NE(fast.value().verdict, SatVerdict::kUnknown) << p->ToString();
    BoundedModelOptions bounds;
    bounds.max_depth = 6;
    bounds.max_star = 2;
    bounds.max_trees = 200000;
    SatDecision slow = BoundedModelSat(*p, d, bounds);
    if (slow.verdict == SatVerdict::kUnknown) continue;
    // The oracle's bounded space may miss deep witnesses, so a fast-sat with
    // slow-unsat is only a failure if the witness fits the bounds.
    if (fast.value().sat() && slow.unsat()) {
      const XmlTree& w = *fast.value().witness;
      EXPECT_TRUE(d.Validate(w).ok());
      EXPECT_TRUE(Satisfies(w, *p));
      EXPECT_GT(w.Height(), bounds.max_depth)
          << "oracle missed a shallow witness: " << p->ToString() << "\n"
          << d.ToString();
    } else {
      EXPECT_EQ(fast.value().sat(), slow.sat())
          << p->ToString() << "\n" << d.ToString() << slow.note;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachVsOracle, ::testing::Range(1, 16));

}  // namespace
}  // namespace xpathsat
