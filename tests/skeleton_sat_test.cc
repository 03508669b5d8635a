#include "src/sat/skeleton_sat.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "src/sat/bounded_model.h"
#include "src/xpath/evaluator.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

const char* kMixedDtd =
    "root r\nr -> A, (B + C)\nA -> D*\nB -> D\nC -> eps\nD -> eps\n"
    "attrs D: v\n";

TEST(SkeletonSatTest, DownwardBasics) {
  Dtd d = ParseDtdOrDie(kMixedDtd);
  auto cd = CompiledDtd::Compile(d);
  for (const char* q : {"A", "A/D", "B/D", "C", ".[A && B]", ".[A && C]",
                        "**/D", "A[D]|Z", ".[A[D] && B[D]]"}) {
    Result<SatDecision> r = SkeletonSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q << ": " << r.error();
    EXPECT_TRUE(r.value().sat()) << q << " note: " << r.value().note;
    ASSERT_TRUE(r.value().witness.has_value()) << q;
    EXPECT_TRUE(d.Validate(*r.value().witness).ok())
        << q << ": " << d.Validate(*r.value().witness).message() << "\n"
        << r.value().witness->ToString();
    EXPECT_TRUE(Satisfies(*r.value().witness, *Path(q)))
        << q << " vs " << r.value().witness->ToString();
  }
  for (const char* q : {"Z", ".[B && C]", "A/Z", "D", "B/D/D"}) {
    Result<SatDecision> r = SkeletonSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q;
    EXPECT_TRUE(r.value().unsat()) << q << " note: " << r.value().note;
  }
}

TEST(SkeletonSatTest, DisjunctionInDtdBlocksCoexistence) {
  // B and C are exclusive siblings: .[B && C] unsat, but .[B || C] sat.
  Dtd d = ParseDtdOrDie(kMixedDtd);
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SkeletonSat(*Path(".[B && C]"), *cd).value().unsat());
  EXPECT_TRUE(SkeletonSat(*Path(".[B || C]"), *cd).value().sat());
}

TEST(SkeletonSatTest, UpwardNavigation) {
  Dtd d = ParseDtdOrDie(kMixedDtd);
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SkeletonSat(*Path("A/D/^[label()=A]"), *cd).value().sat());
  EXPECT_TRUE(SkeletonSat(*Path("A/D/^[label()=B]"), *cd).value().unsat());
  EXPECT_TRUE(SkeletonSat(*Path("A/D/^^[label()=r]/B"), *cd).value().sat());
  EXPECT_TRUE(SkeletonSat(*Path("A/^/^"), *cd).value().unsat());
  EXPECT_TRUE(SkeletonSat(*Path("B/D/^/^/A"), *cd).value().sat());
}

TEST(SkeletonSatTest, DataJoins) {
  Dtd d = ParseDtdOrDie(kMixedDtd);
  auto cd = CompiledDtd::Compile(d);
  // Two D children of A with different values.
  auto p1 = Path(".[A/D/@v!=A/D/@v]");
  Result<SatDecision> r1 = SkeletonSat(*p1, *cd);
  ASSERT_TRUE(r1.ok()) << r1.error();
  EXPECT_TRUE(r1.value().sat());
  EXPECT_TRUE(Satisfies(*r1.value().witness, *p1))
      << r1.value().witness->ToString();
  // B has exactly one D: its value cannot differ from itself.
  EXPECT_TRUE(SkeletonSat(*Path(".[B/D/@v!=B/D/@v]"), *cd).value().unsat());
  // Constants force equalities through joins.
  EXPECT_TRUE(SkeletonSat(*Path(".[B/D/@v=\"1\" && B/D/@v!=\"1\"]"), *cd)
                  .value()
                  .unsat());
  EXPECT_TRUE(SkeletonSat(*Path(".[B/D/@v=\"1\" && A/D/@v!=\"1\"]"), *cd)
                  .value()
                  .sat());
  // The two A/D existentials may pick different D nodes under A, so chaining
  // through them does NOT force a contradiction...
  EXPECT_TRUE(SkeletonSat(*Path(".[B/D/@v=\"1\" && B/D/@v=A/D/@v && "
                                "A/D/@v!=\"1\"]"),
                          *cd)
                  .value()
                  .sat());
  // ...but chaining through B's unique D does.
  EXPECT_TRUE(SkeletonSat(*Path(".[B/D/@v=\"1\" && B/D/@v=B/D/@v && "
                                "B/D/@v!=\"1\"]"),
                          *cd)
                  .value()
                  .unsat());
  // Attribute existence: only D has @v.
  EXPECT_TRUE(SkeletonSat(*Path(".[A/@v=\"1\"]"), *cd).value().unsat());
}

TEST(SkeletonSatTest, PaperEncodingExample) {
  // Prop 4.2(1)-style instance: (x1 | x2) with DTD forcing a choice.
  Dtd d = ParseDtdOrDie(
      "root r\nr -> X1, X2\nX1 -> T1 + F1\nX2 -> T2 + F2\n"
      "T1 -> C1\nF1 -> eps\nT2 -> eps\nF2 -> C1\nC1 -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  // clause C1 reachable: x1 true or x2 false.
  EXPECT_TRUE(SkeletonSat(*Path(".[*/*/C1]"), *cd).value().sat());
  // Force x1 true AND x1 false: impossible.
  EXPECT_TRUE(SkeletonSat(*Path(".[X1/T1 && X1/F1]"), *cd).value().unsat());
}

TEST(SkeletonSatTest, RecursiveDtdDescendants) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> (A + eps), B\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SkeletonSat(*Path("**/B"), *cd).value().sat());
  EXPECT_TRUE(SkeletonSat(*Path("A/A/A/B"), *cd).value().sat());
  EXPECT_TRUE(SkeletonSat(*Path(".[A/A/B && A/B]"), *cd).value().sat());
  EXPECT_TRUE(SkeletonSat(*Path("B/A"), *cd).value().unsat());
}

TEST(SkeletonSatTest, RejectsNegationAndSibling) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_FALSE(SkeletonSat(*Path("A[!(B)]"), *cd).ok());
  EXPECT_FALSE(SkeletonSat(*Path("A/>"), *cd).ok());
}

class SkeletonVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(SkeletonVsOracle, AgreesWithBoundedModel) {
  Rng rng(GetParam() * 7 + 1);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  for (int round = 0; round < 6; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    auto cd = CompiledDtd::Compile(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> fast = SkeletonSat(*p, *cd);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    if (fast.value().verdict == SatVerdict::kUnknown) continue;
    BoundedModelOptions bounds;
    bounds.max_depth = 5;
    bounds.max_star = 2;
    bounds.max_trees = 300000;
    SatDecision slow = BoundedModelSat(*p, d, bounds);
    if (slow.verdict == SatVerdict::kUnknown) continue;
    if (fast.value().sat()) {
      // Witness is independently verified.
      ASSERT_TRUE(fast.value().witness.has_value());
      EXPECT_TRUE(d.Validate(*fast.value().witness).ok());
      EXPECT_TRUE(Satisfies(*fast.value().witness, *p))
          << p->ToString() << "\n" << fast.value().witness->ToString();
      // The oracle may still miss wide/deep witnesses; only flag
      // disagreements when the witness fits inside the oracle bounds.
      if (slow.unsat()) {
        // Within-bounds disagreement is a real bug; outside the oracle's
        // depth/star bounds it is expected.
        const XmlTree& w = *fast.value().witness;
        int max_same = 0;
        for (NodeId n = 0; n < w.size(); ++n) {
          std::map<std::string, int> counts;
          for (NodeId c : w.children(n)) {
            max_same = std::max(max_same, ++counts[w.label(c)]);
          }
        }
        EXPECT_TRUE(w.Height() > bounds.max_depth ||
                    w.size() > bounds.max_nodes || max_same > bounds.max_star)
            << p->ToString() << "\n" << d.ToString() << "\n" << w.ToString();
      }
    } else {
      EXPECT_FALSE(slow.sat()) << p->ToString() << "\n" << d.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkeletonVsOracle, ::testing::Range(1, 21));

}  // namespace
}  // namespace xpathsat
