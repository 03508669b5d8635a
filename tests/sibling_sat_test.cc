#include "src/sat/sibling_sat.h"

#include <gtest/gtest.h>

#include "src/sat/bounded_model.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

const char* kOrderedDtd =
    "root r\nr -> A, B, C\nA -> D*\nB -> (D, E)*\nC -> eps\nD -> eps\nE -> eps\n";

struct SibCase {
  const char* query;
  bool sat;
};

void PrintTo(const SibCase& c, std::ostream* os) {
  *os << c.query << (c.sat ? " sat" : " unsat");
}

class SiblingCases : public ::testing::TestWithParam<SibCase> {};

TEST_P(SiblingCases, Decides) {
  Dtd d = ParseDtdOrDie(kOrderedDtd);
  auto cd = CompiledDtd::Compile(d);
  Result<SatDecision> r = SiblingChainSat(*Path(GetParam().query), *cd);
  ASSERT_TRUE(r.ok()) << GetParam().query << ": " << r.error();
  EXPECT_EQ(r.value().sat(), GetParam().sat) << GetParam().query;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SiblingCases,
    ::testing::Values(
        SibCase{"A", true}, SibCase{"A/>", true},      // A -> B
        SibCase{"A/>/>", true},                        // A -> B -> C
        SibCase{"A/>/>/>", false},                     // past C
        SibCase{"A/<", false},                         // A is first
        SibCase{"C/</<", true},                        // back to A
        SibCase{"B/>/<", true},                        // C then back to B
        SibCase{"A/>/D", true},                        // B's D child
        SibCase{"A/>/D/>", true},                      // D -> E inside B
        SibCase{"A/>/D/>/>", true},                    // (D,E)* can repeat
        SibCase{"A/D/>", true},                        // D* can repeat under A
        SibCase{"A/D", true},                          // a D under A
        SibCase{"C/D", false},                         // C is empty
        SibCase{"B/E/</<", true},                      // E -> D -> prev E?
        SibCase{"B/E/<", true},                        // E has D on its left
        SibCase{">", false},                           // root has no siblings
        SibCase{"A/>/E", true},                        // E under B
        SibCase{"*/>", true},                          // wildcard then right
        SibCase{"*/*/>", true}));                      // D inside B, right

TEST(SiblingSatTest, WholeWordMustExist) {
  // r -> A, B: moving right twice from A is impossible.
  Dtd d = ParseDtdOrDie("root r\nr -> A, B\nA -> eps\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SiblingChainSat(*Path("A/>"), *cd).value().sat());
  EXPECT_TRUE(SiblingChainSat(*Path("A/>/>"), *cd).value().unsat());
  EXPECT_TRUE(SiblingChainSat(*Path("B/<"), *cd).value().sat());
}

TEST(SiblingSatTest, DisjunctionLimitsSiblings) {
  Dtd d = ParseDtdOrDie("root r\nr -> A + (A, B)\nA -> eps\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SiblingChainSat(*Path("A/>"), *cd).value().sat());
  EXPECT_TRUE(SiblingChainSat(*Path("B/>"), *cd).value().unsat());
  EXPECT_TRUE(SiblingChainSat(*Path("B/<"), *cd).value().sat());
}

TEST(SiblingSatTest, NonterminatingSymbolsAreUnusable) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, (B + eps)\nA -> eps\nB -> B\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(SiblingChainSat(*Path("A/>"), *cd).value().unsat());  // B never exists
  EXPECT_TRUE(SiblingChainSat(*Path("A"), *cd).value().sat());
}

TEST(SiblingSatTest, RejectsOutOfFragment) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_FALSE(SiblingChainSat(*Path("A[B]"), *cd).ok());
  EXPECT_FALSE(SiblingChainSat(*Path("A/>>"), *cd).ok());
  EXPECT_FALSE(SiblingChainSat(*Path("A|B"), *cd).ok());
  EXPECT_FALSE(SiblingChainSat(*Path("**"), *cd).ok());
}

class SiblingVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(SiblingVsOracle, AgreesWithBoundedModel) {
  Rng rng(GetParam() * 41);
  std::vector<std::string> labels = {"A", "B", "C", "D"};
  RandomPathOptions opt;
  opt.allow_union = false;
  opt.allow_filter = false;
  opt.allow_recursion = false;
  opt.allow_sibling = true;
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    auto cd = CompiledDtd::Compile(d);
    // Random chain of label/wildcard/sibling steps.
    std::vector<std::unique_ptr<PathExpr>> steps;
    steps.push_back(rng.Percent(50)
                        ? PathExpr::Label(labels[rng.Below(labels.size())])
                        : PathExpr::Axis(PathKind::kChildAny));
    // At most two sibling moves so the oracle's star bound (3) covers every
    // witness the chain could require.
    int len = rng.IntIn(1, 4);
    int sib_moves = 0;
    for (int i = 0; i < len; ++i) {
      int roll = rng.IntIn(0, 3);
      if (roll >= 2 && sib_moves >= 2) roll = rng.IntIn(0, 1);
      switch (roll) {
        case 0:
          steps.push_back(PathExpr::Label(labels[rng.Below(labels.size())]));
          break;
        case 1:
          steps.push_back(PathExpr::Axis(PathKind::kChildAny));
          break;
        case 2:
          ++sib_moves;
          steps.push_back(PathExpr::Axis(PathKind::kRightSib));
          break;
        default:
          ++sib_moves;
          steps.push_back(PathExpr::Axis(PathKind::kLeftSib));
          break;
      }
    }
    auto p = PathExpr::SeqAll(std::move(steps));
    Result<SatDecision> fast = SiblingChainSat(*p, *cd);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    // Thm 7.1 is a PTIME decision procedure: kUnknown would silently read as
    // unsat in the agreement check below, so rule it out explicitly.
    ASSERT_NE(fast.value().verdict, SatVerdict::kUnknown) << p->ToString();
    BoundedModelOptions bounds;
    bounds.max_depth = 5;
    bounds.max_star = 3;
    bounds.max_trees = 500000;
    SatDecision slow = BoundedModelSat(*p, d, bounds);
    if (slow.verdict == SatVerdict::kUnknown) continue;
    EXPECT_EQ(fast.value().sat(), slow.sat())
        << p->ToString() << "\n" << d.ToString() << "\n" << slow.note;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiblingVsOracle, ::testing::Range(1, 21));

}  // namespace
}  // namespace xpathsat
