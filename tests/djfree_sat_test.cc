#include "src/sat/djfree_sat.h"

#include <gtest/gtest.h>

#include "src/sat/bounded_model.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

const char* kDjfreeDtd =
    "root r\nr -> A, B*\nA -> C\nB -> C*\nC -> eps\n";

TEST(DjfreeSatTest, BasicCases) {
  Dtd d = ParseDtdOrDie(kDjfreeDtd);
  auto cd = CompiledDtd::Compile(d);
  for (const char* q :
       {"A", "B", "A/C", "B/C", ".[A && B]", ".[A/C && B/C]", "**/C",
        "*[label()=A]", ".[A[C] && B]", "A|Z", ".[B || Z]"}) {
    Result<SatDecision> r = DisjunctionFreeSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q << ": " << r.error();
    EXPECT_TRUE(r.value().sat()) << q;
  }
  for (const char* q : {"Z", "A/B", "C/C", ".[A[Z]]", "A[label()=B]",
                        "B/C/C", ".[Z || Q]"}) {
    Result<SatDecision> r = DisjunctionFreeSat(*Path(q), *cd);
    ASSERT_TRUE(r.ok()) << q << ": " << r.error();
    EXPECT_TRUE(r.value().unsat()) << q;
  }
}

TEST(DjfreeSatTest, ConjunctionDecomposition) {
  // In a disjunction-free DTD both qualifiers can always be realized
  // simultaneously when each is realizable (Thm 6.8(1) key property).
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> B, C\nB -> eps\nC -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(DisjunctionFreeSat(*Path(".[A/B && A/C]"), *cd).value().sat());
  EXPECT_TRUE(DisjunctionFreeSat(*Path("A[B && C]"), *cd).value().sat());
}

TEST(DjfreeSatTest, RejectsDisjunctiveDtd) {
  Dtd d = ParseDtdOrDie("root r\nr -> A + B\nA -> eps\nB -> eps\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_FALSE(DisjunctionFreeSat(*Path("A"), *cd).ok());
}

TEST(DjfreeSatTest, RejectsOutOfFragment) {
  Dtd d = ParseDtdOrDie(kDjfreeDtd);
  auto cd = CompiledDtd::Compile(d);
  EXPECT_FALSE(DisjunctionFreeSat(*Path("A[!(C)]"), *cd).ok());
  EXPECT_FALSE(DisjunctionFreeSat(*Path("A/^"), *cd).ok());
  EXPECT_FALSE(DisjunctionFreeSat(*Path("A[./@v=\"1\"]"), *cd).ok());
}

TEST(DjfreeSatTest, UpDownVariant) {
  Dtd d = ParseDtdOrDie(kDjfreeDtd);
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(UpDownDisjunctionFreeSat(*Path("A/C/^/^/B"), *cd).value().sat());
  EXPECT_TRUE(UpDownDisjunctionFreeSat(*Path("A/^/^"), *cd).value().unsat());
  EXPECT_TRUE(UpDownDisjunctionFreeSat(*Path("A/C/^/B"), *cd).value().unsat());
}

class DjfreeVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(DjfreeVsOracle, AgreesWithBoundedModel) {
  Rng rng(GetParam() * 17);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 8; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    if (!d.IsDisjunctionFree()) continue;
    auto cd = CompiledDtd::Compile(d);
    auto p = RandomPath(&rng, labels, 3);
    Result<SatDecision> fast = DisjunctionFreeSat(*p, *cd);
    ASSERT_TRUE(fast.ok()) << p->ToString();
    // Thm 6.8(1) is a PTIME decision procedure: kUnknown would silently read
    // as unsat in the agreement check below, so rule it out explicitly.
    ASSERT_NE(fast.value().verdict, SatVerdict::kUnknown) << p->ToString();
    BoundedModelOptions bounds;
    bounds.max_depth = 5;
    bounds.max_star = 3;
    bounds.max_trees = 500000;
    SatDecision slow = BoundedModelSat(*p, d, bounds);
    if (slow.verdict == SatVerdict::kUnknown) continue;
    EXPECT_EQ(fast.value().sat(), slow.sat())
        << p->ToString() << "\n" << d.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DjfreeVsOracle, ::testing::Range(1, 16));

}  // namespace
}  // namespace xpathsat
