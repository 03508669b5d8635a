#include "src/xpath/rewrites.h"

#include "src/xpath/features.h"

#include <gtest/gtest.h>

#include "src/xml/generator.h"
#include "src/xpath/evaluator.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

// --- inverse(p): T |= p(n,n') iff T |= inverse(p)(n',n) ---------------------

class InverseProperty : public ::testing::TestWithParam<int> {};

TEST_P(InverseProperty, InverseReversesTheRelation) {
  Rng rng(GetParam());
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_sibling = true;
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 15; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    XmlTree t = GenerateRandomTree(d, &rng);
    auto p = RandomPath(&rng, labels, 3, opt);
    auto inv = InversePath(*p);
    for (NodeId n = 0; n < t.size(); ++n) {
      std::vector<NodeId> fwd = EvalPath(t, *p, {n});
      for (NodeId m = 0; m < t.size(); ++m) {
        bool forward = std::binary_search(fwd.begin(), fwd.end(), m);
        std::vector<NodeId> bwd = EvalPath(t, *inv, {m});
        bool backward = std::binary_search(bwd.begin(), bwd.end(), n);
        ASSERT_EQ(forward, backward)
            << "p=" << p->ToString() << " inv=" << inv->ToString()
            << " n=" << n << " m=" << m << " tree=" << t.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InverseProperty, ::testing::Range(1, 13));

// --- f(p) for N(D): T |= p iff T' |= f(p) (Prop 3.3) ------------------------

class NormalizedRewriteProperty : public ::testing::TestWithParam<int> {};

TEST_P(NormalizedRewriteProperty, RewritePreservesRootSatisfaction) {
  Rng rng(GetParam() + 1000);
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_negation = true;
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    NormalizedDtd norm = NormalizeDtd(d);
    XmlTree t = GenerateRandomTree(d, &rng);
    Result<XmlTree> t2 = NormalizeTree(t, d, norm);
    ASSERT_TRUE(t2.ok()) << t2.error();
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<std::unique_ptr<PathExpr>> fp = RewriteForNormalizedDtd(*p, d, norm);
    ASSERT_TRUE(fp.ok()) << fp.error();
    EXPECT_EQ(Satisfies(t, *p), Satisfies(t2.value(), *fp.value()))
        << "p=" << p->ToString() << "\nf(p)=" << fp.value()->ToString()
        << "\nT=" << t.ToString() << "\nT'=" << t2.value().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizedRewriteProperty,
                         ::testing::Range(1, 13));

TEST(RewritesTest, NormalizedRewriteRejectsSibling) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> eps\n");
  NormalizedDtd norm = NormalizeDtd(d);
  EXPECT_FALSE(RewriteForNormalizedDtd(*Path("A/>"), d, norm).ok());
}

// --- recursion elimination (Prop 6.1) ---------------------------------------

TEST(RewritesTest, EliminateRecursionEquivalentOnBoundedTrees) {
  Rng rng(5);
  RandomPathOptions opt;
  opt.allow_upward = true;
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 30; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    XmlTree t = GenerateRandomTree(d, &rng);
    int k = t.Height() + 1;
    auto p = RandomPath(&rng, labels, 3, opt);
    auto q = EliminateRecursion(*p, k);
    Features f = DetectFeatures(*q);
    EXPECT_FALSE(f.HasRecursion()) << q->ToString();
    EXPECT_EQ(Satisfies(t, *p), Satisfies(t, *q))
        << p->ToString() << " vs " << q->ToString() << " on " << t.ToString();
  }
}

// --- X(↓,↑) -> X(↓,[]) (Thm 6.8(2)) -----------------------------------------

struct UpDownCase {
  const char* input;
  const char* expected;  // nullptr: always unsat
};

void PrintTo(const UpDownCase& c, std::ostream* os) {
  *os << c.input << " to " << (c.expected ? c.expected : "unsat");
}

class UpDownRewriteTest : public ::testing::TestWithParam<UpDownCase> {};

TEST_P(UpDownRewriteTest, Rewrites) {
  const UpDownCase& c = GetParam();
  Result<UpDownRewrite> r = RewriteUpDownToQualifiers(*Path(c.input));
  ASSERT_TRUE(r.ok()) << r.error();
  if (c.expected == nullptr) {
    EXPECT_TRUE(r.value().always_unsat);
  } else {
    ASSERT_FALSE(r.value().always_unsat);
    EXPECT_EQ(r.value().path->ToString(), c.expected) << c.input;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UpDownRewriteTest,
    ::testing::Values(UpDownCase{"A", "A"}, UpDownCase{"A/B", "A/B"},
                      UpDownCase{"A/^", ".[A]"}, UpDownCase{"A/B/^", "A[B]"},
                      UpDownCase{"A/B/^/^", ".[A[B]]"},
                      UpDownCase{"A/B/^/C", "A[B]/C"},
                      UpDownCase{"A/^/B", ".[A]/B"},
                      UpDownCase{"^", nullptr}, UpDownCase{"A/^/^", nullptr},
                      UpDownCase{"*/^", ".[*]"}));

TEST(RewritesTest, UpDownRewriteSemanticallyEquivalent) {
  Rng rng(11);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_union = false;
  opt.allow_filter = false;
  opt.allow_recursion = false;
  for (int round = 0; round < 40; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30));
    XmlTree t = GenerateRandomTree(d, &rng);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<UpDownRewrite> r = RewriteUpDownToQualifiers(*p);
    ASSERT_TRUE(r.ok()) << p->ToString() << ": " << r.error();
    bool original = Satisfies(t, *p);
    bool rewritten =
        r.value().always_unsat ? false : Satisfies(t, *r.value().path);
    EXPECT_EQ(original, rewritten)
        << p->ToString() << " vs "
        << (r.value().always_unsat ? "<unsat>" : r.value().path->ToString())
        << " on " << t.ToString();
  }
}

// --- X(↓,[]) -> X(↓,↑) (Thm 6.6(3)) -----------------------------------------

TEST(RewritesTest, QualifiersToUpDownEquivalent) {
  Rng rng(13);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_union = false;
  opt.allow_recursion = false;
  for (int round = 0; round < 60; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30));
    XmlTree t = GenerateRandomTree(d, &rng);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<std::unique_ptr<PathExpr>> r = RewriteQualifiersToUpDown(*p);
    if (!r.ok()) continue;  // label tests etc. are out of fragment
    Features f = DetectFeatures(*r.value());
    EXPECT_FALSE(f.qualifier) << r.value()->ToString();
    EXPECT_EQ(Satisfies(t, *p), Satisfies(t, *r.value()))
        << p->ToString() << " vs " << r.value()->ToString() << " on "
        << t.ToString();
  }
}

TEST(RewritesTest, QualifiersToUpDownRejectsLabelTests) {
  EXPECT_FALSE(RewriteQualifiersToUpDown(*Path("A[label()=B]")).ok());
  EXPECT_FALSE(RewriteQualifiersToUpDown(*Path("A[!(B)]")).ok());
  EXPECT_FALSE(RewriteQualifiersToUpDown(*Path("A|B")).ok());
}

}  // namespace
}  // namespace xpathsat
