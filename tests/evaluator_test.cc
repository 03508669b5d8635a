#include "src/xpath/evaluator.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace xpathsat {
namespace {

// <r><A a="1"><C/><D a="1"/></A><B b="2"/><A a="2"/></r>
XmlTree SampleTree() {
  XmlTree t;
  NodeId r = t.CreateRoot("r");
  NodeId a1 = t.AddChild(r, "A");
  t.SetAttr(a1, "a", "1");
  t.AddChild(a1, "C");
  NodeId d = t.AddChild(a1, "D");
  t.SetAttr(d, "a", "1");
  NodeId b = t.AddChild(r, "B");
  t.SetAttr(b, "b", "2");
  NodeId a2 = t.AddChild(r, "A");
  t.SetAttr(a2, "a", "2");
  return t;
}

struct EvalCase {
  const char* query;
  bool expect;  // satisfied at the root
};

// Names the CTest case after its fields, never its bytes (which hold
// pointers and so differ from build to build).
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << c.query << (c.expect ? " matches" : " no match");
}

class EvalAtRoot : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalAtRoot, Matches) {
  XmlTree t = SampleTree();
  auto p = Path(GetParam().query);
  EXPECT_EQ(Satisfies(t, *p), GetParam().expect) << GetParam().query;
}

INSTANTIATE_TEST_SUITE_P(
    Axes, EvalAtRoot,
    ::testing::Values(
        EvalCase{".", true}, EvalCase{"A", true}, EvalCase{"Z", false},
        EvalCase{"*", true}, EvalCase{"A/C", true}, EvalCase{"A/Z", false},
        EvalCase{"**/D", true}, EvalCase{"**/Z", false},
        EvalCase{"A/C/^", true}, EvalCase{"^", false},
        EvalCase{"A/^^[label()=r]", true}, EvalCase{"A/>", true},
        EvalCase{"A/>/>", true}, EvalCase{"A/>/>/>", false},
        EvalCase{"B/<", true}, EvalCase{"A/<", true},  // second A has B left
        EvalCase{"A/C/<", false}, EvalCase{"A/C/>", true},
        EvalCase{"B/>>[label()=A]", true}, EvalCase{"B/<<[label()=A]", true},
        EvalCase{"A|Z", true}, EvalCase{"Z|Q", false}));

INSTANTIATE_TEST_SUITE_P(
    Qualifiers, EvalAtRoot,
    ::testing::Values(
        EvalCase{".[A]", true}, EvalCase{".[Z]", false},
        EvalCase{".[!(Z)]", true}, EvalCase{".[A && B]", true},
        EvalCase{".[A && Z]", false}, EvalCase{".[Z || B]", true},
        EvalCase{"A[C]", true}, EvalCase{"A[C && D]", true},
        EvalCase{"A[label()=A]", true}, EvalCase{"A[label()=B]", false},
        EvalCase{".[A[D]]", true}, EvalCase{".[A[Z]]", false},
        EvalCase{".[!(A[Z])]", true}));

INSTANTIATE_TEST_SUITE_P(
    DataValues, EvalAtRoot,
    ::testing::Values(
        EvalCase{".[A/@a=\"1\"]", true}, EvalCase{".[A/@a=\"3\"]", false},
        EvalCase{".[A/@a!=\"1\"]", true},  // the second A has a=2
        EvalCase{".[B/@b!=\"2\"]", false},
        EvalCase{".[A/@a=B/@b]", true},    // a=2 vs b=2
        EvalCase{".[A/@a=A/D/@a]", true},  // 1 = 1
        EvalCase{".[A/@a!=A/@a]", true},   // two As with different values
        EvalCase{".[B/@b=B/@b]", true}, EvalCase{".[B/@z=\"2\"]", false},
        EvalCase{"A[./@a=D/@a]", true}));

TEST(EvaluatorTest, BinaryRelationSemantics) {
  XmlTree t = SampleTree();
  NodeId r = t.root();
  NodeId a1 = t.children(r)[0];
  NodeId c = t.children(a1)[0];
  // r[[A]] = both A children.
  auto res = EvalPath(t, *Path("A"), {r});
  EXPECT_EQ(res.size(), 2u);
  // Self axis from several context nodes.
  res = EvalPath(t, *Path("."), {r, c});
  EXPECT_EQ(res, (std::vector<NodeId>{r, c}));
  // ↑* from C: C, A, r.
  res = EvalPath(t, *Path("^^"), {c});
  EXPECT_EQ(res.size(), 3u);
  // ↓* from A1: A1, C, D.
  res = EvalPath(t, *Path("**"), {a1});
  EXPECT_EQ(res.size(), 3u);
}

TEST(EvaluatorTest, DescOrSelfIncludesSelf) {
  XmlTree t = SampleTree();
  auto res = EvalPath(t, *Path("**"), {t.root()});
  EXPECT_EQ(static_cast<int>(res.size()), t.size());
}

TEST(EvaluatorTest, SiblingStarsIncludeSelf) {
  XmlTree t = SampleTree();
  NodeId b = t.children(t.root())[1];
  auto right = EvalPath(t, *Path(">>"), {b});
  EXPECT_EQ(right.size(), 2u);  // B and the second A
  auto left = EvalPath(t, *Path("<<"), {b});
  EXPECT_EQ(left.size(), 2u);  // B and the first A
}

TEST(EvaluatorTest, Example23FromPaper) {
  // DTD r -> A*, query p = B: unsatisfiable over conforming trees.
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  XmlTree t;
  NodeId r = t.CreateRoot("r");
  t.AddChild(r, "A");
  ASSERT_TRUE(d.Validate(t).ok());
  EXPECT_FALSE(Satisfies(t, *Path("B")));
}

}  // namespace
}  // namespace xpathsat
