#include "src/reductions/threesat.h"

#include <gtest/gtest.h>

#include "src/xpath/features.h"

#include "src/reductions/encodings.h"
#include "src/sat/bounded_model.h"
#include "src/sat/skeleton_sat.h"
#include "src/xpath/evaluator.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

ThreeSatInstance FromLiterals(
    int num_vars, std::vector<std::array<std::pair<int, bool>, 3>> clauses) {
  ThreeSatInstance inst;
  inst.num_vars = num_vars;
  for (const auto& c : clauses) {
    std::array<Literal, 3> clause;
    for (int j = 0; j < 3; ++j) {
      clause[j].var = c[j].first;
      clause[j].negated = c[j].second;
    }
    inst.clauses.push_back(clause);
  }
  return inst;
}

TEST(DpllTest, KnownInstances) {
  // (x1 | x2 | x3) satisfiable.
  auto sat = FromLiterals(3, {{{{1, false}, {2, false}, {3, false}}}});
  std::vector<bool> assign;
  EXPECT_TRUE(DpllSolve(sat, &assign));
  // Force x1 true and false via rigid clauses: unsatisfiable 8-clause core
  // over 3 variables (all sign combinations).
  ThreeSatInstance unsat;
  unsat.num_vars = 3;
  for (int mask = 0; mask < 8; ++mask) {
    std::array<Literal, 3> clause;
    for (int j = 0; j < 3; ++j) {
      clause[j].var = j + 1;
      clause[j].negated = (mask >> j) & 1;
    }
    unsat.clauses.push_back(clause);
  }
  EXPECT_FALSE(DpllSolve(unsat));
}

TEST(DpllTest, AssignmentsSatisfy) {
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    ThreeSatInstance inst = RandomThreeSat(5, rng.IntIn(3, 18), &rng);
    std::vector<bool> assign;
    if (!DpllSolve(inst, &assign)) continue;
    for (const auto& clause : inst.clauses) {
      bool sat = false;
      for (const auto& l : clause) sat |= (assign[l.var] != l.negated);
      EXPECT_TRUE(sat) << inst.ToString();
    }
  }
}

// Every 3SAT encoding must agree with DPLL. The positive encodings are
// decided with the Thm 4.4 skeleton procedure.
using Encoder = SatEncoding (*)(const ThreeSatInstance&);

struct EncodingCase {
  const char* name;
  Encoder encode;
};

void PrintTo(const EncodingCase& c, std::ostream* os) { *os << c.name; }

class PositiveEncodingAgree
    : public ::testing::TestWithParam<std::tuple<EncodingCase, int>> {};

TEST_P(PositiveEncodingAgree, MatchesDpll) {
  const auto& [c, seed] = GetParam();
  Rng rng(seed * 1009);
  ThreeSatInstance inst = RandomThreeSat(4, rng.IntIn(3, 9), &rng);
  bool expected = DpllSolve(inst);
  SatEncoding enc = c.encode(inst);
  Result<SatDecision> got =
      SkeletonSat(*enc.query, *CompiledDtd::Compile(enc.dtd));
  ASSERT_TRUE(got.ok()) << c.name << ": " << got.error();
  ASSERT_NE(got.value().verdict, SatVerdict::kUnknown) << c.name;
  EXPECT_EQ(got.value().sat(), expected)
      << c.name << " on " << inst.ToString();
  if (got.value().sat() && got.value().witness.has_value()) {
    EXPECT_TRUE(enc.dtd.Validate(*got.value().witness).ok()) << c.name;
    EXPECT_TRUE(Satisfies(*got.value().witness, *enc.query)) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PositiveEncodingAgree,
    ::testing::Combine(
        ::testing::Values(
            EncodingCase{"Prop4.2(1)-down", &EncodeThreeSatDownQual},
            EncodingCase{"Prop4.2(2)-union", &EncodeThreeSatUnionQual},
            EncodingCase{"Prop4.3-updown", &EncodeThreeSatUpDown},
            EncodingCase{"Thm6.9(1)-djfree-attr", &EncodeThreeSatDjfreeAttr},
            EncodingCase{"Thm6.9(2)-djfree-down", &EncodeThreeSatDjfreeDown}),
        ::testing::Range(1, 9)));

TEST(EncodingShapes, DtdClassesMatchTheTheorems) {
  Rng rng(1);
  ThreeSatInstance inst = RandomThreeSat(3, 4, &rng);
  // Prop 4.2(2): fixed DTD (independent of the instance).
  SatEncoding a = EncodeThreeSatUnionQual(inst);
  ThreeSatInstance other = RandomThreeSat(5, 7, &rng);
  SatEncoding b = EncodeThreeSatUnionQual(other);
  EXPECT_EQ(a.dtd.ToString(), b.dtd.ToString());
  // Thm 6.9: disjunction-free DTDs.
  EXPECT_TRUE(EncodeThreeSatDjfreeAttr(inst).dtd.IsDisjunctionFree());
  EXPECT_TRUE(EncodeThreeSatDjfreeDown(inst).dtd.IsDisjunctionFree());
  // Thm 6.6(2): fixed DTD.
  EXPECT_EQ(EncodeThreeSatFixedDown(inst).dtd.ToString(),
            EncodeThreeSatFixedDown(other).dtd.ToString());
  // Prop 7.2: fixed, disjunction-free, nonrecursive DTD.
  SatEncoding s = EncodeThreeSatSibling(inst);
  EXPECT_TRUE(s.dtd.IsDisjunctionFree());
  EXPECT_FALSE(s.dtd.IsRecursive());
  EXPECT_EQ(s.dtd.ToString(), EncodeThreeSatSibling(other).dtd.ToString());
  // Prop 4.3: query without qualifiers, with upward steps.
  Features f = DetectFeatures(*EncodeThreeSatUpDown(inst).query);
  EXPECT_TRUE(f.parent);
  EXPECT_FALSE(f.qualifier);
}

class FixedDownEncodingAgree : public ::testing::TestWithParam<int> {};

TEST_P(FixedDownEncodingAgree, MatchesDpll) {
  Rng rng(GetParam() * 313);
  // Small instances: the fixed-DTD gadget trees are large.
  ThreeSatInstance inst = RandomThreeSat(3, rng.IntIn(2, 4), &rng);
  bool expected = DpllSolve(inst);
  SatEncoding enc = EncodeThreeSatFixedDown(inst);
  SkeletonSatOptions opt;
  opt.max_steps = 50000000;
  Result<SatDecision> got =
      SkeletonSat(*enc.query, *CompiledDtd::Compile(enc.dtd), opt);
  ASSERT_TRUE(got.ok()) << got.error();
  ASSERT_NE(got.value().verdict, SatVerdict::kUnknown);
  EXPECT_EQ(got.value().sat(), expected) << inst.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedDownEncodingAgree,
                         ::testing::Range(1, 6));

// The canonical gadget tree of Prop 7.2 for a given truth assignment.
XmlTree SiblingWitness(const ThreeSatInstance& inst,
                       const std::vector<bool>& assign) {
  int n = static_cast<int>(inst.clauses.size());
  auto occurs = [&](int var, bool negated, int clause) {
    for (const Literal& l : inst.clauses[clause]) {
      if (l.var == var && l.negated == negated) return true;
    }
    return false;
  };
  XmlTree t;
  NodeId r = t.CreateRoot("r");
  t.AddChild(r, "S0");
  for (int j = 1; j <= inst.num_vars; ++j) {
    t.AddChild(r, "S");
    NodeId x = t.AddChild(r, "X");
    t.AddChild(x, "S");
    for (int branch = 0; branch < 2; ++branch) {
      NodeId l = t.AddChild(x, "L");
      t.AddChild(l, "S");
      bool branch_assigned = (branch == 0) == assign[j];
      int len = branch_assigned ? n : n + 1;
      for (int i = 1; i <= len; ++i) {
        NodeId c = t.AddChild(l, "C");
        t.AddChild(c, "S");
        if (i <= n && occurs(j, branch == 1, i - 1)) t.AddChild(c, "T");
        t.AddChild(c, "S");
      }
      t.AddChild(l, "S");
    }
    t.AddChild(x, "S");
  }
  t.AddChild(r, "S0");
  return t;
}

class SiblingEncodingAgree : public ::testing::TestWithParam<int> {};

TEST_P(SiblingEncodingAgree, GadgetTreesMatchDpll) {
  Rng rng(GetParam() * 71);
  ThreeSatInstance inst = RandomThreeSat(3, rng.IntIn(2, 5), &rng);
  SatEncoding enc = EncodeThreeSatSibling(inst);
  // Over all assignments: the gadget tree conforms to the fixed DTD, and it
  // satisfies the query exactly when the assignment satisfies φ.
  bool any_sat = false;
  for (int mask = 0; mask < (1 << inst.num_vars); ++mask) {
    std::vector<bool> assign(inst.num_vars + 1, false);
    for (int j = 1; j <= inst.num_vars; ++j) assign[j] = (mask >> (j - 1)) & 1;
    bool formula_true = true;
    for (const auto& clause : inst.clauses) {
      bool c = false;
      for (const auto& l : clause) c |= (assign[l.var] != l.negated);
      formula_true &= c;
    }
    XmlTree t = SiblingWitness(inst, assign);
    ASSERT_TRUE(enc.dtd.Validate(t).ok())
        << enc.dtd.Validate(t).message() << "\n" << t.ToString();
    EXPECT_EQ(Satisfies(t, *enc.query), formula_true)
        << inst.ToString() << " mask=" << mask << "\n" << t.ToString();
    any_sat |= formula_true;
  }
  EXPECT_EQ(any_sat, DpllSolve(inst));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiblingEncodingAgree, ::testing::Range(1, 9));

}  // namespace
}  // namespace xpathsat
