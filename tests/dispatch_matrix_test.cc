// Golden-table test for the Sec. 8 complexity-landscape dispatcher: every
// fragment x DTD-class cell must route to the expected algorithm, so a
// dispatcher regression is caught by name rather than by a slow timeout or a
// silently weaker procedure.
#include "src/sat/satisfiability.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/xpath/evaluator.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

struct DispatchCase {
  const char* name;       // cell of the Sec. 8 summary table
  const char* query;
  const char* dtd;        // empty = no-DTD variant (Sec. 6.4)
  const char* algorithm;  // substring expected in SatReport::algorithm
  SatVerdict verdict;     // expected verdict for this concrete instance
  bool ptime;             // PTIME cells must never report kUnknown
};

void PrintTo(const DispatchCase& c, std::ostream* os) { *os << c.name; }

// One general (disjunctive) DTD and one disjunction-free DTD, shared by most
// cells so the table reads as fragment x DTD-class.
constexpr const char* kGeneralDtd =
    "root r\nr -> A + B\nA -> eps\nB -> eps\n";
constexpr const char* kDisjunctionFreeDtd =
    "root r\nr -> A, B*\nA -> C\nB -> eps\nC -> eps\n";

const DispatchCase kMatrix[] = {
    // --- X(down, ds, union): Thm 4.1 reach DP, PTIME for all DTD classes.
    {"reach/general", "A", kGeneralDtd, "Thm 4.1", SatVerdict::kSat, true},
    {"reach/general-union", "A|B", kGeneralDtd, "Thm 4.1", SatVerdict::kSat,
     true},
    {"reach/general-descendant", "**/C", kGeneralDtd, "Thm 4.1",
     SatVerdict::kUnsat, true},
    {"reach/djfree", "A/C", kDisjunctionFreeDtd, "Thm 4.1", SatVerdict::kSat,
     true},
    // --- X(right, left) sibling chains: Thm 7.1 NFA chains, PTIME.
    {"sibling/general", "A/>", kGeneralDtd, "Thm 7.1", SatVerdict::kUnsat,
     true},
    {"sibling/djfree", "A/>", kDisjunctionFreeDtd, "Thm 7.1",
     SatVerdict::kSat, true},
    {"sibling/djfree-left", "B/<", kDisjunctionFreeDtd, "Thm 7.1",
     SatVerdict::kSat, true},
    // --- X(down, ds, union, []) + disjunction-free DTD: Thm 6.8(1) DP.
    {"djfree-dp/qualifier", ".[A && B]", kDisjunctionFreeDtd, "Thm 6.8(1)",
     SatVerdict::kSat, true},
    {"djfree-dp/nested", "A[C]", kDisjunctionFreeDtd, "Thm 6.8(1)",
     SatVerdict::kSat, true},
    // --- X(down, up) + disjunction-free DTD: Thm 6.8(2) rewrite.
    {"updown/djfree", "A/^/B", kDisjunctionFreeDtd, "Thm 6.8(2)",
     SatVerdict::kSat, true},
    {"djfree-dp/unsat", ".[B/C]", kDisjunctionFreeDtd, "Thm 6.8(1)",
     SatVerdict::kUnsat, true},
    // --- Positive fragments on general DTDs: Thm 4.4 skeletons (NP).
    {"skeleton/qualifier", ".[A || B]", kGeneralDtd, "Thm 4.4",
     SatVerdict::kSat, false},
    {"skeleton/qualifier-unsat", ".[A && B]", kGeneralDtd, "Thm 4.4",
     SatVerdict::kUnsat, false},
    {"skeleton/upward", "A/^", kGeneralDtd, "Thm 4.4", SatVerdict::kSat,
     false},
    // --- Negation (or sibling axes beyond chains): bounded-model search.
    {"bounded/negation", ".[!(A)]", kGeneralDtd, "bounded-model",
     SatVerdict::kSat, false},
    {"bounded/negation-unsat", ".[!(A) && !(B)]", kGeneralDtd,
     "bounded-model", SatVerdict::kUnsat, false},
    {"bounded/sibling-qualifier", ".[A/>]", kGeneralDtd, "bounded-model",
     SatVerdict::kUnsat, false},
    // --- Absence of DTDs (Sec. 6.4).
    {"nodtd/positive", "A[B && C]", "", "Thm 6.11(1)", SatVerdict::kSat,
     true},
    {"nodtd/cq", "A/^[label()=B]", "", "Thm 6.11(2)", SatVerdict::kSat,
     true},
    {"nodtd/universal", "A[!(B)]", "", "Prop 3.1", SatVerdict::kSat, false},
};

class DispatchMatrix : public ::testing::TestWithParam<DispatchCase> {};

TEST_P(DispatchMatrix, RoutesToExpectedAlgorithm) {
  const DispatchCase& c = GetParam();
  SatReport r;
  if (std::string(c.dtd).empty()) {
    r = DecideSatisfiabilityNoDtd(*Path(c.query));
  } else {
    r = DecideSatisfiability(*Path(c.query), ParseDtdOrDie(c.dtd));
  }
  EXPECT_NE(r.algorithm.find(c.algorithm), std::string::npos)
      << "cell " << c.name << ": query '" << c.query << "' dispatched to '"
      << r.algorithm << "', expected an algorithm tagged '" << c.algorithm
      << "'";
  EXPECT_EQ(r.decision.verdict, c.verdict)
      << "cell " << c.name << ": query '" << c.query << "' under '"
      << r.algorithm << "' returned verdict "
      << static_cast<int>(r.decision.verdict) << " (note: "
      << r.decision.note << ")";
  if (c.ptime) {
    // The paper's PTIME cells are decision procedures, not semi-decisions:
    // they must never give up with kUnknown on in-fragment inputs.
    EXPECT_NE(r.decision.verdict, SatVerdict::kUnknown)
        << "cell " << c.name << " is a PTIME cell but reported kUnknown";
  }
}

TEST_P(DispatchMatrix, SatVerdictsCarryValidWitnesses) {
  const DispatchCase& c = GetParam();
  if (std::string(c.dtd).empty()) return;
  Dtd d = ParseDtdOrDie(c.dtd);
  SatReport r = DecideSatisfiability(*Path(c.query), d);
  if (r.sat() && r.decision.witness.has_value()) {
    EXPECT_TRUE(d.Validate(*r.decision.witness).ok())
        << "cell " << c.name << ": witness does not conform to the DTD";
    EXPECT_TRUE(Satisfies(*r.decision.witness, *Path(c.query)))
        << "cell " << c.name << ": witness does not satisfy the query";
  }
}

std::string CaseName(const ::testing::TestParamInfo<DispatchCase>& info) {
  std::string s = info.param.name;
  for (char& ch : s) {
    if (ch == '/' || ch == '-') ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Sec8Summary, DispatchMatrix,
                         ::testing::ValuesIn(kMatrix), CaseName);

}  // namespace
}  // namespace xpathsat
