#include "src/xml/regex.h"

#include <gtest/gtest.h>

#include "src/automata/nfa.h"

namespace xpathsat {
namespace {

TEST(RegexTest, ParsePrintRoundTrip) {
  for (const char* text : {"eps", "A", "A, B", "A + B", "A*", "(A + B)*",
                           "A, (B + C)*, D", "(A, B) + eps", "A**"}) {
    Result<Regex> r = Regex::Parse(text);
    ASSERT_TRUE(r.ok()) << text << ": " << r.error();
    Result<Regex> r2 = Regex::Parse(r.value().ToString());
    ASSERT_TRUE(r2.ok()) << r.value().ToString();
    EXPECT_TRUE(r.value().Equals(r2.value()))
        << text << " -> " << r.value().ToString() << " -> "
        << r2.value().ToString();
  }
}

TEST(RegexTest, ParseErrors) {
  EXPECT_FALSE(Regex::Parse("").ok());
  EXPECT_FALSE(Regex::Parse("A,,B").ok());
  EXPECT_FALSE(Regex::Parse("(A").ok());
  EXPECT_FALSE(Regex::Parse("A)").ok());
  EXPECT_FALSE(Regex::Parse("A B").ok());
}

TEST(RegexTest, Nullable) {
  EXPECT_TRUE(Regex::Parse("eps").value().Nullable());
  EXPECT_FALSE(Regex::Parse("A").value().Nullable());
  EXPECT_TRUE(Regex::Parse("A*").value().Nullable());
  EXPECT_TRUE(Regex::Parse("A + eps").value().Nullable());
  EXPECT_FALSE(Regex::Parse("A, B*").value().Nullable());
  EXPECT_TRUE(Regex::Parse("A*, B*").value().Nullable());
}

TEST(RegexTest, StructuralPredicates) {
  EXPECT_TRUE(Regex::Parse("A + B").value().ContainsDisjunction());
  EXPECT_FALSE(Regex::Parse("A, B*").value().ContainsDisjunction());
  EXPECT_TRUE(Regex::Parse("A, B*").value().ContainsStar());
  EXPECT_FALSE(Regex::Parse("A, B").value().ContainsStar());
}

TEST(RegexTest, CollectSymbols) {
  std::set<std::string> syms;
  Regex::Parse("A, (B + C)*, A").value().CollectSymbols(&syms);
  EXPECT_EQ(syms, (std::set<std::string>{"A", "B", "C"}));
}

struct GlushkovCase {
  const char* regex;
  const char* word;  // space-separated
  bool expect;
};

void PrintTo(const GlushkovCase& c, std::ostream* os) {
  *os << c.regex << " vs '" << c.word
      << (c.expect ? "' accepts" : "' rejects");
}

class GlushkovMatchTest : public ::testing::TestWithParam<GlushkovCase> {};

TEST_P(GlushkovMatchTest, Matches) {
  const GlushkovCase& c = GetParam();
  Nfa nfa = BuildGlushkov(Regex::Parse(c.regex).value());
  std::vector<std::string> word;
  std::string tok;
  for (const char* p = c.word;; ++p) {
    if (*p == ' ' || *p == '\0') {
      if (!tok.empty()) word.push_back(tok);
      tok.clear();
      if (*p == '\0') break;
    } else {
      tok += *p;
    }
  }
  EXPECT_EQ(nfa.Matches(word), c.expect)
      << c.regex << " vs '" << c.word << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Words, GlushkovMatchTest,
    ::testing::Values(
        GlushkovCase{"eps", "", true}, GlushkovCase{"eps", "A", false},
        GlushkovCase{"A", "A", true}, GlushkovCase{"A", "", false},
        GlushkovCase{"A", "B", false}, GlushkovCase{"A, B", "A B", true},
        GlushkovCase{"A, B", "B A", false}, GlushkovCase{"A + B", "A", true},
        GlushkovCase{"A + B", "B", true}, GlushkovCase{"A + B", "A B", false},
        GlushkovCase{"A*", "", true}, GlushkovCase{"A*", "A A A", true},
        GlushkovCase{"A*", "A B", false},
        GlushkovCase{"A, (B + C)*, D", "A D", true},
        GlushkovCase{"A, (B + C)*, D", "A B C B D", true},
        GlushkovCase{"A, (B + C)*, D", "A B", false},
        GlushkovCase{"(A, B)*", "A B A B", true},
        GlushkovCase{"(A, B)*", "A B A", false},
        GlushkovCase{"(A + eps), (B + C)", "B", true},
        GlushkovCase{"(A + eps), (B + C)", "A C", true},
        GlushkovCase{"(A + eps), (B + C)", "A", false}));

}  // namespace
}  // namespace xpathsat
