#include "src/sat/satisfiability.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/xpath/evaluator.h"
#include "src/xpath/rewrites.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

TEST(SatisfiabilityTest, DispatchesToReachDp) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatReport r = DecideSatisfiability(*Path("A"), d);
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Thm 4.1"), std::string::npos) << r.algorithm;
}

TEST(SatisfiabilityTest, DispatchesToSiblingChains) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B\nA -> eps\nB -> eps\n");
  SatReport r = DecideSatisfiability(*Path("A/>"), d);
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Thm 7.1"), std::string::npos) << r.algorithm;
}

TEST(SatisfiabilityTest, DispatchesToDisjunctionFreeDp) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatReport r = DecideSatisfiability(*Path(".[A && B]"), d);
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Thm 6.8(1)"), std::string::npos) << r.algorithm;
}

TEST(SatisfiabilityTest, DispatchesToSkeletons) {
  Dtd d = ParseDtdOrDie("root r\nr -> A + B\nA -> eps\nB -> eps\n");
  SatReport r = DecideSatisfiability(*Path(".[A || B]"), d);
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Thm 4.4"), std::string::npos) << r.algorithm;
  SatReport r2 = DecideSatisfiability(*Path(".[A && B]"), d);
  EXPECT_TRUE(r2.unsat());
}

TEST(SatisfiabilityTest, NegationFallsBackToBoundedModel) {
  Dtd d = ParseDtdOrDie("root r\nr -> A + B\nA -> eps\nB -> eps\n");
  SatReport r = DecideSatisfiability(*Path(".[!(A)]"), d);
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("bounded-model"), std::string::npos);
  EXPECT_TRUE(DecideSatisfiability(*Path(".[!(A) && !(B)]"), d).unsat());
}

TEST(SatisfiabilityTest, NoDtdVariants) {
  SatReport r = DecideSatisfiabilityNoDtd(*Path("A[B && C]"));
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Thm 6.11(1)"), std::string::npos) << r.algorithm;

  SatReport r2 = DecideSatisfiabilityNoDtd(*Path("A/^[label()=B]"));
  EXPECT_NE(r2.algorithm.find("Thm 6.11(2)"), std::string::npos)
      << r2.algorithm;
}

TEST(SatisfiabilityTest, NoDtdCqCases) {
  // The parent of a child reached from the root IS the root; a label test on
  // it is satisfiable (the root can be labeled B).
  SatReport r = DecideSatisfiabilityNoDtd(*Path("A/^[label()=B]"));
  EXPECT_TRUE(r.sat());
  // But two different labels on the root conflict.
  SatReport r2 =
      DecideSatisfiabilityNoDtd(*Path(".[label()=A]/B/^[label()=C]"));
  EXPECT_TRUE(r2.unsat());
}

TEST(SatisfiabilityTest, NoDtdGeneralFallback) {
  // Negation without DTD goes through universal DTDs (Prop 3.1).
  SatReport r = DecideSatisfiabilityNoDtd(*Path("A[!(B)]"));
  EXPECT_TRUE(r.sat());
  EXPECT_NE(r.algorithm.find("Prop 3.1"), std::string::npos) << r.algorithm;
  SatReport r2 =
      DecideSatisfiabilityNoDtd(*Path(".[A && !(A)]"));
  EXPECT_TRUE(r2.unsat());
}

TEST(SatOptionsDigestTest, EqualOptionsHashEqual) {
  SatOptions a;
  SatOptions b;
  EXPECT_EQ(a.Digest(), b.Digest());
  a.bounded_caps.max_depth = 6;
  b.bounded_caps.max_depth = 6;
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(SatOptionsDigestTest, EveryFieldIsSignificant) {
  // The digest is the options component of the engine's memo key: a field
  // change that does not change the digest would let a memoized report
  // answer for different caps. Perturb each field one at a time.
  const uint64_t base = SatOptions().Digest();
  std::vector<SatOptions> variants(10);
  variants[0].bounded_caps.max_depth += 1;
  variants[1].bounded_caps.max_star += 1;
  variants[2].bounded_caps.max_nodes += 1;
  variants[3].bounded_caps.max_trees += 1;
  variants[4].bounded_caps.max_fresh_values += 1;
  variants[5].skeleton_caps.max_nodes += 1;
  variants[6].skeleton_caps.max_desc_len += 1;
  variants[7].skeleton_caps.desc_repeat_cap += 1;
  variants[8].skeleton_caps.max_steps += 1;
  variants[9].compute_witness = !variants[9].compute_witness;
  std::vector<uint64_t> digests = {base};
  for (size_t i = 0; i < variants.size(); ++i) {
    uint64_t d = variants[i].Digest();
    for (uint64_t seen : digests) {
      EXPECT_NE(d, seen) << "variant " << i << " collides";
    }
    digests.push_back(d);
  }
  // Swapping values across order-sensitive positions must also change it.
  SatOptions swapped;
  std::swap(swapped.bounded_caps.max_depth, swapped.bounded_caps.max_star);
  EXPECT_NE(swapped.Digest(), base);
}

// --- RewriteCache: the LRU Prop 3.3 f(p) memo ------------------------------

TEST(RewriteCacheTest, ServesTheExactRewriteAndHitsOnRepeat) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> C\nB -> eps\nC -> eps\n");
  std::shared_ptr<const CompiledDtd> compiled = CompiledDtd::Compile(d);
  RewriteCache cache(64);
  std::unique_ptr<PathExpr> p = Path(".[A && B]/**/C");

  Result<std::shared_ptr<const PathExpr>> first =
      cache.GetOrRewrite(*p, *compiled);
  ASSERT_TRUE(first.ok()) << first.error();
  Result<std::unique_ptr<PathExpr>> direct =
      RewriteForNormalizedDtd(*p, compiled->dtd, compiled->norm);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(first.value()->ToString(), direct.value()->ToString());

  // The repeat serves the SAME AST object (no recomputation).
  Result<std::shared_ptr<const PathExpr>> second =
      cache.GetOrRewrite(*p, *compiled);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get(), first.value().get());

  // The deciders' entry point serves the cache when given one and computes
  // the same rewrite afresh, as a new AST, without it.
  Result<std::shared_ptr<const PathExpr>> served =
      RewriteOntoNormalForm(*p, *compiled, &cache);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().get(), first.value().get());
  Result<std::shared_ptr<const PathExpr>> uncached =
      RewriteOntoNormalForm(*p, *compiled, nullptr);
  ASSERT_TRUE(uncached.ok());
  EXPECT_NE(uncached.value().get(), first.value().get());
  EXPECT_EQ(uncached.value()->ToString(), direct.value()->ToString());
}

TEST(RewriteCacheTest, RandomizedParityWithDirectRewrite) {
  // 40 randomized (DTD, query) seeds: the cached rewrite prints identically
  // to the direct Prop 3.3 rewrite, and the second probe always hits.
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 3571 + 7);
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    std::shared_ptr<const CompiledDtd> compiled = CompiledDtd::Compile(d);
    RewriteCache cache(64);
    RandomPathOptions popt;  // no sibling axes: inside the rewrite fragment
    std::unique_ptr<PathExpr> p =
        RandomPath(&rng, {"A", "B", "C", "r"}, 3, popt);
    Result<std::unique_ptr<PathExpr>> direct =
        RewriteForNormalizedDtd(*p, compiled->dtd, compiled->norm);
    Result<std::shared_ptr<const PathExpr>> via_cache =
        cache.GetOrRewrite(*p, *compiled);
    ASSERT_EQ(direct.ok(), via_cache.ok()) << "seed " << seed;
    if (!direct.ok()) continue;  // errors are passed through, never cached
    EXPECT_EQ(via_cache.value()->ToString(), direct.value()->ToString())
        << "seed " << seed << ": " << p->ToString();
    Result<std::shared_ptr<const PathExpr>> again =
        cache.GetOrRewrite(*p, *compiled);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), via_cache.value().get()) << "seed " << seed;
  }
}

TEST(RewriteCacheTest, FingerprintCollidingDtdNeverServesForeignRewrite) {
  // A 64-bit FNV collision cannot be constructed cheaply, so forge one: two
  // structurally different schemas whose CompiledDtd carries the SAME
  // fingerprint field. The cache must detect the collision (EquivalentTo
  // verification), serve the second schema its OWN rewrite, and leave the
  // incumbent entry in place.
  Dtd d1 = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  Dtd d2 = ParseDtdOrDie("root r\nr -> A, A, C\nA -> C\nC -> eps\n");
  std::shared_ptr<const CompiledDtd> c1 = CompiledDtd::Compile(d1);
  CompiledDtd forged = *CompiledDtd::Compile(d2);
  forged.fingerprint = c1->fingerprint;  // the collision

  RewriteCache cache(64);
  std::unique_ptr<PathExpr> p = Path(".[A]/*");

  Result<std::shared_ptr<const PathExpr>> for_d1 =
      cache.GetOrRewrite(*p, *c1);
  ASSERT_TRUE(for_d1.ok()) << for_d1.error();
  Result<std::shared_ptr<const PathExpr>> for_forged =
      cache.GetOrRewrite(*p, forged);
  ASSERT_TRUE(for_forged.ok()) << for_forged.error();
  // Never the first schema's AST...
  EXPECT_NE(for_forged.value().get(), for_d1.value().get());
  // ...but exactly the forged schema's own direct rewrite.
  Result<std::unique_ptr<PathExpr>> direct2 =
      RewriteForNormalizedDtd(*p, forged.dtd, forged.norm);
  ASSERT_TRUE(direct2.ok());
  EXPECT_EQ(for_forged.value()->ToString(), direct2.value()->ToString());
  // The forged schema's rewrite was not cached: a repeat computes another.
  Result<std::shared_ptr<const PathExpr>> forged_again =
      cache.GetOrRewrite(*p, forged);
  ASSERT_TRUE(forged_again.ok());
  EXPECT_NE(forged_again.value().get(), for_forged.value().get());
  EXPECT_NE(forged_again.value().get(), for_d1.value().get());
  // The incumbent still serves the original schema its cached AST.
  Result<std::shared_ptr<const PathExpr>> d1_again =
      cache.GetOrRewrite(*p, *c1);
  ASSERT_TRUE(d1_again.ok());
  EXPECT_EQ(d1_again.value().get(), for_d1.value().get());
}

TEST(RewriteCacheTest, ErrorsArePassedThroughUncached) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  std::shared_ptr<const CompiledDtd> compiled = CompiledDtd::Compile(d);
  RewriteCache cache(64);
  std::unique_ptr<PathExpr> sibling = Path("A/>");  // outside the fragment
  EXPECT_FALSE(cache.GetOrRewrite(*sibling, *compiled).ok());
  EXPECT_FALSE(cache.GetOrRewrite(*sibling, *compiled).ok());  // not cached
}

TEST(SatisfiabilityTest, WitnessesAreVerifiable) {
  Dtd d = ParseDtdOrDie(
      "root r\nr -> A, (B + C)\nA -> eps\nB -> eps\nC -> eps\n");
  for (const char* q : {"A", ".[A && B]", "B|C", ".[!(B)]"}) {
    SatReport r = DecideSatisfiability(*Path(q), d);
    EXPECT_TRUE(r.sat()) << q;
    if (r.decision.witness.has_value()) {
      EXPECT_TRUE(d.Validate(*r.decision.witness).ok()) << q;
      EXPECT_TRUE(Satisfies(*r.decision.witness, *Path(q))) << q;
    }
  }
}

}  // namespace
}  // namespace xpathsat
