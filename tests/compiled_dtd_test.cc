// CompiledDtd artifacts must be faithful to the source DTD, and every
// decider must decide the same over an artifact that is shared, cached or
// restored from a snapshot as over one compiled for a single call. The
// deciders themselves are checked against the bounded-model oracle in
// property_test and the per-decider suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/sat/compiled_dtd.h"
#include "src/sat/djfree_sat.h"
#include "src/sat/reach_sat.h"
#include "src/sat/satisfiability.h"
#include "src/sat/sibling_sat.h"
#include "src/sat/skeleton_sat.h"
#include "src/store/snapshot.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

// The labels of a LabelGraph row, by name.
std::set<std::string> Labels(const LabelGraph& g, const uint64_t* row) {
  std::set<std::string> out;
  for (int id = 0; (id = g.Next(row, id)) >= 0; ++id) out.insert(g.names[id]);
  return out;
}

std::set<std::string> EdgesOf(const LabelGraph& g, const std::string& type) {
  return Labels(g, g.Edges(g.Id(type)));
}

std::set<std::string> ClosureOf(const LabelGraph& g,
                                const std::string& type) {
  return Labels(g, g.Closure(g.Id(type)));
}

TEST(CompiledDtdTest, FieldsMatchTheSourceDtd) {
  Dtd d = ParseDtdOrDie(
      "root r\nr -> A, B*\nA -> C*\nB -> eps\nC -> C\n"
      "attrs A: x\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_EQ(cd->fingerprint, d.Fingerprint());
  ASSERT_NE(cd->shared_dtd, nullptr);
  EXPECT_TRUE(cd->shared_dtd->EquivalentTo(d));
  EXPECT_EQ(cd->disjunction_free, d.IsDisjunctionFree());
  EXPECT_EQ(Labels(cd->graph, cd->graph.terminating.data()),
            d.TerminatingTypes());
  // C never terminates: no NFA, no graph node, no minimal size for it.
  EXPECT_EQ(cd->content_nfas.count("C"), 0u);
  EXPECT_EQ(cd->min_sizes.count("C"), 0u);
  EXPECT_EQ(cd->content_nfas.count("r"), 1u);
  // A terminates (the star can be empty), but its only mentioned child C is
  // nonterminating, so A has no realizable edge.
  EXPECT_TRUE(cd->graph.IsTerminating("A"));
  EXPECT_TRUE(EdgesOf(cd->graph, "A").empty());
  EXPECT_TRUE(EdgesOf(cd->graph, "r").count("A"));
}

TEST(CompiledDtdTest, RealizableEdgesRespectNontermination) {
  // B appears in P(r) but only next to the nonterminating C in one branch;
  // the realizable edge exists because the other branch works.
  Dtd d = ParseDtdOrDie("root r\nr -> (B, C) + B\nB -> eps\nC -> C\n");
  auto cd = CompiledDtd::Compile(d);
  EXPECT_TRUE(EdgesOf(cd->graph, "r").count("B"));
  EXPECT_FALSE(EdgesOf(cd->graph, "r").count("C"));
  // And closure is reflexive.
  EXPECT_TRUE(ClosureOf(cd->graph, "r").count("r"));
}

// Reference label graph over names: std::map/std::set rows, closure by a
// depth-first search per type. Its edge rule is
// independent of compiled_dtd.cc's: B is a realizable child of a
// terminating A iff the Glushkov automaton of P(A) has a B transition on an
// accepting run over terminating symbols. Over a normalized
// disjunction-free DTD that is "B terminates", the norm_graph rule.
struct StringSetGraph {
  std::set<std::string> terminating;
  std::map<std::string, std::set<std::string>> edges;
  std::map<std::string, std::set<std::string>> closure;
};

StringSetGraph BuildStringSetGraph(const Dtd& dtd) {
  StringSetGraph g;
  g.terminating = dtd.TerminatingTypes();
  for (const ElementType& t : dtd.types()) {
    if (!g.terminating.count(t.name)) continue;
    const Nfa nfa = BuildGlushkov(t.content);
    // Forward reachability from the start state and backward reachability
    // from the accepting states, over terminating symbols only.
    std::vector<bool> from_start(nfa.num_states), to_accept(nfa.accepting);
    from_start[nfa.start] = true;
    for (bool changed = true; changed;) {
      changed = false;
      for (int q = 0; q < nfa.num_states; ++q) {
        for (const auto& [sym, r] : nfa.trans[q]) {
          if (!g.terminating.count(sym)) continue;
          if (from_start[q] && !from_start[r]) changed = from_start[r] = true;
          if (to_accept[r] && !to_accept[q]) changed = to_accept[q] = true;
        }
      }
    }
    for (int q = 0; q < nfa.num_states; ++q) {
      for (const auto& [sym, r] : nfa.trans[q]) {
        if (from_start[q] && to_accept[r] && g.terminating.count(sym)) {
          g.edges[t.name].insert(sym);
        }
      }
    }
    g.closure[t.name].insert(t.name);
  }
  for (auto& [a, reach] : g.closure) {
    std::vector<std::string> stack = {a};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      for (const std::string& b : g.edges[cur]) {
        if (reach.insert(b).second) stack.push_back(b);
      }
    }
  }
  return g;
}

void ExpectMatchesReference(const LabelGraph& got, const Dtd& dtd) {
  StringSetGraph want = BuildStringSetGraph(dtd);
  std::vector<std::string> names = dtd.TypeNames();
  std::sort(names.begin(), names.end());
  ASSERT_EQ(got.names, names) << dtd.ToString();
  for (const std::string& name : names) {
    EXPECT_EQ(got.IsTerminating(name), want.terminating.count(name) > 0)
        << name << "\n" << dtd.ToString();
    EXPECT_EQ(EdgesOf(got, name), want.edges[name])
        << name << "\n" << dtd.ToString();
    EXPECT_EQ(ClosureOf(got, name), want.closure[name])
        << name << "\n" << dtd.ToString();
  }
}

// n types t0..t{n-1} (n > 64, so a row spans several words; names sort
// apart from declaration order) with random concatenations of mandatory,
// starred, starred-pair and (unless disjunction-free) two-way union
// children. Mandatory references go anywhere, so some types never
// terminate, and a starred pair with a nonterminating half admits neither.
Dtd WideRandomDtd(Rng* rng, int n, bool disjunction) {
  auto name = [](int i) { return "t" + std::to_string(i); };
  Dtd d;
  for (int i = 0; i < n; ++i) {
    std::vector<Regex> parts;
    for (int k = rng->IntIn(0, 3); k > 0; --k) {
      Regex sym = Regex::Symbol(name(rng->IntIn(0, n - 1)));
      Regex other = Regex::Symbol(name(rng->IntIn(0, n - 1)));
      switch (rng->IntIn(0, disjunction ? 3 : 2)) {
        case 0:
          parts.push_back(std::move(sym));
          break;
        case 1:
          parts.push_back(Regex::Star(std::move(sym)));
          break;
        case 2:
          parts.push_back(Regex::Star(
              Regex::Concat({std::move(sym), std::move(other)})));
          break;
        default:
          parts.push_back(Regex::Union({std::move(sym), std::move(other)}));
          break;
      }
    }
    d.SetProduction(name(i), parts.empty()
                                 ? Regex::Epsilon()
                                 : Regex::Concat(std::move(parts)));
  }
  d.SetRoot(name(0));
  return d;
}

TEST(CompiledDtdTest, BitsetGraphsMatchStringSetReference) {
  int norm_graphs = 0;
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<Dtd> dtds = {RandomDtd(&rng, false), RandomDtd(&rng, true),
                             WideRandomDtd(&rng, 65 + seed * 3, seed % 2)};
    for (const Dtd& d : dtds) {
      auto cd = CompiledDtd::Compile(d);
      ExpectMatchesReference(cd->graph, d);
      if (!cd->disjunction_free) continue;
      ExpectMatchesReference(cd->norm_graph, cd->norm.dtd);
      ++norm_graphs;
    }
  }
  EXPECT_GT(norm_graphs, 20);
}

// --- Artifact reuse and snapshot parity ------------------------------------
//
// The engine compiles a DTD once, shares the artifact across every query and
// thread, memoizes f(p) in a RewriteCache, and recompiles schemas restored
// from snapshots on restart. Each decider must return the same verdict there as
// on the one-shot path: a CompiledDtd::Compile made for that single call and
// no rewrite cache.

class CompiledAgreement : public ::testing::TestWithParam<int> {};

// One schema as the engine holds it: compiled once, plus the artifact a
// warm engine compiles from the schema record a snapshot carries.
struct HeldArtifacts {
  std::shared_ptr<const CompiledDtd> shared;
  std::shared_ptr<const CompiledDtd> restored;
};

HeldArtifacts Hold(const Dtd& d) {
  HeldArtifacts held;
  held.shared = CompiledDtd::Compile(d);
  Result<Dtd> decoded = store::DecodeSchemaRecord(
      store::EncodeSchemaRecord(d, d.Fingerprint()));
  EXPECT_TRUE(decoded.ok()) << decoded.error() << "\n" << d.ToString();
  held.restored =
      decoded.ok() ? CompiledDtd::Compile(decoded.value()) : held.shared;
  return held;
}

// Asserts `held` agrees with `one_shot` on status and verdict.
void ExpectSameDecision(const Result<SatDecision>& one_shot,
                        const Result<SatDecision>& held, const char* what,
                        const PathExpr& p, const Dtd& d) {
  ASSERT_EQ(one_shot.ok(), held.ok()) << what << ": " << p.ToString();
  if (!one_shot.ok()) return;
  EXPECT_EQ(one_shot.value().verdict, held.value().verdict)
      << what << ": " << p.ToString() << "\n" << d.ToString();
}

TEST_P(CompiledAgreement, ReachSatMatchesOneShot) {
  Rng rng(GetParam() * 131 + 3);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_filter = false;
  for (int round = 0; round < 5; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    HeldArtifacts held = Hold(d);
    for (int q = 0; q < 2; ++q) {
      auto p = RandomPath(&rng, labels, 3, opt);
      Result<SatDecision> one_shot = ReachSat(*p, *CompiledDtd::Compile(d));
      ExpectSameDecision(one_shot, ReachSat(*p, *held.shared), "shared", *p,
                         d);
      ExpectSameDecision(one_shot, ReachSat(*p, *held.restored), "restored",
                         *p, d);
      if (!one_shot.ok()) continue;
      // Witness-skipping must not change the verdict either.
      Result<SatDecision> nowit =
          ReachSat(*p, *held.restored, /*build_witness=*/false);
      ExpectSameDecision(one_shot, nowit, "no witness", *p, d);
      if (nowit.ok() && nowit.value().sat()) {
        EXPECT_FALSE(nowit.value().witness.has_value());
      }
      if (one_shot.value().sat()) {
        ASSERT_TRUE(one_shot.value().witness.has_value());
        EXPECT_TRUE(d.Validate(*one_shot.value().witness).ok())
            << p->ToString() << "\n" << d.ToString();
      }
    }
  }
}

TEST_P(CompiledAgreement, SiblingChainSatMatchesOneShot) {
  Rng rng(GetParam() * 137 + 5);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  for (int round = 0; round < 5; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(40));
    HeldArtifacts held = Hold(d);
    for (int q = 0; q < 2; ++q) {
      // Random chain in the Thm 7.1 fragment.
      std::unique_ptr<PathExpr> p;
      int levels = rng.IntIn(1, 3);
      for (int level = 0; level < levels; ++level) {
        std::unique_ptr<PathExpr> step =
            rng.Percent(30) ? PathExpr::Axis(PathKind::kChildAny)
                            : PathExpr::Label(labels[rng.Below(labels.size())]);
        p = p ? PathExpr::Seq(std::move(p), std::move(step)) : std::move(step);
        int moves = rng.IntIn(0, 2);
        for (int m = 0; m < moves; ++m) {
          p = PathExpr::Seq(
              std::move(p), PathExpr::Axis(rng.Percent(50) ? PathKind::kRightSib
                                                           : PathKind::kLeftSib));
        }
      }
      Result<SatDecision> one_shot =
          SiblingChainSat(*p, *CompiledDtd::Compile(d));
      ExpectSameDecision(one_shot, SiblingChainSat(*p, *held.shared), "shared",
                         *p, d);
      ExpectSameDecision(one_shot, SiblingChainSat(*p, *held.restored),
                         "restored", *p, d);
    }
  }
}

TEST_P(CompiledAgreement, DisjunctionFreeSatMatchesOneShot) {
  Rng rng(GetParam() * 139 + 7);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RewriteCache rewrites(64);
  for (int round = 0; round < 10; ++round) {
    Dtd d = RandomDtd(&rng, /*recursive=*/false);
    if (!d.IsDisjunctionFree()) continue;
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3);
    Result<SatDecision> one_shot =
        DisjunctionFreeSat(*p, *CompiledDtd::Compile(d));
    // The first cached call computes f(p); the second is served by the
    // cache, over the restored artifact of the same schema.
    ExpectSameDecision(one_shot, DisjunctionFreeSat(*p, *held.shared, &rewrites),
                       "shared, cache miss", *p, d);
    ExpectSameDecision(one_shot,
                       DisjunctionFreeSat(*p, *held.restored, &rewrites),
                       "restored, cache hit", *p, d);
  }
}

TEST_P(CompiledAgreement, SkeletonSatMatchesOneShot) {
  Rng rng(GetParam() * 149 + 11);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_data = true;
  RewriteCache rewrites(64);
  for (int round = 0; round < 6; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    Result<SatDecision> one_shot = SkeletonSat(*p, *CompiledDtd::Compile(d));
    ExpectSameDecision(one_shot, SkeletonSat(*p, *held.shared, {}, &rewrites),
                       "shared, cache miss", *p, d);
    ExpectSameDecision(one_shot, SkeletonSat(*p, *held.restored, {}, &rewrites),
                       "restored, cache hit", *p, d);
  }
}

TEST_P(CompiledAgreement, FacadeDispatchMatchesCompiledDispatch) {
  Rng rng(GetParam() * 151 + 13);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_negation = true;
  opt.allow_sibling = true;
  // No data values here: negation+data is the undecidable fragment (Thm 5.4)
  // where the bounded oracle enumerates attribute assignments exponentially —
  // random instances can stall for minutes. Data values are swept in
  // SkeletonSatMatchesOneShot (positive fragment) instead.
  // Small bounded-model caps keep pathological negation instances fast; the
  // same caps go to both sides, so parity is still exact (possibly kUnknown
  // on both).
  SatOptions caps;
  caps.bounded_caps.max_depth = 6;
  caps.bounded_caps.max_nodes = 60;
  caps.bounded_caps.max_star = 3;
  caps.bounded_caps.max_trees = 20000;
  caps.skeleton_caps.max_steps = 50000;
  RewriteCache rewrites(64);
  for (int round = 0; round < 8; ++round) {
    Dtd d = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    HeldArtifacts held = Hold(d);
    auto p = RandomPath(&rng, labels, 3, opt);
    SatReport facade = DecideSatisfiability(*p, d, caps);
    SatReport restored =
        DecideSatisfiability(*p, *held.restored, caps, &rewrites);
    EXPECT_EQ(facade.decision.verdict, restored.decision.verdict)
        << p->ToString() << "\n" << d.ToString();
    EXPECT_EQ(facade.algorithm, restored.algorithm) << p->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledAgreement, ::testing::Range(0, 20));

}  // namespace
}  // namespace xpathsat
