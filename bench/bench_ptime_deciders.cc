// Experiments A1-A4: the paper's polynomial-time algorithms at scale. Each
// series sweeps |p| and |D| into the thousands; the measured growth should be
// a low polynomial, in contrast with the exponential encodings benchmarks:
//   A1: Thm 4.1  reach DP for X(↓,↓*,∪)
//   A2: Thm 6.8  reach/sat DP under disjunction-free DTDs
//   A3: Thm 6.11 no-DTD procedures (downward DP and canonical CQ)
//   A4: Thm 7.1  sibling-chain NFA procedure
// The decide series time the decider alone over a DTD compiled before the
// loop; the *_Compile series time CompiledDtd::Compile on the same DTD
// families, so the per-DTD setup cost stays visible. The A1 and A2 series
// take N = the DTD's chain depth (|D| and |p| both grow with it) and print
// Google Benchmark's least-squares big-O fit and its RMS.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/sat/compiled_dtd.h"
#include "src/sat/cq_sat.h"
#include "src/sat/djfree_sat.h"
#include "src/sat/nodtd_sat.h"
#include "src/sat/reach_sat.h"
#include "src/sat/sibling_sat.h"

namespace xpathsat {
namespace {

// Deep linear DTD: r -> A1, A1 -> A2 + B, ..., plus a star level.
Dtd DeepDtd(int depth) {
  Dtd d;
  d.SetRoot("r");
  d.SetProduction("r", Regex::Symbol("T1"));
  for (int i = 1; i < depth; ++i) {
    std::string cur = "T" + std::to_string(i);
    std::string next = "T" + std::to_string(i + 1);
    d.SetProduction(cur, Regex::Union({Regex::Symbol(next),
                                       Regex::Star(Regex::Symbol("B"))}));
  }
  d.SetProduction("T" + std::to_string(depth), Regex::Epsilon());
  d.SetProduction("B", Regex::Epsilon());
  d.SetRoot("r");
  return d;
}

std::unique_ptr<PathExpr> DeepQuery(int steps) {
  std::vector<std::unique_ptr<PathExpr>> parts;
  parts.push_back(PathExpr::Axis(PathKind::kDescOrSelf));
  for (int i = 1; i <= steps; ++i) {
    parts.push_back(PathExpr::Label("T" + std::to_string(i)));
  }
  return PathExpr::SeqAll(std::move(parts));
}

void BM_A1_ReachDp(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Dtd d = DeepDtd(depth);
  auto compiled = CompiledDtd::Compile(d);
  auto p = DeepQuery(depth / 2);
  for (auto _ : state) {
    Result<SatDecision> r = ReachSat(*p, *compiled);
    BenchCheck(r.ok() && r.value().sat(), "deep chain must be satisfiable");
  }
  state.SetComplexityN(depth);
  state.counters["dtd_size"] = d.Size();
  state.counters["query_size"] = p->Size();
}

BENCHMARK(BM_A1_ReachDp)->RangeMultiplier(2)->Range(8, 256)->Unit(benchmark::kMicrosecond)->Complexity();

// Compile cost of one DTD family, swept like the matching decide series.
void RunCompile(benchmark::State& state, Dtd (*family)(int)) {
  Dtd d = family(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompiledDtd::Compile(d));
  }
  state.SetComplexityN(state.range(0));
  state.counters["dtd_size"] = d.Size();
}

void BM_A1_Compile(benchmark::State& state) { RunCompile(state, &DeepDtd); }

BENCHMARK(BM_A1_Compile)->RangeMultiplier(2)->Range(8, 256)->Unit(benchmark::kMicrosecond)->Complexity();

Dtd DjfreeDeepDtd(int depth) {
  Dtd d;
  d.SetRoot("r");
  d.SetProduction("r", Regex::Symbol("T1"));
  for (int i = 1; i < depth; ++i) {
    std::string cur = "T" + std::to_string(i);
    std::string next = "T" + std::to_string(i + 1);
    d.SetProduction(cur, Regex::Concat({Regex::Symbol(next),
                                        Regex::Star(Regex::Symbol("B"))}));
  }
  d.SetProduction("T" + std::to_string(depth), Regex::Epsilon());
  d.SetProduction("B", Regex::Epsilon());
  d.SetRoot("r");
  return d;
}

void BM_A2_DisjunctionFreeDp(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Dtd d = DjfreeDeepDtd(depth);
  auto compiled = CompiledDtd::Compile(d);
  // Conjunction of qualifiers along the spine.
  std::vector<std::unique_ptr<Qualifier>> qs;
  for (int i = 1; i <= depth / 2; ++i) {
    qs.push_back(Qualifier::Path(PathExpr::Seq(
        PathExpr::Axis(PathKind::kDescOrSelf),
        PathExpr::Label("T" + std::to_string(i)))));
  }
  auto p = PathExpr::Filter(PathExpr::Empty(), Qualifier::AndAll(std::move(qs)));
  for (auto _ : state) {
    Result<SatDecision> r = DisjunctionFreeSat(*p, *compiled);
    BenchCheck(r.ok() && r.value().sat(), "spine qualifiers must be sat");
  }
  state.SetComplexityN(depth);
  state.counters["dtd_size"] = d.Size();
  state.counters["query_size"] = p->Size();
}

BENCHMARK(BM_A2_DisjunctionFreeDp)->RangeMultiplier(2)->Range(8, 128)->Unit(benchmark::kMicrosecond)->Complexity();

void BM_A2_Compile(benchmark::State& state) {
  RunCompile(state, &DjfreeDeepDtd);
}

BENCHMARK(BM_A2_Compile)->RangeMultiplier(2)->Range(8, 128)->Unit(benchmark::kMicrosecond)->Complexity();

void BM_A3_NoDtdDp(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  // Wide conjunction of label-tested branches: always satisfiable.
  std::vector<std::unique_ptr<Qualifier>> qs;
  for (int i = 0; i < width; ++i) {
    qs.push_back(Qualifier::Path(PathExpr::Filter(
        PathExpr::Label("A" + std::to_string(i)),
        Qualifier::LabelTest("A" + std::to_string(i)))));
  }
  auto p = PathExpr::Filter(PathExpr::Empty(), Qualifier::AndAll(std::move(qs)));
  for (auto _ : state) {
    Result<SatDecision> r = NoDtdSat(*p);
    BenchCheck(r.ok() && r.value().sat(), "no-DTD conjunction must be sat");
  }
  state.counters["query_size"] = p->Size();
}

BENCHMARK(BM_A3_NoDtdDp)->RangeMultiplier(2)->Range(8, 256)->Unit(benchmark::kMicrosecond);

void BM_A3_CanonicalCq(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  // Down k, join attributes across an up-down zigzag.
  std::vector<std::unique_ptr<PathExpr>> down;
  for (int i = 0; i < depth; ++i) down.push_back(PathExpr::Label("A"));
  auto p = PathExpr::Filter(
      PathExpr::SeqAll(std::move(down)),
      Qualifier::AttrJoin(PathExpr::Empty(), "v", CmpOp::kEq,
                          PathExpr::Axis(PathKind::kParent), "v"));
  for (auto _ : state) {
    Result<SatDecision> r = CqSat(*p);
    BenchCheck(r.ok() && r.value().sat(), "CQ chain must be satisfiable");
  }
  state.counters["query_size"] = p->Size();
}

BENCHMARK(BM_A3_CanonicalCq)->RangeMultiplier(2)->Range(8, 512)->Unit(benchmark::kMicrosecond);

// r -> (A, B)*: one fixed DTD whatever the walk length.
Dtd SiblingStarDtd(int /*unused*/) {
  Dtd d;
  d.SetRoot("r");
  d.SetProduction("r", Regex::Star(Regex::Concat({Regex::Symbol("A"),
                                                  Regex::Symbol("B")})));
  d.SetProduction("A", Regex::Epsilon());
  d.SetProduction("B", Regex::Epsilon());
  d.SetRoot("r");
  return d;
}

void BM_A4_SiblingChains(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  // The query walks right across the (A, B)^w expansion.
  auto compiled = CompiledDtd::Compile(SiblingStarDtd(width));
  std::vector<std::unique_ptr<PathExpr>> steps;
  steps.push_back(PathExpr::Label("A"));
  for (int i = 0; i < width; ++i) {
    steps.push_back(PathExpr::Axis(PathKind::kRightSib));
  }
  auto p = PathExpr::SeqAll(std::move(steps));
  for (auto _ : state) {
    Result<SatDecision> r = SiblingChainSat(*p, *compiled);
    BenchCheck(r.ok() && r.value().sat(), "sibling walk must be satisfiable");
  }
  state.counters["moves"] = width;
  state.counters["query_size"] = p->Size();
}

BENCHMARK(BM_A4_SiblingChains)->RangeMultiplier(2)->Range(8, 256)->Unit(benchmark::kMicrosecond);

void BM_A4_Compile(benchmark::State& state) {
  RunCompile(state, &SiblingStarDtd);
}

BENCHMARK(BM_A4_Compile)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xpathsat
