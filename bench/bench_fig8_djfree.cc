// Experiment F8 (Fig. 8, Thm 6.9): 3SAT into X(∪,[],=) and X(↓,[],=) under
// disjunction-free DTDs — data values restore NP-hardness that Thm 6.8
// removed for the data-free fragment. Validated against DPLL; contrast the
// growth with bench_ptime_deciders' disjunction-free series.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/reductions/encodings.h"
#include "src/reductions/threesat.h"
#include "src/sat/skeleton_sat.h"

namespace xpathsat {
namespace {

void RunDjfree(benchmark::State& state,
               SatEncoding (*encode)(const ThreeSatInstance&)) {
  int num_vars = static_cast<int>(state.range(0));
  Rng rng(200 + num_vars);
  ThreeSatInstance inst = RandomThreeSat(num_vars, 2 * num_vars, &rng);
  bool expected = DpllSolve(inst);
  SatEncoding enc = encode(inst);
  BenchCheck(enc.dtd.IsDisjunctionFree(), "DTD must be disjunction-free");
  SkeletonSatOptions opt;
  opt.max_steps = 100000000;
  auto compiled = CompiledDtd::Compile(enc.dtd);
  for (auto _ : state) {
    Result<SatDecision> r = SkeletonSat(*enc.query, *compiled, opt);
    BenchCheck(r.ok(), r.error());
    BenchCheck(r.value().verdict != SatVerdict::kUnknown, "step cap hit");
    BenchCheck(r.value().sat() == expected, "disagrees with DPLL");
  }
  state.counters["vars"] = num_vars;
  state.counters["satisfiable"] = expected;
  state.counters["query_size"] = enc.query->Size();
}

void BM_Fig8_DjfreeAttr(benchmark::State& state) {
  RunDjfree(state, &EncodeThreeSatDjfreeAttr);
}
void BM_Fig8_DjfreeDown(benchmark::State& state) {
  RunDjfree(state, &EncodeThreeSatDjfreeDown);
}

BENCHMARK(BM_Fig8_DjfreeAttr)->DenseRange(3, 7)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig8_DjfreeDown)->DenseRange(3, 6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpathsat
