// Experiment F6 (Fig. 6, Thm 6.6(2)): 3SAT into X(↓,[]) under a FIXED DTD —
// NP-hardness survives fixing the schema. Series: skeleton-search time vs
// clause count at fixed variable count, validated against DPLL.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/reductions/encodings.h"
#include "src/reductions/threesat.h"
#include "src/sat/skeleton_sat.h"

namespace xpathsat {
namespace {

void BM_Fig6_FixedDtdDownQual(benchmark::State& state) {
  int num_clauses = static_cast<int>(state.range(0));
  Rng rng(100 + num_clauses);
  ThreeSatInstance inst = RandomThreeSat(3, num_clauses, &rng);
  bool expected = DpllSolve(inst);
  SatEncoding enc = EncodeThreeSatFixedDown(inst);
  SkeletonSatOptions opt;
  opt.max_steps = 100000000;
  auto compiled = CompiledDtd::Compile(enc.dtd);
  for (auto _ : state) {
    Result<SatDecision> r = SkeletonSat(*enc.query, *compiled, opt);
    BenchCheck(r.ok(), r.error());
    BenchCheck(r.value().verdict != SatVerdict::kUnknown, "step cap hit");
    BenchCheck(r.value().sat() == expected, "disagrees with DPLL");
  }
  state.counters["clauses"] = num_clauses;
  state.counters["query_size"] = enc.query->Size();
  state.counters["dtd_size"] = enc.dtd.Size();  // constant: the DTD is fixed
  state.counters["satisfiable"] = expected;
}

BENCHMARK(BM_Fig6_FixedDtdDownQual)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpathsat
