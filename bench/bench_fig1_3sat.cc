// Experiment F1 (Fig. 1 + Prop 4.3): the NP-hardness encodings of 3SAT into
// positive XPath fragments, decided with the Thm 4.4 skeleton procedure and
// validated against DPLL. Series: time vs number of variables (expect
// exponential worst-case shape; the paper's point is NP-hardness of
// SAT(X(↓,[])), SAT(X(∪,[])) and SAT(X(↓,↑))).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/reductions/encodings.h"
#include "src/reductions/threesat.h"
#include "src/sat/skeleton_sat.h"

namespace xpathsat {
namespace {

using Encoder = SatEncoding (*)(const ThreeSatInstance&);

void RunEncoding(benchmark::State& state, Encoder encode) {
  int num_vars = static_cast<int>(state.range(0));
  Rng rng(42 + num_vars);
  int num_clauses = num_vars * 2;
  ThreeSatInstance inst = RandomThreeSat(num_vars, num_clauses, &rng);
  bool expected = DpllSolve(inst);
  SatEncoding enc = encode(inst);
  auto compiled = CompiledDtd::Compile(enc.dtd);
  long long sat_count = 0;
  for (auto _ : state) {
    Result<SatDecision> r = SkeletonSat(*enc.query, *compiled);
    BenchCheck(r.ok(), r.error());
    BenchCheck(r.value().verdict != SatVerdict::kUnknown, "step cap hit");
    BenchCheck(r.value().sat() == expected, "disagrees with DPLL");
    sat_count += r.value().sat();
  }
  state.counters["vars"] = num_vars;
  state.counters["clauses"] = num_clauses;
  state.counters["query_size"] = enc.query->Size();
  state.counters["dtd_size"] = enc.dtd.Size();
  state.counters["satisfiable"] = expected;
}

void BM_Fig1Left_DownQual(benchmark::State& state) {
  RunEncoding(state, &EncodeThreeSatDownQual);
}
void BM_Fig1Right_UnionQual(benchmark::State& state) {
  RunEncoding(state, &EncodeThreeSatUnionQual);
}
void BM_Prop43_UpDown(benchmark::State& state) {
  RunEncoding(state, &EncodeThreeSatUpDown);
}

BENCHMARK(BM_Fig1Left_DownQual)->DenseRange(4, 14, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Fig1Right_UnionQual)->DenseRange(4, 14, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Prop43_UpDown)->DenseRange(4, 14, 2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xpathsat
