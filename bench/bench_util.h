// Shared helpers for the benchmark harness.
#ifndef XPATHSAT_BENCH_BENCH_UTIL_H_
#define XPATHSAT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/util/rng.h"

namespace xpathsat {

/// Aborts the benchmark run on a correctness violation: the harness is also a
/// validation pass (paper reproduction must not silently drift).
inline void BenchCheck(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "BENCH CORRECTNESS FAILURE: %s\n", what.c_str());
    std::abort();
  }
}

}  // namespace xpathsat

#endif  // XPATHSAT_BENCH_BENCH_UTIL_H_
