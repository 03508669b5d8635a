// Shared types of the serving benchmark (see README.md in this directory).
//
// A run generates one workload's inputs from its seed (gen.cc), computes
// every request's expected verdict in process, then either drives a real
// `xpathsat_server` over a unix socket and reports the end-to-end metrics
// (timed.cc), or replays the same stream through the public entry points of
// each layer and reports per-layer metrics (traced.cc).
#ifndef XPATHSAT_PERFBENCH_BENCH_H_
#define XPATHSAT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sat/compiled_dtd.h"
#include "src/sat/decision.h"
#include "src/sat/satisfiability.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Workload { kRepeatHot, kFreshMix, kSchemaChurn };

/// Everything a run is parameterized by. Sizes and the open-loop rate are
/// fixed per workload in main.cc.
struct Config {
  Workload workload = Workload::kRepeatHot;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          // tiny sizes, for the self-tests
  std::string server_bin;      // path of xpathsat_server
  std::string work_dir;        // generated files, sockets, snapshots
  std::string commit;          // stamped into the result set
  double open_rate = 0;        // ops per second in the open-loop phase
  int server_threads = 2;      // --threads of the server's engine
  int setup_reps = 9;          // server start-ups timed for setup_s
  double closed_share = 0.3;   // share of `seconds` spent in the closed loop
  int batch = 16;              // queries per batch (warm-up, closed loop)
  int open_batch = 16;         // queries per batch (open loop)
  int closed_window = 4;       // ops in flight per connection (closed loop)
  int working_set = 2000;      // repeat_hot (query, DTD) pairs
  int job_queries = 16;        // schema_churn queries per job
  int job_pool = 300;          // schema_churn fixed query pool
  int trace_units = 4000;      // requests replayed by the traced ladder
  // Self-tests: flip one expected verdict / corrupt one op on the wire.
  bool inject_wrong_verdict = false;
  bool inject_err = false;
};

/// One DTD the run uses, written to `path` for the server to read.
struct Schema {
  std::string name;  // wire name (per connection)
  std::string path;  // relative to the working directory
  std::string text;
  bool at_setup = false;  // registered on every connection during setup
  std::shared_ptr<const xpathsat::CompiledDtd> compiled;  // prep only
};

/// One query request with its precomputed expected verdict.
struct Request {
  int schema = 0;
  std::string query;  // canonical printing (PathExpr::ToString)
  xpathsat::SatVerdict expected = xpathsat::SatVerdict::kUnknown;
};

/// The unit a latency is measured for: a batch of queries against one
/// schema, or (schema_churn) a whole audit job `dtd` + batch + `drop`.
struct Op {
  int schema = 0;
  std::vector<int> requests;
  bool job = false;
};

struct Stream {
  std::vector<Schema> schemas;
  std::vector<Request> requests;
  std::vector<Op> warmup;  // setup-time warm-up pass
  std::vector<Op> closed;  // closed-loop ops (a cursor walks them)
  std::vector<Op> open;    // open-loop ops, one due time each
  int oracle_checked = 0;  // requests also checked by the bounded oracle
  int oracle_definite = 0;
};

/// Short route name from a SatReport::algorithm ("reach", "djfree", ...).
std::string RouteName(const std::string& algorithm);
extern const char* const kRoutes[];
extern const int kRouteCount;

/// Builds the workload's stream from cfg.seed, writes its DTD files under
/// cfg.work_dir, and computes every expected verdict (plus the oracle
/// sample). Aborts the process with a replayable message on a generator or
/// oracle failure.
Stream BuildStream(const Config& cfg);

/// "sat" / "unsat" / "unknown" — the wire verdict token.
const char* VerdictToken(xpathsat::SatVerdict v);

/// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one timed run measured.
struct TimedResult {
  Metrics metrics;  // end-to-end metrics
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double failed_ratio = 0;
  double unknown_ratio = 0;
  double gen_lag_p99_us = 0;
  double gen_cpu_frac = 0;
  double ops_per_s_pooled = 0;       // whole closed window
  double latency_p99_pooled_us = 0;  // whole open loop
  std::string snapshot_path;  // donor snapshot (repeat_hot), for the ladder
  std::string server_flags;
};

TimedResult RunTimed(const Config& cfg, const Stream& stream);
Metrics RunTraced(const Config& cfg, const Stream& stream,
                  const TimedResult& timed);

/// Aborts the run: prints `what` and the replay command, stops every
/// server this process started, exits non-zero without a result line.
[[noreturn]] void Fail(const Config& cfg, const std::string& what);
/// Kills and reaps every server process still running (timed.cc).
void StopServers();

/// Exact percentile (nearest rank on a sorted copy); 0 for no samples.
double Percentile(std::vector<double> values, double pct);

}  // namespace perfbench

#endif  // XPATHSAT_PERFBENCH_BENCH_H_
