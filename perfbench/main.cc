// perfbench: the serving benchmark's load generator (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH --work-dir DIR
//             [--commit SHA] [--smoke] [--inject-wrong-verdict] [--inject-err]
//
// Prints a `stamp {...}` line, then, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"}. A wrong verdict or any
// setup failure exits non-zero without a result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

namespace {

std::string g_replay;  // the command line that replays this run

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "repeat_hot|fresh_mix|schema_churn --seed N --seconds S "
               "--trace 0|1 --server PATH --work-dir DIR [--commit SHA] "
               "[--smoke] [--inject-wrong-verdict] [--inject-err]\n",
               why);
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload_name = value();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = value() == "1";
    } else if (a == "--server") {
      cfg.server_bin = value();
    } else if (a == "--work-dir") {
      cfg.work_dir = value();
    } else if (a == "--commit") {
      cfg.commit = value();
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--inject-wrong-verdict") {
      cfg.inject_wrong_verdict = true;
    } else if (a == "--inject-err") {
      cfg.inject_err = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  // The open-loop rates are fixed fractions of the closed-loop capacity
  // measured when the benchmark was added (pooled over the closed window,
  // median of five or more seeds on a shared 4-vCPU box: repeat_hot 166600
  // verdicts/s, fresh_mix 17400 verdicts/s, schema_churn 221 jobs/s): a
  // little under half for the verdict workloads, and a third for
  // schema_churn, whose 10 ms jobs queued long enough at 100 jobs/s that
  // the box's busy spells moved its latency by half. Never recomputed, so
  // a faster or slower build meets the same offered load.
  if (cfg.workload_name == "repeat_hot") {
    cfg.workload = Workload::kRepeatHot;
    cfg.closed_window = 4;
    cfg.open_rate = 75000;
  } else if (cfg.workload_name == "fresh_mix") {
    cfg.workload = Workload::kFreshMix;
    cfg.closed_window = 2;
    cfg.open_rate = 8000;
    // Open-loop batches of 16 finish in about a millisecond, so a verdict's
    // latency was mostly thread wake-ups: on a shared 4-vCPU box two
    // busy-loop neighbours raised the p50 by 46%, and freezing the server for
    // 3 ms in every 40 raised the p99 by 130%. A batch of 128 is ~7 ms of
    // decide work, and neither disturbance moved its p50 or p99 by more than
    // undisturbed runs of the same seed differ (up to 16%).
    cfg.open_batch = 128;
    cfg.trace_units = 3000;
  } else if (cfg.workload_name == "schema_churn") {
    cfg.workload = Workload::kSchemaChurn;
    cfg.closed_window = 2;
    cfg.open_rate = 70;
    cfg.closed_share = 0.2;
    cfg.trace_units = 1600;
  } else {
    Usage("unknown workload");
  }
  if (cfg.seconds <= 0 || cfg.server_bin.empty() || cfg.work_dir.empty()) {
    Usage("--seconds, --server and --work-dir are required");
  }
  if (cfg.smoke) {
    cfg.setup_reps = 2;
    cfg.working_set = 200;
    cfg.job_pool = 48;
    cfg.trace_units = 200;
  }
  g_replay = "python3 perfbench/run.py --workload " + cfg.workload_name +
             " --seed " + std::to_string(cfg.seed) + " --seconds " +
             JsonNumber(cfg.seconds) + " --trace " + (cfg.trace ? "1" : "0") +
             (cfg.smoke ? " --smoke" : "");
  return cfg;
}

}  // namespace

void Fail(const Config& cfg, const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED (%s, seed %llu): %s\n  replay: %s\n",
               cfg.workload_name.c_str(),
               static_cast<unsigned long long>(cfg.seed), what.c_str(),
               g_replay.c_str());
  std::fflush(stderr);
  StopServers();
  std::_Exit(3);
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg = ParseArgs(argc, argv);
  const unsigned nproc = std::thread::hardware_concurrency();
  const double load_before = LoadAverage();
  // Back-to-back runs of this benchmark alone keep the 1-minute load near
  // 3 on four cores; more than one runnable thread per core means another
  // tenant is competing.
  const bool loaded = load_before >= nproc;
  if (loaded) {
    std::fprintf(stderr,
                 "perfbench: warning: run starts on a loaded box (load %.2f "
                 "on %u cores)\n",
                 load_before, nproc);
  }
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);

  const int64_t prep0 = NowNs();
  const Stream stream = BuildStream(cfg);
  std::fprintf(stderr,
               "prep %s seed %llu: %zu schemas, %zu requests, oracle %d "
               "checked (%d definite), %.2f s\n",
               cfg.workload_name.c_str(),
               static_cast<unsigned long long>(cfg.seed), stream.schemas.size(),
               stream.requests.size(), stream.oracle_checked,
               stream.oracle_definite,
               static_cast<double>(NowNs() - prep0) / 1e9);

  const TimedResult timed = RunTimed(cfg, stream);
  const Metrics metrics = cfg.trace ? RunTraced(cfg, stream, timed) : timed.metrics;
  const double load_after = LoadAverage();
  std::filesystem::remove_all(cfg.work_dir);

  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d, \"commit\": %s, \"build_type\": %s, \"compiler\": %s, \"nproc\": "
      "%u, \"load_before\": %s, \"load_after\": %s, \"loaded_at_start\": %s, "
      "\"server_flags\": %s, \"transport\": %s, \"open_rate\": %s}\n",
      JsonString(cfg.workload_name).c_str(),
      static_cast<unsigned long long>(cfg.seed), JsonNumber(cfg.seconds).c_str(),
      cfg.trace ? 1 : 0, JsonString(cfg.commit.empty() ? "unknown" : cfg.commit).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString("gcc-compatible " __VERSION__).c_str(), nproc,
      JsonNumber(load_before).c_str(), JsonNumber(load_after).c_str(),
      loaded ? "true" : "false", JsonString(timed.server_flags).c_str(),
      JsonString("unix socket; 2 client::Client connections, batch framing, "
                 "text lines + binary frames")
          .c_str(),
      JsonNumber(cfg.open_rate).c_str());
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(timed.attempted) +
                    ", \"failed\": " + std::to_string(timed.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
           "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
