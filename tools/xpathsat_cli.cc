// xpathsat_cli — satisfiability workload driver over the session-oriented
// SatEngine.
//
// Batch modes (lines starting with '#' and blank lines are ignored):
//   * one DTD, many queries:
//       xpathsat_cli --dtd schema.dtd --queries workload.txt
//     where workload.txt holds one query per line;
//   * a manifest of (DTD file, query) pairs:
//       xpathsat_cli --manifest pairs.txt
//     where each line is `<dtd-path> <query>` (first whitespace splits; DTD
//     files are registered once and shared across their lines).
//
// Service mode (models steady-state traffic against one long-lived engine):
//       xpathsat_cli --serve
//     speaks the shared line protocol (src/server/protocol.h — the same
//     parser and formatters as xpathsat_server) over stdin/stdout:
//     dtd/query/drop/cancel/flush/stats/quit. `query` is acked immediately
//     with `ok query ID`; the result line `ID [verdict] ...` is pipelined
//     later by whichever engine thread completes the ticket, so results may
//     arrive out of submission order. Malformed input (unknown verb,
//     missing argument, oversized line) answers with a structured
//     `err CODE detail` line and the stream continues.
//
// Client mode (drive a running xpathsat_server):
//       xpathsat_cli --connect unix:PATH
//       xpathsat_cli --connect HOST:PORT
//     forwards stdin lines to the server and prints every reply line to
//     stdout; exits when the server closes the connection (after `quit`) or
//     stdin ends (the write side is shut down, then remaining replies are
//     drained).
//
// Options:
//   --threads N       worker threads, N >= 1 (default: hardware concurrency)
//   --repeat K        run the workload K >= 1 times through one engine
//                     (K >= 2 exercises the warm caches and the verdict
//                     memo; default 1)
//   --deadline-ms M   per-request deadline cap, M >= 0; still-queued work is
//                     cancelled when it expires (default 0: none)
//   --no-memo         disable verdict memoization (repeat rounds then
//                     re-run the deciders)
//   --json FILE       also write per-request results + summary as JSON
//                     (summary only in --serve mode)
//   --quiet           suppress per-request lines (summary only)
//
// Numeric flags are validated: garbage, trailing junk, or out-of-range
// values are a usage error, not a silent misconfiguration.
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/engine/sat_engine.h"
#include "src/obs/metrics.h"
#include "src/server/protocol.h"
#include "src/server/session.h"
#include "src/util/flags.h"
#include "src/util/mutex.h"
#include "src/xml/dtd.h"

using namespace xpathsat;

namespace {

struct CliOptions {
  std::string dtd_file;
  std::string queries_file;
  std::string manifest_file;
  std::string json_file;
  std::string connect_target;
  bool serve = false;
  long long threads = 0;
  long long repeat = 1;
  long long deadline_ms = 0;
  bool no_memo = false;
  bool quiet = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--dtd FILE --queries FILE | --manifest FILE | --serve |\n"
      "           --connect unix:PATH | --connect HOST:PORT)\n"
      "          [--threads N] [--repeat K] [--deadline-ms M] [--no-memo]\n"
      "          [--json FILE] [--quiet]\n",
      argv0);
}

/// Strict integer flag parsing (shared validation in src/util/flags.h):
/// garbage, trailing junk, negative counts, and overflow are usage errors.
long long ParseIntFlag(const char* argv0, const char* flag, const char* text,
                       long long min_value, long long max_value) {
  flags::ParsedInt parsed = flags::ParseInt(text, min_value, max_value);
  if (!parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", flag, parsed.error.c_str());
    Usage(argv0);
    std::exit(1);
  }
  return parsed.value;
}

bool ReadLines(const std::string& path, std::vector<std::string>* out,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    // Trim trailing CR (manifests written on other platforms) and skip
    // comments / blank lines.
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    out->push_back(line.substr(start));
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

SatEngine MakeEngine(const CliOptions& opt) {
  SatEngineOptions engine_opt;
  engine_opt.num_threads = static_cast<int>(opt.threads);
  if (opt.no_memo) engine_opt.memo_capacity = 0;
  return SatEngine(engine_opt);
}

// One source of truth for the stats object: the protocol formatter the
// server's `stats`/`health` verbs use (so the CLI JSON carries uptime_ms,
// snapshot_seq and the live-handle and live-artifact gauges like everything
// else).
void WriteJsonStats(std::ostream& out, const SatEngine& engine) {
  out << "\"stats\": " << protocol::FormatStatsJson(engine.stats());
}

// Per-phase latency summaries from the engine's histograms: only phases that
// actually ran appear (e.g. no "request_parse_ns" in a fully query-cached
// round). Percentiles are log2-bucket upper bounds — see src/obs/metrics.h.
void WriteJsonLatency(std::ostream& out, const SatEngine& engine) {
  static const char* const kPhases[] = {
      "request_queue_ns",  "request_parse_ns", "request_rewrite_ns",
      "request_decide_ns", "request_total_ns", "dtd_compile_ns"};
  out << "\"latency\": {";
  bool first = true;
  for (const char* name : kPhases) {
    const obs::Histogram* hist = engine.metrics().FindHistogram(name);
    if (hist == nullptr) continue;
    obs::Histogram::Snapshot s = hist->TakeSnapshot();
    if (s.count == 0) continue;
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"count\": " << s.count
        << ", \"sum_ns\": " << s.sum_ns
        << ", \"p50_ns\": " << s.PercentileNs(0.50)
        << ", \"p90_ns\": " << s.PercentileNs(0.90)
        << ", \"p99_ns\": " << s.PercentileNs(0.99)
        << ", \"max_ns\": " << s.max_ns << "}";
  }
  out << "}";
}

// ---------------------------------------------------------------------------
// Service mode: the shared protocol session over stdin/stdout. One
// implementation with xpathsat_server — this is just the stdin transport.

int RunServe(const CliOptions& opt) {
  SatEngine engine = MakeEngine(opt);
  server::SessionOptions session_opt;
  session_opt.deadline_ms = opt.deadline_ms;
  // Engine threads emit result lines concurrently with the reader's acks.
  util::Mutex out_mu;
  auto emit = [&out_mu](const std::string& line) {
    util::MutexLock lock(out_mu);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  {
    server::ServerSession session(&engine, session_opt, emit);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!session.HandleLine(line)) break;
    }
    // A batch still collecting members when stdin ends must be refused
    // before the drain, so the client learns nothing was submitted.
    session.OnInputClosed();
    // ~ServerSession drains: every pending result line is printed before
    // the final stats.
  }
  emit(protocol::FormatStatsLine(engine.stats()));
  if (!opt.json_file.empty()) {
    std::ofstream out(opt.json_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_file.c_str());
      return 1;
    }
    out << "{";
    WriteJsonStats(out, engine);
    out << ", ";
    WriteJsonLatency(out, engine);
    out << "}\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Client mode: pipe stdin lines to a running xpathsat_server and print every
// reply line. This is client::Client in raw mode — the line tap prints every
// reply verbatim (result lines are pipelined out of order while we are still
// writing), SendRaw forwards stdin lines, and no hello/auth is sent so the
// wire conversation is exactly what the user typed.

int RunConnect(const CliOptions& opt) {
  client::ClientOptions client_opt;
  client_opt.target = opt.connect_target;
  Result<std::unique_ptr<client::Client>> conn =
      client::Client::Connect(client_opt);
  if (!conn.ok()) {
    std::fprintf(stderr, "%s\n", conn.error().c_str());
    return 1;
  }
  std::unique_ptr<client::Client> remote = std::move(conn).value();
  remote->set_line_tap([](const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  });

  std::string line;
  while (std::getline(std::cin, line)) {
    Status sent = remote->SendRaw(line);
    if (!sent.ok()) {
      std::fprintf(stderr, "connection lost: %s\n", sent.message().c_str());
      break;
    }
  }
  // No more requests: half-close so the server finishes the session (its
  // EOF path drains in-flight work), then collect the remaining replies.
  remote->ShutdownWrites();
  remote->WaitForServerEof();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", what);
        Usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--dtd") {
      opt.dtd_file = next("--dtd");
    } else if (arg == "--queries") {
      opt.queries_file = next("--queries");
    } else if (arg == "--manifest") {
      opt.manifest_file = next("--manifest");
    } else if (arg == "--json") {
      opt.json_file = next("--json");
    } else if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--connect") {
      opt.connect_target = next("--connect");
    } else if (arg == "--threads") {
      opt.threads = ParseIntFlag(argv[0], "--threads", next("--threads"), 1,
                                 1 << 20);
    } else if (arg == "--repeat") {
      opt.repeat = ParseIntFlag(argv[0], "--repeat", next("--repeat"), 1,
                                1000000);
    } else if (arg == "--deadline-ms") {
      opt.deadline_ms = ParseIntFlag(argv[0], "--deadline-ms",
                                     next("--deadline-ms"), 0,
                                     1000LL * 1000 * 1000);
    } else if (arg == "--no-memo") {
      opt.no_memo = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 1;
    }
  }
  bool single_mode = !opt.dtd_file.empty() || !opt.queries_file.empty();
  bool manifest_mode = !opt.manifest_file.empty();
  int modes = (single_mode ? 1 : 0) + (manifest_mode ? 1 : 0) +
              (opt.serve ? 1 : 0) + (opt.connect_target.empty() ? 0 : 1);
  if (modes != 1 ||
      (single_mode && (opt.dtd_file.empty() || opt.queries_file.empty()))) {
    Usage(argv[0]);
    return 1;
  }
  if (opt.serve) return RunServe(opt);
  if (!opt.connect_target.empty()) return RunConnect(opt);

  // Load the workload: register every referenced DTD once; requests carry
  // handles, so the engine keeps the compiled artifacts alive — the parsed
  // Dtd objects are not needed beyond registration.
  SatEngine engine = MakeEngine(opt);
  std::map<std::string, DtdHandle> dtds;  // path -> registered handle
  auto load_dtd = [&](const std::string& path) -> DtdHandle {
    auto it = dtds.find(path);
    if (it != dtds.end()) return it->second;
    std::string text, error;
    if (!ReadFile(path, &text, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return DtdHandle();
    }
    Result<DtdHandle> handle = engine.RegisterDtdText(text);
    if (!handle.ok()) {
      std::fprintf(stderr, "DTD parse error in %s: %s\n", path.c_str(),
                   handle.error().c_str());
      return DtdHandle();
    }
    dtds.emplace(path, handle.value());
    return std::move(handle).value();
  };

  std::vector<SatRequest> workload;
  std::string error;
  if (single_mode) {
    DtdHandle dtd = load_dtd(opt.dtd_file);
    if (!dtd.valid()) return 1;
    std::vector<std::string> lines;
    if (!ReadLines(opt.queries_file, &lines, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (const std::string& q : lines) {
      SatRequest r;
      r.query = q;
      r.dtd = dtd;
      r.deadline_ms = opt.deadline_ms;
      workload.push_back(std::move(r));
    }
  } else {
    std::vector<std::string> lines;
    if (!ReadLines(opt.manifest_file, &lines, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (const std::string& line : lines) {
      size_t split = line.find_first_of(" \t");
      size_t qstart =
          split == std::string::npos ? split : line.find_first_not_of(" \t", split);
      if (qstart == std::string::npos) {
        std::fprintf(stderr, "manifest line has no query: %s\n", line.c_str());
        return 1;
      }
      std::string path = line.substr(0, split);
      DtdHandle dtd = load_dtd(path);
      if (!dtd.valid()) return 1;
      SatRequest r;
      r.query = line.substr(qstart);
      r.dtd = dtd;
      r.deadline_ms = opt.deadline_ms;
      workload.push_back(std::move(r));
    }
  }
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point t0 = Clock::now();
  // Only the warmest (last) round is reported; don't hold earlier rounds'
  // responses (and their witness trees) in memory.
  std::vector<SatResponse> last;
  for (long long k = 0; k < opt.repeat; ++k) {
    last = engine.RunBatch(workload);
  }
  double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  int n_sat = 0, n_unsat = 0, n_unknown = 0, n_error = 0;
  for (size_t i = 0; i < last.size(); ++i) {
    const SatResponse& r = last[i];
    if (!r.status.ok()) {
      ++n_error;
    } else if (r.report.decision.verdict == SatVerdict::kSat) {
      ++n_sat;
    } else if (r.report.decision.verdict == SatVerdict::kUnsat) {
      ++n_unsat;
    } else {
      ++n_unknown;
    }
    if (opt.quiet) continue;
    if (!r.status.ok()) {
      std::printf("[error  ] %-40s %s\n", workload[i].query.c_str(),
                  r.status.message().c_str());
      continue;
    }
    std::printf("[%-7s] %-40s %-32s %9.1fus dtd=%016llx%s%s\n", protocol::VerdictName(r),
                workload[i].query.c_str(), r.report.algorithm.c_str(),
                r.elapsed_us,
                static_cast<unsigned long long>(r.dtd_fingerprint),
                r.query_cache_hit ? " q-cached" : "",
                r.memo_hit ? " memo" : "");
  }

  SatEngineStats stats = engine.stats();
  size_t total = workload.size() * static_cast<size_t>(opt.repeat);
  double throughput = total / (wall_ms / 1000.0);
  std::printf(
      "\n%zu request(s) x %lld round(s) on %d thread(s): "
      "%d sat, %d unsat, %d unknown, %d error\n"
      "wall %.1f ms (%.0f req/s) | dtd cache %llu/%llu hits | "
      "query cache %llu/%llu hits | memo %llu/%llu hits | "
      "rewrite cache %llu/%llu hits | "
      "%llu cancellations | %llu deadline expirations\n",
      workload.size(), opt.repeat, engine.num_threads(), n_sat, n_unsat,
      n_unknown, n_error, wall_ms, throughput,
      static_cast<unsigned long long>(stats.dtd_cache_hits),
      static_cast<unsigned long long>(stats.dtd_cache_hits +
                                      stats.dtd_cache_misses),
      static_cast<unsigned long long>(stats.query_cache_hits),
      static_cast<unsigned long long>(stats.query_cache_hits +
                                      stats.query_cache_misses),
      static_cast<unsigned long long>(stats.memo_hits),
      static_cast<unsigned long long>(stats.memo_hits + stats.memo_misses),
      static_cast<unsigned long long>(stats.rewrite_cache_hits),
      static_cast<unsigned long long>(stats.rewrite_cache_hits +
                                      stats.rewrite_cache_misses),
      static_cast<unsigned long long>(stats.cancellations),
      static_cast<unsigned long long>(stats.deadline_expirations));
  if (const obs::Histogram* hist =
          engine.metrics().FindHistogram("request_total_ns")) {
    obs::Histogram::Snapshot s = hist->TakeSnapshot();
    if (s.count > 0) {
      std::printf(
          "request latency p50/p90/p99/max: %.1f/%.1f/%.1f/%.1f us "
          "(log2-bucket upper bounds over %llu request(s))\n",
          s.PercentileNs(0.50) / 1e3, s.PercentileNs(0.90) / 1e3,
          s.PercentileNs(0.99) / 1e3, s.max_ns / 1e3,
          static_cast<unsigned long long>(s.count));
    }
  }

  if (!opt.json_file.empty()) {
    std::ofstream out(opt.json_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_file.c_str());
      return 1;
    }
    out << "{\n  \"requests\": [\n";
    for (size_t i = 0; i < last.size(); ++i) {
      const SatResponse& r = last[i];
      out << "    {\"query\": \"" << JsonEscape(workload[i].query)
          << "\", \"verdict\": \"" << protocol::VerdictName(r) << "\", \"algorithm\": \""
          << JsonEscape(r.status.ok() ? r.report.algorithm
                                      : r.status.message())
          << "\", \"elapsed_us\": " << r.elapsed_us
          << ", \"query_cache_hit\": " << (r.query_cache_hit ? "true" : "false")
          << ", \"memo_hit\": " << (r.memo_hit ? "true" : "false")
          << "}" << (i + 1 < last.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"summary\": {\"requests\": " << workload.size()
        << ", \"rounds\": " << opt.repeat
        << ", \"threads\": " << engine.num_threads()
        << ", \"sat\": " << n_sat << ", \"unsat\": " << n_unsat
        << ", \"unknown\": " << n_unknown << ", \"error\": " << n_error
        << ", \"wall_ms\": " << wall_ms
        << ", \"requests_per_s\": " << throughput << ", ";
    WriteJsonStats(out, engine);
    out << ", ";
    WriteJsonLatency(out, engine);
    out << "}\n}\n";
  }
  return n_error > 0 ? 2 : 0;
}
