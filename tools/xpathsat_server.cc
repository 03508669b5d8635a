// xpathsat_server — the network front end: serves the shared line protocol
// (src/server/protocol.h) over a unix-domain socket and/or loopback TCP,
// against ONE long-lived SatEngine shared by every connection. Clients
// multiplexing over it share the compiled-DTD cache, the query cache, and
// the verdict memo — repeat traffic is answered from the memo no matter
// which client primed it.
//
//   xpathsat_server --unix PATH            listen on a unix socket
//   xpathsat_server --tcp PORT             listen on 127.0.0.1:PORT
//                                          (PORT 0 picks an ephemeral port)
//   (both listeners may be given together)
//
// Options:
//   --host ADDR          TCP bind address (default 127.0.0.1; pair anything
//                        wider with --auth-secret)
//   --threads N          engine worker threads (default: hardware concurrency)
//   --deadline-ms M      per-request deadline cap applied to every query
//   --no-memo            disable verdict memoization
//   --max-conns N        cap live connections; excess accepts get one
//                        `err busy ...` line and are closed (default: unlimited)
//   --idle-timeout-ms M  evict connections silent for M ms with
//                        `err idle-timeout ...` (default: never)
//   --auth-secret S      require `auth S` before any verb except `health`
//   --metrics-dump-ms M  dump the merged metrics JSON (the `metrics` verb's
//                        object) to stderr every M ms, one line per dump
//   --warm-from PATH     before listening, warm the engine caches from the
//                        schema-and-memo snapshot at PATH (src/store/).
//                        A missing, corrupt, or version-incompatible
//                        snapshot logs a warning and starts cold — warm
//                        restart is an optimization, never a dependency
//   --save-on-exit PATH  on shutdown, after connections drain, write a
//                        snapshot to PATH (atomically; pair with
//                        --warm-from PATH for warm restarts)
//
// On startup one `listening ...` line per listener is printed to stdout (the
// TCP line carries the actually-bound port), then the server runs until
// SIGINT/SIGTERM, at which point connections are drained, the --save-on-exit
// snapshot (if any) is written, a final `stats {...}` JSON line is printed,
// and it exits 0.
//
// Drive it with `xpathsat_cli --connect unix:PATH` / `--connect HOST:PORT`,
// or anything that speaks lines (nc works; see the README protocol spec).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/engine/sat_engine.h"
#include "src/server/protocol.h"
#include "src/server/socket_server.h"
#include "src/util/flags.h"
#include "src/util/mutex.h"

using namespace xpathsat;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp PORT) [--host ADDR]\n"
               "          [--threads N] [--deadline-ms M] [--no-memo]\n"
               "          [--max-conns N] [--idle-timeout-ms M]\n"
               "          [--auth-secret S] [--metrics-dump-ms M]\n"
               "          [--warm-from PATH] [--save-on-exit PATH]\n",
               argv0);
}

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

}  // namespace

int main(int argc, char** argv) {
  server::SocketServerOptions server_opt;
  SatEngineOptions engine_opt;
  long long metrics_dump_ms = 0;
  std::string warm_from;
  std::string save_on_exit;
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
    if (arg == "--unix") {
      server_opt.unix_path = next("--unix");
    } else if (arg == "--tcp") {
      server_opt.tcp_port = static_cast<int>(
          ParseIntFlag(argv[0], "--tcp", next("--tcp"), 0, 65535));
    } else if (arg == "--host") {
      server_opt.tcp_host = next("--host");
    } else if (arg == "--threads") {
      engine_opt.num_threads = static_cast<int>(
          ParseIntFlag(argv[0], "--threads", next("--threads"), 1, 1 << 20));
    } else if (arg == "--deadline-ms") {
      server_opt.session.deadline_ms = ParseIntFlag(
          argv[0], "--deadline-ms", next("--deadline-ms"), 0,
          1000LL * 1000 * 1000);
    } else if (arg == "--no-memo") {
      engine_opt.memo_capacity = 0;
    } else if (arg == "--max-conns") {
      server_opt.max_connections = static_cast<size_t>(
          ParseIntFlag(argv[0], "--max-conns", next("--max-conns"), 1,
                       1 << 20));
    } else if (arg == "--idle-timeout-ms") {
      server_opt.idle_timeout_ms =
          ParseIntFlag(argv[0], "--idle-timeout-ms", next("--idle-timeout-ms"),
                       1, 1000LL * 1000 * 1000);
    } else if (arg == "--auth-secret") {
      server_opt.auth_secret = next("--auth-secret");
    } else if (arg == "--metrics-dump-ms") {
      metrics_dump_ms =
          ParseIntFlag(argv[0], "--metrics-dump-ms", next("--metrics-dump-ms"),
                       1, 1000LL * 1000 * 1000);
    } else if (arg == "--warm-from") {
      warm_from = next("--warm-from");
    } else if (arg == "--save-on-exit") {
      save_on_exit = next("--save-on-exit");
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 1;
    }
  }
  if (server_opt.unix_path.empty() && server_opt.tcp_port < 0) {
    Usage(argv[0]);
    return 1;
  }

  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait below is the one delivery point.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  SatEngine engine(engine_opt);
  // Warm restart: load before Start() so the very first connection already
  // sees warm caches. Failure of any kind degrades to a cold start — the
  // snapshot is an optimization, never a dependency.
  if (!warm_from.empty()) {
    SnapshotLoadResult loaded = engine.LoadSnapshot(warm_from);
    if (!loaded.status.ok()) {
      std::fprintf(stderr, "--warm-from %s: %s (starting cold)\n",
                   warm_from.c_str(), loaded.status.message().c_str());
    } else {
      std::fprintf(stderr,
                   "warmed from %s: dtds=%llu memos=%llu skipped=%llu\n",
                   warm_from.c_str(),
                   static_cast<unsigned long long>(loaded.dtds_loaded),
                   static_cast<unsigned long long>(loaded.memos_loaded),
                   static_cast<unsigned long long>(loaded.corrupt_records +
                                                   loaded.rejected_records));
    }
  }
  server::SocketServer server(&engine, server_opt);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.message().c_str());
    return 1;
  }
  if (!server.unix_path().empty()) {
    std::printf("listening unix %s\n", server.unix_path().c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("listening tcp %d\n", server.tcp_port());
  }
  std::fflush(stdout);

  // Periodic metrics dump: the same merged JSON object the `metrics` verb
  // serves, one line to stderr per period (scrapeable without a connection).
  util::Mutex dump_mu;
  util::CondVar dump_cv;
  bool dump_stop = false;  // guarded by dump_mu
  std::thread dump_thread;
  if (metrics_dump_ms > 0) {
    dump_thread = std::thread([&] {
      for (;;) {
        {
          util::MutexLock lock(dump_mu);
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::milliseconds(metrics_dump_ms);
          // WaitUntil returns false exactly at period expiry; a stop
          // notification ends the wait (and the thread) early.
          while (!dump_stop && dump_cv.WaitUntil(dump_mu, deadline)) {
          }
          if (dump_stop) return;
        }
        // Render and print outside the lock: MetricsJson walks the engine
        // registries and must not serialize against the stop path.
        std::string json = server.MetricsJson();
        std::fprintf(stderr, "metrics %s\n", json.c_str());
      }
    });
  }

  int sig = 0;
  sigwait(&mask, &sig);
  std::fprintf(stderr, "shutting down (%s)\n", strsignal(sig));
  if (dump_thread.joinable()) {
    {
      util::MutexLock lock(dump_mu);
      dump_stop = true;
    }
    dump_cv.NotifyAll();
    dump_thread.join();
  }
  // Stop() returns only after a COMPLETE stop, even when it races another
  // stop path (the reactor's poller-failure self-stop, a second signal):
  // the shutdown actions below — snapshot save, stats dump — run strictly
  // after every connection has drained.
  server.Stop();
  if (!save_on_exit.empty()) {
    SnapshotSaveResult saved = engine.SaveSnapshot(save_on_exit);
    if (!saved.status.ok()) {
      std::fprintf(stderr, "--save-on-exit %s: %s\n", save_on_exit.c_str(),
                   saved.status.message().c_str());
    } else {
      std::fprintf(stderr, "saved snapshot %s: dtds=%llu memos=%llu\n",
                   save_on_exit.c_str(),
                   static_cast<unsigned long long>(saved.dtds_saved),
                   static_cast<unsigned long long>(saved.memos_saved));
    }
  }
  std::printf("%s\n", protocol::FormatStatsLine(engine.stats()).c_str());
  return 0;
}
