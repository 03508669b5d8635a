// The timed run: a real `xpathsat_server` process over a unix-domain
// socket, driven by this one process through two WireConns (batch framing
// on both; text lines on the first, binary frames on the second). Setup is
// timed several times (fresh server each time) and the last server serves
// a closed-loop capacity phase and then an open-loop phase at the
// workload's fixed rate.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/wire.h"

namespace perfbench {

namespace {

std::mutex g_children_mu;
std::vector<pid_t> g_children;  // live server processes, for StopServers()

// One server process: its stdout on a pipe (the `listening` line is the
// readiness signal), its stderr in a log file.
class ServerProcess {
 public:
  ServerProcess(const Config& cfg, const std::vector<std::string>& args,
                const std::string& log_path)
      : cfg_(cfg) {
    for (const std::string& a : args) flags_ += (flags_.empty() ? "" : " ") + a;
    std::vector<std::string> argv_s = {cfg.server_bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    int out[2];
    if (pipe(out) != 0) Fail(cfg, "pipe failed");
    std::unique_lock<std::mutex> lock(g_children_mu);
    pid_ = fork();
    if (pid_ < 0) {
      lock.unlock();
      Fail(cfg, "fork failed");
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      dup2(out[1], STDOUT_FILENO);
      const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      std::vector<char*> argv;
      for (std::string& a : argv_s) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    g_children.push_back(pid_);
    close(out[1]);
    out_fd_ = out[0];
  }

  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server printed its `listening` line.
  void WaitListening() {
    std::string buf;
    const int64_t deadline = NowNs() + 20'000'000'000LL;
    while (buf.find("listening") == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
        Fail(cfg_, "server did not start listening within 20 s");
      }
      char chunk[256];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) Fail(cfg_, "server exited before listening");
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  /// user+sys CPU seconds, from /proc/PID/stat (fields 14 and 15).
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string f;
    double ticks = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i >= 14) ticks += std::strtod(f.c_str(), nullptr);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM (the server drains, writes any --save-on-exit snapshot and
  /// exits), then reaps it; SIGKILL after 20 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 20'000'000'000LL;
    bool out_open = true;
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      // Keep the stdout pipe drained so the final stats line never blocks.
      pollfd p{out_open ? out_fd_ : -1, POLLIN, 0};
      char chunk[4096];
      if (poll(&p, 1, 5) > 0 && read(out_fd_, chunk, sizeof(chunk)) <= 0) {
        out_open = false;
      }
    }
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.erase(std::remove(g_children.begin(), g_children.end(), pid_),
                     g_children.end());
    close(out_fd_);
    pid_ = -1;
  }

  const std::string& flags() const { return flags_; }

 private:
  const Config& cfg_;
  std::string flags_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Sleeps until `due_ns` on the clock NowNs() reads (CLOCK_MONOTONIC). With
// the thread's timer slack at 1 ns the wake-up lands a few microseconds
// late, so no busy-wait is needed (a spinning sender would compete with the
// server for the same cores).
void SleepUntil(int64_t due_ns) {
  timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
              static_cast<long>(due_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

class TimedRun {
 public:
  TimedRun(const Config& cfg, const Stream& stream)
      : cfg_(cfg), s_(stream), socket_(cfg.work_dir + "/server.sock") {}

  TimedResult Run() {
    TimedResult out;
    if (cfg_.workload == Workload::kRepeatHot) out.snapshot_path = Donor();

    // setup_s: spawn -> listening, schemas registered, snapshot loaded
    // (repeat_hot), warm-up pass done. Timed on fresh servers; the last
    // one serves the measured phases.
    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    std::vector<std::unique_ptr<WireConn>> conns;
    for (int rep = 0; rep < cfg_.setup_reps; ++rep) {
      conns.clear();
      server.reset();
      const int64_t t0 = NowNs();
      server = Spawn(out.snapshot_path, "");
      server->WaitListening();
      conns = Connect(2);
      for (const Schema& sc : s_.schemas) {
        if (!sc.at_setup) continue;
        for (auto& c : conns) c->Register(sc);
      }
      RunClosed(conns, s_.warmup, 1e6, nullptr);
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    out.server_flags = server->flags();

    // Closed loop: closed_window ops in flight per connection.
    const double closed_s = cfg_.seconds * cfg_.closed_share;
    Phase closed;
    Phase open;
    // Sized up front: a vector growing under the phase lock would stall the
    // reader threads for milliseconds at a time.
    Reserve(s_.closed, &closed);
    Reserve(s_.open, &open);
    const double cpu0 = server->CpuSeconds();
    const int64_t c0 = NowNs();
    RunClosed(conns, s_.closed, closed_s, &closed);
    const double cpu1 = server->CpuSeconds();

    // Open loop at the fixed rate, timed from each op's due time.
    const double gen_cpu0 = ProcessCpuSeconds();
    const int64_t o0 = NowNs();
    RunOpen(conns, &open);
    const double open_wall = static_cast<double>(NowNs() - o0) / 1e9;
    out.gen_cpu_frac = (ProcessCpuSeconds() - gen_cpu0) / open_wall /
                       static_cast<double>(std::thread::hardware_concurrency());
    out.gen_lag_p99_us = Percentile(open.lag_us, 99);

    const double rss = server->PeakRssMb();
    conns.clear();
    server.reset();
    {
      std::lock_guard<std::mutex> lock(outcomes_.mu);
      if (!outcomes_.mismatch.empty()) Fail(cfg_, outcomes_.mismatch);
    }

    // Capacity: units completed inside the closed window (or, when the op
    // pool ran out first, over the time it took).
    int64_t end = c0 + static_cast<int64_t>(closed_s * 1e9);
    if (!closed.unit_done_ns.empty()) {
      end = std::min(end, *std::max_element(closed.unit_done_ns.begin(),
                                            closed.unit_done_ns.end()));
    }
    const double window_s = static_cast<double>(end - c0) / 1e9;
    const double in_window = static_cast<double>(
        std::count_if(closed.unit_done_ns.begin(), closed.unit_done_ns.end(),
                      [&](int64_t t) { return t <= end; }));
    const double closed_units =
        static_cast<double>(std::max<size_t>(1, closed.unit_done_ns.size()));

    out.attempted = attempted_;
    out.failed = outcomes_.failed;
    const double failed_ratio =
        static_cast<double>(out.failed) / static_cast<double>(std::max<uint64_t>(1, out.attempted));
    const double unknown_ratio =
        static_cast<double>(outcomes_.unknown) /
        static_cast<double>(std::max<uint64_t>(1, outcomes_.verdicts));
    Metrics& m = out.metrics;
    m["ops_per_s"] = {MedianWindowRate(closed.unit_done_ns, c0, end), "op/s"};
    const std::vector<double> p99s = WindowPercentiles(open, 99);
    m["op_latency_p50_us"] = {Median(WindowPercentiles(open, 50)), "us"};
    m["op_latency_p99_us"] = {Percentile(p99s, 25), "us"};
    out.ops_per_s_pooled = in_window / window_s;
    out.latency_p99_pooled_us = Percentile(open.latency_us, 99);
    m["server_cpu_us_per_op"] = {(cpu1 - cpu0) * 1e6 / closed_units, "us"};
    m["server_rss_mb"] = {rss, "MB"};
    m["setup_s"] = {Percentile(setups, 50), "s"};
    m["answered_ratio"] = {1.0 - failed_ratio, "ratio"};
    m["definite_ratio"] = {1.0 - unknown_ratio, "ratio"};
    out.failed_ratio = failed_ratio;
    out.unknown_ratio = unknown_ratio;
    std::fprintf(stderr,
                 "timed %s seed %llu: closed %.0f units in %.3f s (pooled "
                 "%.1f op/s); open %zu latency samples (%zu beyond p99, "
                 "pooled p50 %.1f us, p99 %.1f us; %zu windows, p99 min %.1f "
                 "q10 %.1f q25 %.1f median %.1f us), lag p99 %.1f us; "
                 "attempted %llu failed %llu; setup %s\n",
                 cfg_.workload_name.c_str(),
                 static_cast<unsigned long long>(cfg_.seed), in_window,
                 window_s, out.ops_per_s_pooled, open.latency_us.size(),
                 open.latency_us.size() / 100, Percentile(open.latency_us, 50),
                 out.latency_p99_pooled_us, p99s.size(), Percentile(p99s, 0),
                 Percentile(p99s, 10), Percentile(p99s, 25), Median(p99s),
                 out.gen_lag_p99_us,
                 static_cast<unsigned long long>(out.attempted),
                 static_cast<unsigned long long>(out.failed),
                 [&] {
                   std::string t;
                   for (double s : setups) t += std::to_string(s) + " ";
                   return t;
                 }().c_str());
    return out;
  }

 private:
  std::unique_ptr<ServerProcess> Spawn(const std::string& warm_from,
                                       const std::string& save_on_exit) {
    std::vector<std::string> args = {"--unix", socket_, "--threads",
                                     std::to_string(cfg_.server_threads)};
    if (!warm_from.empty()) {
      args.push_back("--warm-from");
      args.push_back(warm_from);
    }
    if (!save_on_exit.empty()) {
      args.push_back("--save-on-exit");
      args.push_back(save_on_exit);
    }
    return std::make_unique<ServerProcess>(cfg_, args,
                                           cfg_.work_dir + "/server.log");
  }

  // On a shared box some wake-ups (timer, socket, condition variable) take
  // a millisecond instead of microseconds, and how often that happens
  // drifts with the neighbours' load, so a pooled figure can flip between
  // regimes from run to run. The end-to-end figures are therefore taken
  // over windows of the phase: a stall that hits a few windows does not
  // move them, a regression that hits most of the run does. The pooled
  // figures are reported too, as per-layer metrics, so tail and drift
  // regressions stay visible.
  //
  // Latency: the open loop, in completion order, is cut into windows of
  // kWindowSamples ops (25-250 ms of traffic) and each window's exact
  // percentiles are taken (one pooled window when the phase holds fewer
  // than two). p50 is the median window's. p99 is the lower quartile
  // window's, so a regression must reach three quarters of the run to move
  // it: on a shared 4-vCPU box, bursts of millisecond stalls covered more
  // than half of the windows in two of ten repeat_hot runs, which put the
  // median window's p99 at 1-3 ms against 0.17 ms in the other eight (a
  // spread of 1.25 of the median). Longer windows fare worse: with
  // 100000-op windows the p99 spread across five seeds was 0.9.
  static constexpr size_t kWindowSamples = 2000;
  static std::vector<double> WindowPercentiles(const Phase& phase, double pct) {
    const size_t n = phase.latency_us.size();
    const size_t windows = std::max<size_t>(1, n / kWindowSamples);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return phase.unit_done_ns[a] < phase.unit_done_ns[b];
    });
    std::vector<double> per_window;
    for (size_t w = 0; w < windows; ++w) {
      std::vector<double> v;
      for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
        v.push_back(phase.latency_us[order[i]]);
      }
      per_window.push_back(Percentile(v, pct));
    }
    return per_window;
  }

  // Capacity: the completions inside the closed window, in time order, are
  // cut into kRateWindows runs of equal count; a run's rate is its count
  // over the time since the previous run ended, and capacity is the median
  // rate.
  static constexpr size_t kRateWindows = 24;
  static double MedianWindowRate(std::vector<int64_t> done_ns, int64_t t0, int64_t end) {
    done_ns.erase(std::remove_if(done_ns.begin(), done_ns.end(),
                                 [&](int64_t t) { return t <= t0 || t > end; }),
                  done_ns.end());
    std::sort(done_ns.begin(), done_ns.end());
    const size_t n = done_ns.size();
    const size_t windows = std::max<size_t>(1, std::min(kRateWindows, n / 8));
    std::vector<double> rates;
    int64_t prev = t0;
    for (size_t w = 0; w < windows && n > 0; ++w) {
      const size_t lo = w * n / windows, hi = (w + 1) * n / windows;
      const int64_t last = done_ns[hi - 1];
      if (last > prev) rates.push_back(static_cast<double>(hi - lo) * 1e9 / static_cast<double>(last - prev));
      prev = last;
    }
    return Median(rates);
  }

  static double Median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
  }

  static void Reserve(const std::vector<Op>& ops, Phase* phase) {
    size_t units = 0;
    for (const Op& op : ops) units += op.job ? 1 : op.requests.size();
    phase->latency_us.reserve(units);
    phase->unit_done_ns.reserve(units);
    phase->ack_us.reserve(ops.size());
    phase->lag_us.reserve(ops.size());
  }

  std::vector<std::unique_ptr<WireConn>> Connect(int n) {
    std::vector<std::unique_ptr<WireConn>> conns;
    for (int i = 0; i < n; ++i) {
      conns.push_back(std::make_unique<WireConn>(
          cfg_, s_, "unix:" + socket_, /*binary=*/i % 2 == 1,
          static_cast<size_t>(i), &outcomes_));
    }
    return conns;
  }

  // repeat_hot's untimed preparation: a donor server decides the working
  // set once and saves its snapshot on exit; timed servers warm from it.
  std::string Donor() {
    const std::string snap = cfg_.work_dir + "/donor.snap";
    auto donor = Spawn("", snap);
    donor->WaitListening();
    auto conns = Connect(1);
    for (const Schema& sc : s_.schemas) {
      if (sc.at_setup) conns[0]->Register(sc);
    }
    RunClosed(conns, s_.warmup, 1e6, nullptr);
    conns.clear();
    donor->Stop();
    return snap;
  }

  // Walks `ops` with a shared cursor, each connection keeping
  // closed_window ops in flight, until `seconds` pass or the ops run out.
  void RunClosed(std::vector<std::unique_ptr<WireConn>>& conns,
                 const std::vector<Op>& ops, double seconds, Phase* phase) {
    std::atomic<size_t> cursor{0};
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    RunOnConns(conns, [&](WireConn* conn) {
      while (NowNs() < deadline && !outcomes_.Mismatched()) {
        const size_t k = cursor.fetch_add(1);
        if (k >= ops.size()) break;
        conn->WaitInflightBelow(cfg_.closed_window);
        Send(conn, ops[k], NowNs(), phase, false);
      }
      conn->WaitAllDone();
    });
  }

  // Op k is due at t0 + k * interval and goes out on connection k % 2 the
  // moment it is due, whatever is still in flight.
  void RunOpen(std::vector<std::unique_ptr<WireConn>>& conns, Phase* phase) {
    const std::vector<Op>& ops = s_.open;
    const double units = cfg_.workload == Workload::kSchemaChurn
                             ? 1.0
                             : static_cast<double>(cfg_.open_batch);
    const double interval_ns = units / cfg_.open_rate * 1e9;
    const int64_t t0 = NowNs() + 1'000'000;
    const size_t n_conns = conns.size();
    std::mutex lag_mu;
    RunOnConns(conns, [&](WireConn* conn) {
      prctl(PR_SET_TIMERSLACK, 1UL);
      std::vector<double> lag;
      for (size_t k = conn->index(); k < ops.size(); k += n_conns) {
        if (outcomes_.Mismatched()) break;
        const int64_t due =
            t0 + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
        SleepUntil(due);
        lag.push_back(static_cast<double>(NowNs() - due) / 1e3);
        Send(conn, ops[k], due, phase, cfg_.inject_err && k == 0);
      }
      conn->WaitAllDone();
      std::lock_guard<std::mutex> lock(lag_mu);
      phase->lag_us.insert(phase->lag_us.end(), lag.begin(), lag.end());
    });
  }

  // Connection 0 is driven from this thread and each other one from its
  // own: with the clients' reader threads, four threads for two
  // connections.
  template <typename F>
  void RunOnConns(std::vector<std::unique_ptr<WireConn>>& conns, F drive) {
    std::vector<std::thread> threads;
    for (size_t i = 1; i < conns.size(); ++i) {
      threads.emplace_back(drive, conns[i].get());
    }
    drive(conns[0].get());
    for (std::thread& t : threads) t.join();
  }

  void Send(WireConn* conn, const Op& op, int64_t origin_ns, Phase* phase,
            bool corrupt) {
    if (phase != nullptr) attempted_ += op.job ? 1 : op.requests.size();
    conn->Send(&op, origin_ns, phase, corrupt);
  }

  const Config& cfg_;
  const Stream& s_;
  const std::string socket_;
  Outcomes outcomes_;
  std::atomic<uint64_t> attempted_{0};
};

}  // namespace

void StopServers() {
  std::lock_guard<std::mutex> lock(g_children_mu);
  for (pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  g_children.clear();
}

TimedResult RunTimed(const Config& cfg, const Stream& stream) {
  return TimedRun(cfg, stream).Run();
}

}  // namespace perfbench
