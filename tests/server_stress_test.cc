// Reactor-scale stress battery (CTest label `stress`; the TSan CI job
// re-runs it with --repeat until-fail:3): a thousand concurrent idle
// connections held on reactor threads — not per-connection threads — while
// live round trips cost the reactor no extra loop iterations, and
// idle-timeout eviction sweeping hundreds of silent connections at once.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/sat_engine.h"
#include "src/server/socket_server.h"
#include "src/util/net.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define XPATHSAT_SANITIZED 1
#endif
#if !defined(XPATHSAT_SANITIZED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define XPATHSAT_SANITIZED 1
#endif
#endif

namespace xpathsat {
namespace server {
namespace {

std::string SocketPath(const char* tag) {
  return std::string("srvstress_") + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

// Synchronous line-protocol client: one blocking request/reply round trip
// per Call — deliberately latency-bound, so it measures the wire path (the
// reactor's readiness + framing + worker hand-off), not engine throughput.
class SyncClient {
 public:
  explicit SyncClient(net::ScopedFd fd)
      : fd_(std::move(fd)), reader_(fd_.get(), 1 << 20) {}

  std::string Call(const std::string& request, const char* reply_needle) {
    Status sent = net::WriteAll(fd_.get(), request + "\n");
    EXPECT_TRUE(sent.ok()) << sent.message();
    std::string line, error;
    for (;;) {
      net::LineReader::Event ev = reader_.ReadLine(&line, &error);
      if (ev == net::LineReader::Event::kLine) {
        if (line.find(reply_needle) != std::string::npos) return line;
        continue;  // unrelated line (pipelined result) — keep scanning
      }
      ADD_FAILURE() << "stream ended waiting for '" << reply_needle << "'"
                    << (ev == net::LineReader::Event::kError ? ": " + error
                                                             : "");
      return std::string();
    }
  }

 private:
  net::ScopedFd fd_;
  net::LineReader reader_;
};

int ProcessThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

// Reactor loop iterations so far: one reactor_loop_busy_ns sample is
// recorded per pass over a batch of ready events.
uint64_t ReactorIterations(SocketServer* server) {
  const std::string json = server->MetricsJson();
  const std::string key = "\"reactor_loop_busy_ns\": {\"count\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no reactor_loop_busy_ns in " << json;
    return 0;
  }
  return std::stoull(json.substr(at + key.size()));
}

// Reactor loop iterations per round trip over `round_trips` sequential stats
// calls: a count of work, so it does not depend on the machine's speed.
double IterationsPerRoundTrip(SocketServer* server, SyncClient* client,
                              int round_trips) {
  const uint64_t before = ReactorIterations(server);
  for (int i = 0; i < round_trips; ++i) {
    client->Call("stats", "stats {");
  }
  return static_cast<double>(ReactorIterations(server) - before) /
         round_trips;
}

TEST(ServerStressTest, ThousandIdleConnectionsDontTaxLiveTraffic) {
#ifdef XPATHSAT_SANITIZED
  constexpr int kIdleConnections = 300;  // sanitizers: same shape, less time
  constexpr int kRoundTrips = 100;
#else
  constexpr int kIdleConnections = 1000;
  constexpr int kRoundTrips = 400;
#endif
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("idle1k");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> live_fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(live_fd.ok()) << live_fd.error();
  SyncClient live(std::move(live_fd).value());
  live.Call("stats", "stats {");  // warm the path before measuring anything

  // Baseline: reactor work per live round trip with no idle load.
  const double baseline = IterationsPerRoundTrip(&server, &live, kRoundTrips);
  EXPECT_GT(baseline, 0.0);

  const int threads_before = ProcessThreadCount();
  ASSERT_GT(threads_before, 0);

  // Pile on the idle herd. Sequential connects can outrun the accept loop
  // and fill the listen backlog, so failed connects retry after a beat.
  std::vector<net::ScopedFd> idle;
  idle.reserve(kIdleConnections);
  while (idle.size() < static_cast<size_t>(kIdleConnections)) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    if (!fd.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    idle.push_back(std::move(fd).value());
  }
  // Wait until every one is admitted (accept is asynchronous).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.connections_active() <
             static_cast<uint64_t>(kIdleConnections) + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.connections_active(),
            static_cast<uint64_t>(kIdleConnections) + 1);

  // The tentpole's resource claim: the herd added CONNECTIONS, not threads.
  const int threads_after = ProcessThreadCount();
  EXPECT_LT(threads_after - threads_before, 8)
      << "idle connections are being given their own threads";

  // Live traffic must not care that a thousand sockets are parked: the
  // herd must not wake the reactor, so each live round trip costs the
  // reactor about as many loop iterations as it did without the herd.
  const double with_idle = IterationsPerRoundTrip(&server, &live, kRoundTrips);
  EXPECT_LE(with_idle, 1.5 * baseline)
      << "reactor iterations per live round trip went from " << baseline
      << " to " << with_idle << " under idle load";

  live.Call("quit", "ok quit");
  idle.clear();  // mass disconnect; Stop() must cope with the retire storm
  server.Stop();
  EXPECT_EQ(server.connections_active(), 0u);
}

TEST(ServerStressTest, IdleTimeoutSweepsAHerdOfSilentConnections) {
#ifdef XPATHSAT_SANITIZED
  constexpr int kHerd = 100;
#else
  constexpr int kHerd = 300;
#endif
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("sweep");
  opt.idle_timeout_ms = 300;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  std::vector<net::ScopedFd> herd;
  herd.reserve(kHerd);
  while (herd.size() < static_cast<size_t>(kHerd)) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    if (!fd.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    herd.push_back(std::move(fd).value());
  }

  // Every one of them goes silent; the wheel must evict the lot and the
  // server must return to zero live connections on its own.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.connections_active() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_EQ(server.idle_evictions(), static_cast<uint64_t>(kHerd));

  // Each evicted socket got the structured goodbye before the close.
  std::string line, error;
  net::LineReader reader(herd[0].get(), 4096);
  ASSERT_EQ(reader.ReadLine(&line, &error), net::LineReader::Event::kLine);
  EXPECT_NE(line.find("err idle-timeout"), std::string::npos) << line;
  EXPECT_EQ(reader.ReadLine(&line, &error), net::LineReader::Event::kEof);

  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace xpathsat
