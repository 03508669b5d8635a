// Contention stress for the engine's caches: many threads hammering ONE
// engine's memo and query cache (one lock each) — directly and
// through concurrent ServerSessions — with exact stats accounting asserted
// at quiescence and the documented snapshot invariants asserted mid-flight
// by a concurrent poller.
//
// This binary carries the `stress` CTest label: the TSan CI job runs it
// with `ctest -L stress --repeat until-fail:3` (races here are load-bearing
// bugs, not flakes), and the ASan job runs it once.
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/sat_engine.h"
#include "src/server/session.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

// Small schema, cheap queries: the work per request is dominated by cache
// traffic, which is exactly what this suite wants to contend on. The
// filter queries route through the Thm 6.8(1)/4.4 pipelines, so their miss
// path runs the Prop 3.3 rewrite too.
constexpr char kDtdText[] =
    "root r\nr -> A, B*, C\nA -> eps\nB -> C\nC -> eps\n";

const std::vector<std::string>& StressQueries() {
  static const std::vector<std::string> kQueries = {
      "A",          "B",       "A/B",          "**/C",       ".[A && B]",
      "r|**/B",     "B/C",     ".[A || nope]", "**/B[C]",    "nosuchlabel",
  };
  return kQueries;
}

// --- Direct engine contention ---------------------------------------------

TEST(CacheStressTest, ManyThreadsHammerOneMemoExactTotals) {
  const int kThreads = 8;
  const int kRoundsPerThread = 40;
  SatEngineOptions opt;
  opt.num_threads = 4;  // worker concurrency even on small hosts
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(ParseDtdOrDie(kDtdText));

  // Reference verdicts from a fresh one-worker engine: the contended
  // answers must be bit-identical.
  std::vector<SatVerdict> expected;
  {
    SatEngineOptions ref_opt;
    ref_opt.num_threads = 1;
    SatEngine ref(ref_opt);
    DtdHandle ref_handle = ref.RegisterDtd(ParseDtdOrDie(kDtdText));
    for (const std::string& q : StressQueries()) {
      SatRequest r;
      r.query = q;
      r.dtd = ref_handle;
      expected.push_back(ref.Run(r).report.decision.verdict);
    }
  }

  std::atomic<int> disagreements{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (size_t i = 0; i < StressQueries().size(); ++i) {
          SatRequest r;
          r.query = StressQueries()[i];
          r.dtd = handle;
          SatResponse resp = engine.Run(r);
          if (!resp.status.ok() ||
              resp.report.decision.verdict != expected[i]) {
            disagreements.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(disagreements.load(), 0);

  // Quiescent: every ticket was observed complete, so totals are exact.
  const uint64_t total = static_cast<uint64_t>(kThreads) * kRoundsPerThread *
                         StressQueries().size();
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.query_cache_hits + stats.query_cache_misses, total);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, total);
  // Every distinct query misses at least once; concurrent first rounds may
  // multiply-miss (racing threads decide before the insert lands), bounded
  // by one outstanding miss per thread per query.
  EXPECT_GE(stats.memo_misses, StressQueries().size());
  EXPECT_LE(stats.memo_misses, StressQueries().size() * kThreads);
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(stats.cancellations, 0u);
  EXPECT_EQ(stats.deadline_expirations, 0u);
}

TEST(CacheStressTest, MissPathContentionWithMemoDisabled) {
  // Memo off: every request takes the miss path, so the query cache is the
  // contended structure and every request runs a decider. The filter query
  // routes to the Thm 6.8(1) DP, which rewrites it onto N(D) per decide.
  const int kThreads = 8;
  const int kPerThread = 60;
  SatEngineOptions opt;
  opt.num_threads = 4;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(ParseDtdOrDie(kDtdText));

  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        SatRequest r;
        r.query = ".[A && B]";
        r.dtd = handle;
        SatResponse resp = engine.Run(r);
        if (!resp.status.ok() || !resp.report.sat() || resp.memo_hit) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);

  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.memo_hits, 0u);  // memo disabled
  EXPECT_EQ(stats.memo_misses, 0u);
  // One query-cache probe per request.
  EXPECT_EQ(stats.query_cache_hits + stats.query_cache_misses, total);
}

TEST(CacheStressTest, StatsSnapshotInvariantsUnderConcurrentPolling) {
  // The SatEngineStats contract: mid-flight snapshots obey the documented
  // <= invariants (outcome counters never outrun `requests`), and the
  // quiescent snapshot is exact. A poller samples stats() continuously
  // while 8 threads drive traffic.
  const int kThreads = 8;
  const int kPerThread = 150;
  SatEngineOptions opt;
  opt.num_threads = 4;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(ParseDtdOrDie(kDtdText));

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<uint64_t> samples{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      SatEngineStats s = engine.stats();
      samples.fetch_add(1);
      if (s.memo_hits + s.memo_misses + s.parse_errors + s.cancellations +
              s.deadline_expirations >
          s.requests) {
        violations.fetch_add(1);
      }
      if (s.query_cache_hits + s.query_cache_misses > s.requests) {
        violations.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SatRequest r;
        // A slice of parse errors so that outcome class is sampled too.
        r.query = (i % 7 == 0) ? "A[[" : StressQueries()[(t + i) %
                                             StressQueries().size()];
        r.dtd = handle;
        engine.Run(r);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(violations.load(), 0) << "after " << samples.load() << " samples";
  EXPECT_GE(samples.load(), 1u);
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses + stats.parse_errors, total);
  EXPECT_EQ(stats.query_cache_hits + stats.query_cache_misses, total);
}

// --- Through concurrent ServerSessions ------------------------------------

TEST(CacheStressTest, EightServerSessionsShareOneMemo) {
  // The serving shape from the ISSUE: 8+ concurrent sessions (one per
  // client thread) funneling into ONE engine, every result line pipelined
  // from engine completion threads. Exact per-session result accounting
  // plus exact engine-wide totals at the end.
  const int kSessions = 8;
  const int kRoundsPerSession = 12;
  SatEngineOptions eopt;
  eopt.num_threads = 4;
  SatEngine engine(eopt);

  std::string dtd_path = testing::TempDir() + "cache_stress.dtd";
  {
    std::ofstream out(dtd_path);
    out << kDtdText;
    ASSERT_TRUE(out.good());
  }

  struct SessionRun {
    std::mutex mu;
    int results = 0;
    int sat_lines = 0;
    int err_lines = 0;
  };
  std::vector<std::unique_ptr<SessionRun>> runs;
  for (int s = 0; s < kSessions; ++s) {
    runs.push_back(std::make_unique<SessionRun>());
  }

  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      SessionRun* run = runs[static_cast<size_t>(s)].get();
      server::ServerSession session(
          &engine, server::SessionOptions{},
          [run](const std::string& line) {
            std::lock_guard<std::mutex> lock(run->mu);
            if (line.find(" -- ") != std::string::npos) {
              ++run->results;
              if (line.find("[sat    ]") != std::string::npos) {
                ++run->sat_lines;
              }
            } else if (line.rfind("err ", 0) == 0) {
              ++run->err_lines;
            }
          });
      ASSERT_TRUE(session.HandleLine("dtd s" + std::to_string(s) + " " +
                                     dtd_path));
      for (int round = 0; round < kRoundsPerSession; ++round) {
        for (const std::string& q : StressQueries()) {
          ASSERT_TRUE(
              session.HandleLine("query s" + std::to_string(s) + " " + q));
        }
      }
      ASSERT_TRUE(session.HandleLine("flush"));
      // ~ServerSession drains the in-flight tail.
    });
  }
  for (std::thread& c : clients) c.join();

  const int per_session =
      kRoundsPerSession * static_cast<int>(StressQueries().size());
  int sat_reference = -1;
  for (int s = 0; s < kSessions; ++s) {
    SessionRun* run = runs[static_cast<size_t>(s)].get();
    EXPECT_EQ(run->results, per_session) << "session " << s;
    EXPECT_EQ(run->err_lines, 0) << "session " << s;
    // Verdict agreement across sessions: same traffic, same counts.
    if (sat_reference < 0) {
      sat_reference = run->sat_lines;
    } else {
      EXPECT_EQ(run->sat_lines, sat_reference) << "session " << s;
    }
  }

  const uint64_t total = static_cast<uint64_t>(kSessions) * per_session;
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, total);
  // Cross-session reuse: one schema file registered 8 times compiles once...
  EXPECT_EQ(stats.dtd_cache_misses, 1u);
  EXPECT_EQ(stats.dtd_cache_hits, static_cast<uint64_t>(kSessions) - 1);
  // ...and the memo serves the overwhelming majority of the traffic.
  EXPECT_GE(stats.memo_hits, total - StressQueries().size() * kSessions);
}

}  // namespace
}  // namespace xpathsat
