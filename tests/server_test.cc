// The serving subsystem end to end, in process (so the ASan/TSan CI jobs see
// every thread): ServerSession semantics over a collecting sink, and
// SocketServer over real unix/TCP sockets — two concurrent clients sharing
// one engine, cross-client memo hits, cancel-by-id of still-queued work,
// malformed/oversized input, and drain-on-disconnect.
#include "src/server/socket_server.h"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/protocol.h"
#include "src/server/session.h"
#include "src/util/net.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace server {
namespace {

// The engine_test heavy-traffic idiom: `**/item[title && note]` against this
// schema routes to the NP skeleton search (hundreds of microseconds each) —
// a head-of-line batch of them keeps a single worker busy while queued work
// is cancelled.
constexpr char kHeavyDtdText[] = R"(root catalog
catalog -> section*
section -> heading, item*, appendix
heading -> eps
item -> title, price, (variant + eps), note*
title -> eps
price -> eps
variant -> swatch, swatch*
swatch -> eps
note -> ref
ref -> eps
appendix -> note*
)";
constexpr char kHeavyQuery[] = "**/item[title && note]";

std::string WriteTempDtd(const std::string& name) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << kHeavyDtdText;
  EXPECT_TRUE(out.good());
  return path;
}

// Collects sink output; the engine emits from worker threads.
struct SinkLog {
  std::mutex mu;
  std::vector<std::string> lines;
  void operator()(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
  bool Contains(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& l : lines) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

// --- ServerSession over a collecting sink (no sockets) -------------------

TEST(ServerSessionTest, FullCommandCycle) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_cycle.dtd");
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });

  EXPECT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  EXPECT_TRUE(log->Contains("ok dtd cat fp="));
  EXPECT_TRUE(session.HandleLine("query cat section/item"));
  EXPECT_TRUE(session.HandleLine("q cat nosuchlabel"));
  EXPECT_TRUE(session.HandleLine("flush"));
  EXPECT_TRUE(log->Contains("ok flush"));
  EXPECT_TRUE(log->Contains("[sat    ] section/item"));
  EXPECT_TRUE(log->Contains("[unsat  ] nosuchlabel"));
  EXPECT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {\"requests\": 2"));
  EXPECT_TRUE(session.HandleLine("drop cat"));
  EXPECT_TRUE(log->Contains("ok drop cat"));
  // Errors keep the session alive...
  EXPECT_TRUE(session.HandleLine("query cat section"));
  EXPECT_TRUE(log->Contains("err unknown-dtd 'cat'"));
  EXPECT_TRUE(session.HandleLine("drop cat"));
  EXPECT_TRUE(session.HandleLine("bogus"));
  EXPECT_TRUE(log->Contains("err unknown-verb 'bogus'"));
  EXPECT_TRUE(session.HandleLine("cancel 424242"));
  EXPECT_TRUE(log->Contains("err unknown-ticket 424242"));
  // ...and quit ends it.
  EXPECT_FALSE(session.HandleLine("quit"));
  EXPECT_TRUE(log->Contains("ok quit"));
  EXPECT_FALSE(session.HandleLine("stats"));
  EXPECT_EQ(session.queries_submitted(), 2u);
}

TEST(ServerSessionTest, QueryAckPrecedesItsResultLine) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_ack.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  std::vector<std::string> lines = log->snapshot();
  int ack_at = -1, result_at = -1;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("ok query ", 0) == 0) ack_at = static_cast<int>(i);
    if (lines[i].find("[sat    ] section") != std::string::npos) {
      result_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(ack_at, 0);
  ASSERT_GE(result_at, 0);
  EXPECT_LT(ack_at, result_at);
}

TEST(ServerSessionTest, CancelStillQueuedTicketById) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;  // heavy head-of-line blocks the only worker
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("session_cancel.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  // A tail request submitted behind 40 NP head-of-line searches is still
  // queued when the cancel lands — unless the scheduler stalls this thread
  // at exactly the wrong moment under full-suite load, so retry with a
  // fresh batch instead of trusting one timing window.
  uint64_t cancelled_id = 0;
  for (int attempt = 0; attempt < 5 && cancelled_id == 0; ++attempt) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          session.HandleLine(std::string("query cat ") + kHeavyQuery));
    }
    ASSERT_TRUE(session.HandleLine("query cat section/item"));
    uint64_t tail_id = 0;
    for (const std::string& l : log->snapshot()) {
      if (l.rfind("ok query ", 0) == 0) {
        tail_id = std::stoull(l.substr(9));  // last ack wins
      }
    }
    ASSERT_GT(tail_id, 0u);
    ASSERT_TRUE(session.HandleLine("cancel " + std::to_string(tail_id)));
    if (log->Contains("ok cancel " + std::to_string(tail_id))) {
      cancelled_id = tail_id;
    }
  }
  ASSERT_GT(cancelled_id, 0u) << "cancel never won in 5 attempts";
  // Cancelled tickets still resolve: their result line is pipelined with
  // algorithm "cancelled".
  EXPECT_TRUE(log->Contains(std::to_string(cancelled_id) +
                            " [unknown] section/item -- cancelled"));
  // Second cancel of the same id: the ticket already completed.
  ASSERT_TRUE(session.HandleLine("cancel " + std::to_string(cancelled_id)));
  EXPECT_TRUE(log->Contains("err unknown-ticket"));
  session.HandleLine("flush");
  EXPECT_EQ(engine.stats().cancellations, 1u);
}

TEST(ServerSessionTest, HelloGrantsOnlyTransportSupportedFeatures) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  {
    // Default transport (stdin-style): binary is silently not granted.
    ServerSession session(&engine, SessionOptions{},
                          [log](const std::string& l) { (*log)(l); });
    EXPECT_TRUE(session.HandleLine("hello"));
    EXPECT_TRUE(log->Contains("ok hello"));
    EXPECT_TRUE(session.HandleLine("hello batch binary"));
    std::vector<std::string> lines = log->snapshot();
    EXPECT_EQ(lines.back(), "ok hello batch");
  }
  {
    SessionOptions opt;
    opt.binary_frames_supported = true;
    ServerSession session(&engine, opt,
                          [log](const std::string& l) { (*log)(l); });
    EXPECT_TRUE(session.HandleLine("hello binary batch"));
    // The grant echoes the request order.
    EXPECT_EQ(log->snapshot().back(), "ok hello binary batch");
  }
}

TEST(ServerSessionTest, BatchWithoutGrantIsRefusedAndSessionSurvives) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  EXPECT_TRUE(session.HandleLine("batch 2"));
  EXPECT_TRUE(log->Contains("err batch-mismatch batch framing not "
                            "negotiated; send `hello batch` first"));
  // Not a one-strike offense post-auth: the session keeps serving, and the
  // would-be members parse as ordinary commands.
  EXPECT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {"));
}

TEST(ServerSessionTest, BatchSubmitsAllMembersUnderOneBarrier) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_batch.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("batch 3"));
  // Members are collected, not dispatched: no ack until the Nth line.
  ASSERT_TRUE(session.HandleLine("query cat section/item"));
  ASSERT_TRUE(session.HandleLine("# a comment inside the batch"));
  ASSERT_TRUE(session.HandleLine(""));  // blank lines don't count either
  EXPECT_FALSE(log->Contains("ok batch"));
  ASSERT_TRUE(session.HandleLine("q cat nosuchlabel"));
  ASSERT_TRUE(session.HandleLine("query cat **/note"));
  session.Drain();
  EXPECT_TRUE(log->Contains("ok batch 1 ids 1 2 3"));
  EXPECT_TRUE(log->Contains("[sat    ] section/item"));
  EXPECT_TRUE(log->Contains("[unsat  ] nosuchlabel"));
  EXPECT_TRUE(log->Contains("ok batch 1 done"));
  EXPECT_EQ(session.queries_submitted(), 3u);
  // The barrier comes after every member's result line — and after Drain
  // returns, it has been emitted (no done line leaking past teardown).
  std::vector<std::string> lines = log->snapshot();
  size_t done_at = 0, last_result_at = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "ok batch 1 done") done_at = i;
    if (lines[i].find("] ") != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(lines[i][0]))) {
      last_result_at = i;
    }
  }
  EXPECT_GT(done_at, last_result_at);
  // A second batch gets the next seq.
  ASSERT_TRUE(session.HandleLine("batch 1"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  EXPECT_TRUE(log->Contains("ok batch 2 ids 4"));
  EXPECT_TRUE(log->Contains("ok batch 2 done"));
}

TEST(ServerSessionTest, PoisonedBatchDispatchesNothing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_poison.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));

  // A malformed member line.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  ASSERT_TRUE(session.HandleLine("frobnicate"));
  EXPECT_TRUE(log->Contains("err batch-mismatch batch 1: member 2 is "
                            "malformed"));
  EXPECT_TRUE(log->Contains("batch discarded, nothing was submitted"));

  // A non-query verb as a member.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("stats"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  EXPECT_TRUE(log->Contains("member 1 is 'stats'; only query/q may appear"));

  // An unknown schema, caught at dispatch validation — before ANY submit,
  // so a half-good batch still submits nothing.
  ASSERT_TRUE(session.HandleLine("batch 2"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  ASSERT_TRUE(session.HandleLine("query nosuch section"));
  EXPECT_TRUE(log->Contains("member 2: unknown dtd 'nosuch'"));

  EXPECT_EQ(session.queries_submitted(), 0u);
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_FALSE(log->Contains("ok batch"));
  // The session itself survives every refused batch.
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.Drain();
  EXPECT_TRUE(log->Contains("[sat    ] section"));
}

TEST(ServerSessionTest, BatchInterruptedByEofDispatchesNothing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("session_batch_eof.dtd");
  auto log = std::make_shared<SinkLog>();
  ServerSession session(&engine, SessionOptions{},
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("dtd cat " + dtd_path));
  ASSERT_TRUE(session.HandleLine("batch 3"));
  ASSERT_TRUE(session.HandleLine("query cat section"));
  session.OnInputClosed();
  EXPECT_TRUE(log->Contains(
      "err batch-mismatch batch 1: input ended after 1 of 3 members; "
      "nothing was submitted"));
  EXPECT_EQ(session.queries_submitted(), 0u);
  session.OnInputClosed();  // idempotent: one error line total
  std::vector<std::string> lines = log->snapshot();
  int mismatches = 0;
  for (const std::string& l : lines) {
    if (l.find("err batch-mismatch") != std::string::npos) ++mismatches;
  }
  EXPECT_EQ(mismatches, 1);
}

TEST(ServerSessionTest, BatchLargerThanInflightCapIsRefusedUpFront) {
  // A batch submits all members before any completion callback can free a
  // slot, so a batch wider than the cap could never make progress — it is
  // refused at `batch N` time instead of deadlocking the reader.
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  opt.max_inflight = 4;
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("hello batch"));
  ASSERT_TRUE(session.HandleLine("batch 5"));
  EXPECT_TRUE(
      log->Contains("err batch-mismatch batch 5 exceeds this session's "
                    "in-flight cap (4)"));
  // No member collection started: the next line is an ordinary command.
  ASSERT_TRUE(session.HandleLine("stats"));
  EXPECT_TRUE(log->Contains("stats {"));
}

TEST(ServerSessionTest, WireFramesRequireNegotiation) {
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  opt.binary_frames_supported = true;
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });
  // A binary-framed payload before `hello binary`: the stream cannot be
  // trusted any further, so the session closes.
  EXPECT_FALSE(session.HandleWire("stats", /*binary_frame=*/true, 100));
  EXPECT_TRUE(log->Contains(
      "err bad-frame binary framing not negotiated; send `hello binary`"));
  EXPECT_FALSE(session.HandleLine("stats"));  // closed for good
}

TEST(ServerSessionTest, MetricsPromForwardsExpositionVerbatim) {
  // Regression: the prom splitter used to drop blank lines, corrupting the
  // text exposition (blank separator lines are content; scrapers and the
  // lint gate both see byte-exact output).
  SatEngine engine;
  auto log = std::make_shared<SinkLog>();
  SessionOptions opt;
  opt.metrics_prom = [] {
    return std::string("# HELP x_total things\n# TYPE x_total counter\n"
                       "\nx_total 1\n# EOF\n");
  };
  ServerSession session(&engine, opt,
                        [log](const std::string& l) { (*log)(l); });
  ASSERT_TRUE(session.HandleLine("metrics prom"));
  std::vector<std::string> lines = log->snapshot();
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "# HELP x_total things");
  EXPECT_EQ(lines[1], "# TYPE x_total counter");
  EXPECT_EQ(lines[2], "");  // the blank separator survives
  EXPECT_EQ(lines[3], "x_total 1");
  EXPECT_EQ(lines[4], "# EOF");
}

// --- SocketServer over real sockets --------------------------------------

// Minimal line-protocol client for the tests: blocking reads with
// wait-until-predicate helpers over the accumulated reply lines.
class TestClient {
 public:
  explicit TestClient(net::ScopedFd fd) : fd_(std::move(fd)) {
    reader_ = std::thread([this] {
      net::LineReader reader(fd_.get(), protocol::kMaxLineBytes);
      std::string line, error;
      for (;;) {
        net::LineReader::Event ev = reader.ReadLine(&line, &error);
        if (ev == net::LineReader::Event::kEof ||
            ev == net::LineReader::Event::kError) {
          break;
        }
        if (ev != net::LineReader::Event::kLine) continue;
        std::lock_guard<std::mutex> lock(mu_);
        lines_.push_back(line);
        cv_.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu_);
      eof_ = true;
      cv_.notify_all();
    });
  }
  ~TestClient() {
    // shutdown (not close) wakes the reader if it is blocked in read(2).
    ::shutdown(fd_.get(), SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
  }

  void Send(const std::string& line) {
    Status s = net::WriteAll(fd_.get(), line + "\n");
    ASSERT_TRUE(s.ok()) << s.message();
  }

  /// Writes raw bytes with no newline appended (binary frame tests).
  void SendBytes(const std::string& bytes) {
    Status s = net::WriteAll(fd_.get(), bytes);
    ASSERT_TRUE(s.ok()) << s.message();
  }

  /// Half-closes the write side: the server sees EOF while this client can
  /// still read its final replies.
  void ShutdownWrites() { ::shutdown(fd_.get(), SHUT_WR); }

  /// Send for connections the server may already have closed (reject /
  /// throttle races): EPIPE is expected there, not a test failure.
  void TrySend(const std::string& line) {
    (void)net::WriteAll(fd_.get(), line + "\n");
  }

  /// Blocks until some reply line (at or after the consume cursor) contains
  /// one of `needles`; returns that line and advances the cursor past it.
  /// Fails the test (and returns empty) after `timeout_ms` or on EOF
  /// without a match.
  std::string WaitForAny(const std::vector<std::string>& needles,
                         int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    std::string found;
    bool ok = cv_.wait_for(
        lock, std::chrono::milliseconds(timeout_ms), [&] {
          for (size_t i = scanned_; i < lines_.size(); ++i) {
            for (const std::string& needle : needles) {
              if (lines_[i].find(needle) != std::string::npos) {
                found = lines_[i];
                scanned_ = i + 1;
                return true;
              }
            }
          }
          scanned_ = lines_.size();
          return eof_;
        });
    EXPECT_TRUE(ok && !found.empty())
        << "no reply containing '" << needles[0] << "' (got "
        << lines_.size() << " lines, eof=" << eof_ << ")";
    return found;
  }

  std::string WaitFor(const std::string& needle, int64_t timeout_ms = 30000) {
    return WaitForAny({needle}, timeout_ms);
  }

  /// Blocks until every one of `needles` has matched a reply line at or
  /// after the consume cursor, in any order (batch results pipeline out of
  /// order); one line satisfies at most one needle. Advances the cursor past
  /// the last matched line and returns the matches in needle order. Fails
  /// the test after `timeout_ms` or on EOF with a needle unmatched.
  std::vector<std::string> WaitForAll(const std::vector<std::string>& needles,
                                      int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<std::string> found(needles.size());
    size_t remaining = needles.size();
    size_t next = scanned_;
    size_t end = scanned_;
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      for (; next < lines_.size() && remaining > 0; ++next) {
        for (size_t n = 0; n < needles.size(); ++n) {
          if (found[n].empty() &&
              lines_[next].find(needles[n]) != std::string::npos) {
            found[n] = lines_[next];
            --remaining;
            end = next + 1;
            break;
          }
        }
      }
      return remaining == 0 || eof_;
    });
    scanned_ = remaining == 0 ? end : lines_.size();
    for (size_t n = 0; n < needles.size(); ++n) {
      EXPECT_FALSE(found[n].empty())
          << "no reply containing '" << needles[n] << "' (got "
          << lines_.size() << " lines, eof=" << eof_ << ")";
    }
    return found;
  }

  /// Scans ALL received lines (ignoring the consume cursor).
  bool SawLine(const std::string& needle) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& l : lines_) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  void WaitForEof(int64_t timeout_ms = 30000) {
    std::unique_lock<std::mutex> lock(mu_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return eof_; }));
  }

  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  net::ScopedFd fd_;
  std::thread reader_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  size_t scanned_ = 0;
  bool eof_ = false;
};

// Short, collision-free unix socket path (sockaddr_un caps ~107 bytes, so
// TempDir-based paths are risky; cwd-relative is safe under CTest).
std::string SocketPath(const char* tag) {
  return std::string("srvtest_") + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

TEST(SocketServerTest, TwoConcurrentClientsShareOneEngineAndItsMemo) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_multi.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("multi");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> queries = {
      "section/item", "**/note", "section/heading", "**/item[title]",
      "nosuchlabel"};
  // Phase 1: two clients connected at once, interleaving batches against
  // their own DTD namespaces (one shared engine underneath).
  auto run_client = [&](const char* name) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send(std::string("dtd ") + name + " " + dtd_path);
    client.WaitFor("ok dtd");
    for (int round = 0; round < 3; ++round) {
      for (const std::string& q : queries) {
        client.Send(std::string("query ") + name + " " + q);
      }
      client.Send("flush");
      client.WaitFor("ok flush");
    }
    client.Send("quit");
    client.WaitFor("ok quit");
    client.WaitForEof();
    // Every query got its result line.
    int results = 0;
    for (const std::string& l : client.lines()) {
      if (l.find(" -- ") != std::string::npos) ++results;
    }
    EXPECT_EQ(results, static_cast<int>(queries.size()) * 3);
  };
  std::thread a(run_client, "alpha");
  std::thread b(run_client, "beta");
  a.join();
  b.join();

  // Phase 2 (deterministic cross-client check): a THIRD client replays the
  // same queries and must be answered entirely from the memo the first two
  // primed — same schema file, same engine, different connection.
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient replay(std::move(fd).value());
  replay.Send("dtd gamma " + dtd_path);
  replay.WaitFor("ok dtd");
  for (const std::string& q : queries) replay.Send("query gamma " + q);
  replay.Send("flush");
  replay.WaitFor("ok flush");
  int memo_results = 0;
  for (const std::string& l : replay.lines()) {
    if (l.find(" -- ") != std::string::npos) {
      EXPECT_NE(l.find(" memo"), std::string::npos) << l;
      ++memo_results;
    }
  }
  EXPECT_EQ(memo_results, static_cast<int>(queries.size()));
  // The shared stats confirm it: cross-client memo hits and one compiled
  // schema serving all three registrations.
  replay.Send("stats");
  std::string stats = replay.WaitFor("stats {");
  EXPECT_NE(stats.find("\"dtd_cache_hits\": 2"), std::string::npos) << stats;
  SatEngineStats s = engine.stats();
  EXPECT_GE(s.memo_hits, queries.size());
  EXPECT_EQ(s.dtd_cache_misses, 1u);
  EXPECT_EQ(server.connections_accepted(), 3u);

  server.Stop();
}

TEST(SocketServerTest, CrossClientRewriteCacheReuseWithMemoDisabled) {
  // With the verdict memo off, every request walks the miss path — so the
  // second client's filter traffic must be served its Prop 3.3 rewrites
  // from the cache the FIRST client populated (cross-client rewrite reuse),
  // and the stats line must surface the new counters.
  SatEngineOptions eopt;
  eopt.num_threads = 2;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_rewrite.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("rewrite");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  // kHeavyQuery is a positive filter query: it routes to the Thm 4.4
  // skeleton search, whose first step is the f(p) rewrite.
  auto run_client = [&](const char* name, int repeats) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send(std::string("dtd ") + name + " " + dtd_path);
    client.WaitFor("ok dtd");
    for (int i = 0; i < repeats; ++i) {
      client.Send(std::string("query ") + name + " " + kHeavyQuery);
      // Flush between requests: concurrent first-misses would both compute
      // the rewrite (benign race, but it would blur the exact miss count
      // asserted below).
      client.Send("flush");
      client.WaitFor("ok flush");
    }
    client.Send("quit");
    client.WaitFor("ok quit");
  };
  run_client("alpha", 2);  // primes the rewrite cache (first request misses)
  SatEngineStats primed = engine.stats();
  EXPECT_GE(primed.rewrite_cache_hits, 1u);  // alpha's own repeat already hits
  run_client("beta", 3);   // a different connection, same (query, DTD) pair

  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, 0u);  // memo really off
  EXPECT_EQ(stats.rewrite_cache_misses, 1u);  // one rewrite, ever
  EXPECT_GE(stats.rewrite_cache_hits, primed.rewrite_cache_hits + 3);

  // The wire stats line carries the counters for scripted clients.
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient probe(std::move(fd).value());
  probe.Send("stats");
  std::string line = probe.WaitFor("stats {");
  EXPECT_NE(line.find("\"rewrite_cache_hits\": "), std::string::npos) << line;
  EXPECT_NE(line.find("\"rewrite_cache_misses\": 1"), std::string::npos)
      << line;
  probe.Send("quit");
  probe.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, CancelByIdAcrossTheSocket) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_cancel.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("cancel");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  // Ticket ids are engine-global and this engine is fresh, so attempt k
  // (1-based) submits ids (k-1)*41+1 .. k*41; the tail is k*41. The tail
  // sits queued behind 40 NP searches on one worker — cancellable unless
  // full-suite load stalls this thread at the wrong instant, hence the
  // retry loop instead of one timing window.
  uint64_t cancelled_id = 0;
  for (int attempt = 1; attempt <= 5 && cancelled_id == 0; ++attempt) {
    for (int i = 0; i < 40; ++i) {
      client.Send(std::string("query cat ") + kHeavyQuery);
    }
    client.Send("query cat section/item");
    const uint64_t tail_id = static_cast<uint64_t>(attempt) * 41;
    client.WaitFor("ok query " + std::to_string(tail_id));
    client.Send("cancel " + std::to_string(tail_id));
    std::string reply = client.WaitForAny(
        {"ok cancel " + std::to_string(tail_id),
         "err not-cancellable " + std::to_string(tail_id),
         "err unknown-ticket " + std::to_string(tail_id)});
    if (reply.rfind("ok cancel", 0) == 0) cancelled_id = tail_id;
  }
  ASSERT_GT(cancelled_id, 0u) << "cancel never won in 5 attempts";
  // TryCancel fulfils the ticket synchronously, so the pipelined result
  // line (algorithm "cancelled") was emitted just before the `ok cancel`
  // ack the loop consumed.
  EXPECT_TRUE(client.SawLine(std::to_string(cancelled_id) +
                             " [unknown] section/item -- cancelled"));
  client.Send("quit");
  client.WaitFor("ok quit");
  EXPECT_EQ(engine.stats().cancellations, 1u);
  server.Stop();
}

TEST(SocketServerTest, MalformedAndOversizedLinesAnswerErrAndKeepGoing) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_err.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("err");
  opt.max_line_bytes = 1024;  // small cap so the test stays cheap
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("frobnicate everything");
  client.WaitFor("err unknown-verb 'frobnicate'");
  client.Send("query");
  client.WaitFor("err bad-args query");
  client.Send("query cat " + std::string(4096, 'x'));
  client.WaitFor("err oversized-line");
  // Also when the whole oversized line (and its newline) lands in ONE read
  // chunk — the cap must hold whether or not the reader ever saw the
  // buffer grow past it incrementally.
  client.Send("query cat " + std::string(2000, 'y'));
  client.WaitFor("err oversized-line");
  // The connection survives all of it.
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  client.Send("query cat section");
  client.WaitFor("[sat    ] section");
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, BatchAndBinaryFramingAcrossTheSocket) {
  SatEngineOptions eopt;
  eopt.slow_request_ns = 1;  // every request traces: the JSON shape is the
                             // assertion, not actual slowness
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_batch.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("batch");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("hello batch binary");
  // The socket transport supports binary frames, so both are granted.
  client.WaitFor("ok hello batch binary");
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  // The whole batch as binary frames in one write — the bulk-client shape.
  std::string wire = protocol::EncodeFrame("batch 2");
  wire += protocol::EncodeFrame("query cat section/item");
  wire += protocol::EncodeFrame("q cat nosuchlabel");
  client.SendBytes(wire);
  client.WaitForAll({"ok batch 1 ids", "[sat    ] section/item",
                     "[unsat  ] nosuchlabel", "ok batch 1 done"});
  // Text and binary interleave freely after negotiation; wire-decode cost
  // for framed requests lands in the slow-trace JSON.
  client.Send("slow");
  std::string slow = client.WaitFor("slow {");
  EXPECT_NE(slow.find("\"wire_decode_ns\":"), std::string::npos) << slow;
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, UnNegotiatedBinaryFrameIsFatal) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("noneg");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.SendBytes(protocol::EncodeFrame("stats"));
  client.WaitFor("err bad-frame binary framing not negotiated");
  client.WaitForEof();
  server.Stop();
}

TEST(SocketServerTest, MalformedFramesAnswerBadFrameAndNeverHang) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("badframe");
  opt.max_line_bytes = 1024;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  {
    // A frame declaring an absurd length: fatal immediately (no buffering
    // of a 4 GiB "payload", no waiting for bytes that never come).
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("hello binary");
    client.WaitFor("ok hello binary");
    std::string huge(5, '\0');
    huge[1] = huge[2] = huge[3] = huge[4] = '\xff';
    client.SendBytes(huge);
    std::string err = client.WaitFor("err bad-frame");
    EXPECT_NE(err.find("4294967295"), std::string::npos) << err;
    client.WaitForEof();
  }
  {
    // A frame truncated by EOF — mid-header and mid-payload both: the
    // session answers a structured error and tears down instead of hanging.
    for (size_t keep : {1u, 3u, 7u}) {
      Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
      ASSERT_TRUE(fd.ok()) << fd.error();
      TestClient client(std::move(fd).value());
      client.Send("hello binary");
      client.WaitFor("ok hello binary");
      std::string frame = protocol::EncodeFrame("stats");
      client.SendBytes(frame.substr(0, keep));
      client.ShutdownWrites();
      client.WaitFor("err bad-frame");
      client.WaitForEof();
    }
  }
  server.Stop();
}

TEST(SocketServerTest, BatchInterruptedByEofAnswersBatchMismatch) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_batch_eof.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("batcheof");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("hello batch");
  client.WaitFor("ok hello batch");
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd cat");
  client.Send("batch 3");
  client.Send("query cat section");
  client.ShutdownWrites();
  client.WaitFor("err batch-mismatch batch 1: input ended after 1 of 3");
  client.WaitForEof();
  server.Stop();
  EXPECT_EQ(engine.stats().requests, 0u);
}

TEST(SocketServerTest, TcpListenerOnEphemeralPort) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_tcp.dtd");
  SocketServerOptions opt;
  opt.tcp_port = 0;  // ephemeral
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  Result<net::ScopedFd> fd = net::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  client.Send("query cat **/note");
  client.WaitFor("[sat    ] **/note");
  client.Send("quit");
  client.WaitFor("ok quit");
  client.WaitForEof();
  server.Stop();
}

TEST(SocketServerTest, AbruptDisconnectDrainsInFlightWork) {
  // A client that vanishes mid-batch must not wedge or crash the server:
  // its session drains against a dead socket and the engine finishes the
  // work. (ASan/TSan turn lifetime mistakes here into hard failures.)
  SatEngineOptions eopt;
  eopt.num_threads = 1;
  eopt.memo_capacity = 0;
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_abrupt.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("abrupt");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("dtd cat " + dtd_path);
    client.WaitFor("ok dtd");
    for (int i = 0; i < 20; ++i) {
      client.Send(std::string("query cat ") + kHeavyQuery);
    }
    // ~TestClient closes the socket with the batch still in flight.
  }
  // Stop() joins the connection thread, which waits for the session drain:
  // returning at all is the assertion.
  server.Stop();
  EXPECT_EQ(engine.stats().requests, 20u);
}

// --- Production hardening: auth, health, caps, throttle, lifecycles ------

TEST(SocketServerTest, AuthGateAcrossTheSocket) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_auth.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("auth");
  opt.auth_secret = "open sesame";  // spaces allowed: arg is the remainder
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  {
    // Any verb before auth: one structured error, then the session ends.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("stats");
    client.WaitFor("err auth-required stats");
    client.WaitForEof();
  }
  {
    // Wrong secret: err bad-auth, then the session ends.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("auth wrong");
    client.WaitFor("err bad-auth");
    client.WaitForEof();
  }
  {
    // Malformed input before auth is also one-strike.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("no-such-verb");
    client.WaitFor("err unknown-verb");
    client.WaitForEof();
  }
  {
    // The right secret unlocks the full protocol.
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    client.Send("auth open sesame");
    client.WaitFor("ok auth");
    client.Send("dtd cat " + dtd_path);
    client.WaitFor("ok dtd cat");
    client.Send("query cat section");
    client.WaitFor("[sat    ] section");
    client.Send("quit");
    client.WaitFor("ok quit");
  }
  server.Stop();
}

TEST(SocketServerTest, HealthIsUnauthenticatedButRedactedBeforeAuth) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("health");
  opt.auth_secret = "s3cret";
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  // No auth line sent: health must still answer (load-balancer probes) —
  // but only liveness. The merged engine/connection counters are for
  // authenticated clients; a probe port must not leak workload telemetry.
  client.Send("health");
  std::string first = client.WaitFor("health {");
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"uptime_ms\":"), std::string::npos) << first;
  EXPECT_EQ(first.find("connections_active"), std::string::npos) << first;
  EXPECT_EQ(first.find("\"engine\""), std::string::npos) << first;
  EXPECT_EQ(first.find("requests"), std::string::npos) << first;
  // The session stays open for more probes.
  client.Send("health");
  client.WaitFor("health {");
  client.Send("auth s3cret");
  client.WaitFor("ok auth");
  // Post-auth the same verb serves the full merged object again.
  client.Send("health");
  std::string full = client.WaitFor("health {");
  EXPECT_NE(full.find("\"connections_active\": 1"), std::string::npos)
      << full;
  EXPECT_NE(full.find("\"engine\": {"), std::string::npos) << full;
  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, MaxConnectionsRejectsWithErrBusy) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("busy");
  opt.max_connections = 2;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> first = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(first.ok()) << first.error();
  TestClient a(std::move(first).value());
  Result<net::ScopedFd> second = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(second.ok()) << second.error();
  TestClient b(std::move(second).value());
  // Make sure both are admitted (not still in the accept queue) before the
  // over-cap attempt.
  a.Send("stats");
  a.WaitFor("stats {");
  b.Send("stats");
  b.WaitFor("stats {");
  ASSERT_EQ(server.connections_active(), 2u);

  {
    Result<net::ScopedFd> third = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(third.ok()) << third.error();
    TestClient rejected(std::move(third).value());
    rejected.WaitFor("err busy max-connections (2) reached");
    rejected.WaitForEof();
  }
  EXPECT_EQ(server.connections_rejected(), 1u);
  EXPECT_EQ(server.connections_accepted(), 2u) << "rejects are not accepts";

  // Freeing a slot re-opens admission. The retire is asynchronous (worker
  // teardown, then the reactor erases), so retry until admitted.
  a.Send("quit");
  a.WaitFor("ok quit");
  a.WaitForEof();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    Result<net::ScopedFd> again = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(again.ok()) << again.error();
    TestClient c(std::move(again).value());
    c.TrySend("stats");
    if (c.WaitForAny({"stats {", "err busy"}).rfind("stats", 0) == 0) {
      admitted = true;
      c.Send("quit");
      c.WaitFor("ok quit");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(admitted) << "slot never freed after quit";
  server.Stop();
}

// Every `"key": <integer>` pair in `json`, at any nesting depth (keys are
// unique across the objects this test reads).
std::map<std::string, int64_t> NumericFields(const std::string& json) {
  std::map<std::string, int64_t> out;
  size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = json.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (json.compare(pos, 2, ": ") != 0) continue;
    const size_t digits = pos + 2;
    size_t stop = digits;
    if (stop < json.size() && json[stop] == '-') ++stop;
    while (stop < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[stop]))) {
      ++stop;
    }
    if (stop == digits) continue;  // a string or object value
    out[key] = std::stoll(json.substr(digits, stop - digits));
    pos = stop;
  }
  return out;
}

// The flat object `"name": {...}` inside a `metrics` reply.
std::string MetricsSection(const std::string& metrics,
                           const std::string& name) {
  const size_t open = metrics.find("\"" + name + "\": {");
  if (open == std::string::npos) return "";
  const size_t close = metrics.find('}', open);
  return metrics.substr(open, close - open + 1);
}

// One counter store: `stats` (connection counters wrapping the engine stats)
// and `metrics` must report the same value for every counter once all work
// has resolved. The workload touches every counter family: memo hits and
// misses, a parse error, a cancel, deadline expiries, a snapshot load with a
// corrupt record, and a connection refused at max_connections. Only the
// equalities are asserted, never particular counts, so a cancel or deadline
// that loses its race leaves the test as valid as one that wins.
TEST(SocketServerTest, StatsAndMetricsAgree) {
  SatEngineOptions eopt;
  eopt.num_threads = 1;  // heavy queries queue, so deadlines and cancels bite
  SatEngine engine(eopt);
  std::string dtd_path = WriteTempDtd("socket_agree.dtd");
  const std::string snap_path = testing::TempDir() + "socket_agree.xpsnap";
  SocketServerOptions opt;
  opt.unix_path = SocketPath("agree");
  opt.max_connections = 1;
  opt.session.deadline_ms = 2;
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  client.Send("query cat section/item");
  client.Send("flush");
  client.WaitFor("ok flush");
  client.Send("query cat section/item");
  client.Send("query cat ][");
  client.Send("save " + snap_path);
  client.WaitFor("ok save");

  // The admitted client holds the only slot: this accept is refused.
  {
    Result<net::ScopedFd> extra = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(extra.ok()) << extra.error();
    TestClient rejected(std::move(extra).value());
    rejected.WaitFor("err busy");
    rejected.WaitForEof();
  }

  // Flip a byte inside the first record: the load skips it (and the memo
  // record that depended on it).
  {
    std::ifstream in(snap_path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(data.size(), 20u);
    data[12 + 5] ^= 0x01;
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  client.Send("load " + snap_path);
  client.WaitFor("ok load");

  // Distinct NP skeleton searches (no memo hits among them) queue on the one
  // worker; the tail is cancelled, and whatever waits past the 2 ms deadline
  // expires.
  std::string heavy = "**/item[title && note";
  for (int i = 0; i < 100; ++i) {
    heavy += " && note";
    client.Send("query cat " + heavy + "]");
  }
  client.Send("query cat section/heading");
  std::string tail_ack;
  for (int i = 0; i < 101; ++i) tail_ack = client.WaitFor("ok query ");
  client.Send("cancel " + tail_ack.substr(std::string("ok query ").size()));
  client.WaitForAny({"ok cancel", "err not-cancellable", "err unknown-ticket"});
  client.Send("flush");
  client.WaitFor("ok flush");

  client.Send("stats");
  const std::map<std::string, int64_t> stats =
      NumericFields(client.WaitFor("stats {"));
  client.Send("metrics");
  const std::string metrics = client.WaitFor("metrics {");
  std::map<std::string, int64_t> cells =
      NumericFields(MetricsSection(metrics, "counters"));
  for (const auto& [name, value] :
       NumericFields(MetricsSection(metrics, "gauges"))) {
    cells[name] = value;
  }
  std::map<std::string, int64_t> routes =
      NumericFields(MetricsSection(metrics, "routes"));

  // Not registry cells: the rewrite pair lives on RewriteCache; uptime_ms
  // and snapshot_seq are stamped per reply. The live_dtd_handles and
  // live_compiled_artifacts gauges are registry cells and are compared.
  const std::set<std::string> not_in_registry = {
      "rewrite_cache_hits", "rewrite_cache_misses", "uptime_ms",
      "snapshot_seq"};
  size_t compared = 0;
  for (const auto& [name, value] : stats) {
    if (not_in_registry.count(name) != 0) continue;
    ASSERT_EQ(cells.count(name), 1u) << name << " missing from metrics";
    EXPECT_EQ(cells[name], value) << name;
    ++compared;
  }
  EXPECT_EQ(compared, kNumSatEngineCounters + 7)
      << "15 engine counters + the two engine gauges + 5 server";
  EXPECT_EQ(stats.at("memo_hits"), routes["memo-hit"]);
  EXPECT_EQ(stats.at("cancellations"), routes["cancelled"]);
  EXPECT_EQ(stats.at("deadline_expirations"), routes["deadline"]);
  EXPECT_EQ(stats.at("parse_errors"), routes["parse-error"]);

  client.Send("quit");
  client.WaitFor("ok quit");
  server.Stop();
  std::remove(snap_path.c_str());
}

TEST(SocketServerTest, PerIpThrottleAnswersErrThrottledOnTcp) {
  SatEngine engine;
  SocketServerOptions opt;
  opt.tcp_port = 0;
  opt.tcp_accepts_per_ip_per_sec = 1;  // burst 1: the second accept trips it
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> first = net::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(first.ok()) << first.error();
  TestClient a(std::move(first).value());
  a.Send("stats");
  a.WaitFor("stats {");

  // At 1 accept/sec, back-to-back connects must trip the bucket; retry a
  // few times so a >1s scheduler stall (which refills a token) cannot turn
  // this into a flake.
  bool throttled = false;
  for (int attempt = 0; attempt < 10 && !throttled; ++attempt) {
    Result<net::ScopedFd> next =
        net::ConnectTcp("127.0.0.1", server.tcp_port());
    ASSERT_TRUE(next.ok()) << next.error();
    TestClient b(std::move(next).value());
    b.TrySend("stats");
    std::string reply = b.WaitForAny({"stats {", "err throttled"});
    if (reply.rfind("err throttled", 0) == 0) {
      throttled = true;
      b.WaitForEof();
    }
  }
  EXPECT_TRUE(throttled) << "no accept was ever throttled";
  EXPECT_GE(server.connections_throttled(), 1u);

  a.Send("quit");
  a.WaitFor("ok quit");
  server.Stop();
}

TEST(SocketServerTest, IdleTimeoutEvictsSilentButNotActiveConnections) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_idle.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("idle");
  opt.idle_timeout_ms = 2000;  // generous: activity pings land well inside
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd cat " + dtd_path);
  client.WaitFor("ok dtd");
  // Active phase: keep traffic flowing for LONGER than idle_timeout_ms.
  // Surviving it proves the timeout runs from last activity, not from
  // accept.
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::milliseconds(2500)) {
    client.Send("query cat section");
    client.WaitFor(" -- ");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  EXPECT_EQ(server.idle_evictions(), 0u)
      << "an active connection was evicted";
  // Silent phase: the eviction arrives with a structured error, then EOF.
  client.WaitFor("err idle-timeout", /*timeout_ms=*/10000);
  client.WaitForEof();
  EXPECT_EQ(server.idle_evictions(), 1u);
  server.Stop();
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(SocketServerTest, DisconnectCyclesReturnFdsToBaselineWhileIdle) {
  // The old design parked one thread + fd per finished connection until the
  // NEXT accept ran the reaper — an idle server held resources forever.
  // The reactor retires connections as they finish; after N cycles the
  // process must be back at its fd baseline with zero live connections,
  // without any further traffic to nudge it.
  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("reap");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());
  const size_t baseline = CountOpenFds();
  ASSERT_GT(baseline, 0u);

  for (int cycle = 0; cycle < 20; ++cycle) {
    Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
    ASSERT_TRUE(fd.ok()) << fd.error();
    TestClient client(std::move(fd).value());
    if (cycle % 2 == 0) {
      client.Send("quit");  // clean close
      client.WaitFor("ok quit");
      client.WaitForEof();
    }
    // Odd cycles: abrupt disconnect (~TestClient shuts the socket down).
  }

  // Retirement is asynchronous; poll briefly instead of trusting a single
  // instant.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((server.connections_active() != 0 || CountOpenFds() > baseline) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  EXPECT_LE(CountOpenFds(), baseline)
      << "an idle server is still holding per-connection fds";
  EXPECT_EQ(server.connections_accepted(), 20u);
  server.Stop();
}

TEST(SocketServerTest, StartPartialFailureUnlinksTheUnixSocketFile) {
  // Occupy a TCP port so the second listener bind fails AFTER the unix
  // listener bound (and created its socket file).
  int taken_port = -1;
  Result<net::ScopedFd> blocker =
      net::ListenTcp("127.0.0.1", 0, &taken_port);
  ASSERT_TRUE(blocker.ok()) << blocker.error();

  SatEngine engine;
  SocketServerOptions opt;
  opt.unix_path = SocketPath("partial");
  opt.tcp_port = taken_port;  // already bound: Start must fail
  {
    SocketServer server(&engine, opt);
    Status started = server.Start();
    ASSERT_FALSE(started.ok());
    // The failure path must have unlinked the file the unix bind created —
    // a leftover file would shadow the path for every later server.
    struct stat st;
    EXPECT_EQ(::stat(opt.unix_path.c_str(), &st), -1)
        << "stale unix socket file left behind by failed Start";
    EXPECT_EQ(errno, ENOENT);
  }
  // And the path is genuinely reusable right away.
  SocketServerOptions retry_opt;
  retry_opt.unix_path = opt.unix_path;
  SocketServer retry(&engine, retry_opt);
  ASSERT_TRUE(retry.Start().ok());
  Result<net::ScopedFd> fd = net::ConnectUnix(retry_opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("quit");
  client.WaitFor("ok quit");
  retry.Stop();
}

TEST(SocketServerTest, ConcurrentStopsAllBlockUntilShutdownIsComplete) {
  // Regression, two shutdown races: (1) Stop() used to gate on
  // `stopping_.exchange(true)`, so a caller racing another Stop() (second
  // signal, destructor, the reactor's poller-failure self-stop) returned
  // IMMEDIATELY while threads were still serving — and shutdown-path
  // actions sequenced after it (stats dump, --save-on-exit snapshot) ran
  // against a live server. (2) A worker finishing a line batch tested its
  // stale pre-batch `input_closed` copy, so a close landing mid-batch
  // (here: BeginShutdown's CloseInput while the 8 queries are being
  // handled, whose ScheduleLocked the worker's own token suppresses) was
  // dropped — the connection was never retired and Stop() hung joining a
  // reactor waiting for exactly that. Now every caller must observe a
  // complete stop: after ANY Stop() returns, the unix socket file is
  // unlinked and no new connection is possible.
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("socket_stopraces.dtd");
  SocketServerOptions opt;
  opt.unix_path = SocketPath("stopraces");
  SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  // Keep a connection live with in-flight heavy work so the stop actually
  // has draining to do (an idle stop would mask the race).
  Result<net::ScopedFd> fd = net::ConnectUnix(opt.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.error();
  TestClient client(std::move(fd).value());
  client.Send("dtd d " + dtd_path);
  client.WaitFor("ok dtd");
  for (int i = 0; i < 8; ++i) {
    client.Send(std::string("query d ") + kHeavyQuery);
  }

  constexpr int kStoppers = 4;
  std::atomic<int> returned{0};
  std::vector<std::thread> stoppers;
  stoppers.reserve(kStoppers);
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([&] {
      server.Stop();
      // The invariant under test: the moment MY Stop() returns — winner or
      // late arrival — the socket file is gone and connects are refused.
      struct stat st;
      EXPECT_EQ(::stat(opt.unix_path.c_str(), &st), -1)
          << "Stop() returned before the unix socket was unlinked";
      Result<net::ScopedFd> refused = net::ConnectUnix(opt.unix_path);
      EXPECT_FALSE(refused.ok())
          << "Stop() returned while the server still accepts connections";
      returned.fetch_add(1);
    });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(returned.load(), kStoppers);
  // Still idempotent after the dust settles.
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace xpathsat
