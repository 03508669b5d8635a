// client::Client against a live SocketServer: connect/auth/negotiate,
// many multiplexed in-flight tickets correlated by id, batch submission
// under the server barrier (and the per-query fallback when batch was not
// granted), binary framing, and the latched transport-failure surface.
// Everything runs in process so the ASan/TSan CI jobs see every thread.
#include "src/client/client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/sat_engine.h"
#include "src/sat/satisfiability.h"
#include "src/server/socket_server.h"
#include "src/xpath/parser.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace client {
namespace {

constexpr char kDtdText[] = R"(root catalog
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

// ctest runs each test case as its own process, several at once: the pid
// keeps one case from truncating the file another case's server is reading.
std::string WriteTempDtd(const std::string& name,
                         const char* text = kDtdText) {
  std::string path =
      testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::ofstream out(path);
  out << text;
  EXPECT_TRUE(out.good());
  return path;
}

std::string SocketPath(const char* tag) {
  return std::string("clitest_") + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

/// Counts callback completions so tests can block for "all N fired".
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryOutcome> outcomes;
  std::vector<Status> statuses;
  void Add(const Status& status, const QueryOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu);
    statuses.push_back(status);
    outcomes.push_back(outcome);
    cv.notify_all();
  }
  void WaitForCount(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return outcomes.size() >= n; }))
        << "only " << outcomes.size() << " of " << n << " callbacks fired";
  }
};

TEST(ClientTest, ConnectAuthenticatesAndNegotiates) {
  SatEngine engine;
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("auth");
  opt.auth_secret = "open sesame";
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  {
    // Wrong secret: Connect fails outright, no half-open client.
    ClientOptions copt;
    copt.target = "unix:" + opt.unix_path;
    copt.auth_secret = "wrong";
    Result<std::unique_ptr<Client>> bad = Client::Connect(copt);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.error().find("bad-auth"), std::string::npos) << bad.error();
  }
  {
    ClientOptions copt;
    copt.target = "unix:" + opt.unix_path;
    copt.auth_secret = "open sesame";
    copt.negotiate_batch = true;
    copt.negotiate_binary = true;
    Result<std::unique_ptr<Client>> ok = Client::Connect(copt);
    ASSERT_TRUE(ok.ok()) << ok.error();
    Client& client = *ok.value();
    EXPECT_TRUE(client.batch_granted());
    EXPECT_TRUE(client.binary_granted());
    EXPECT_TRUE(client.transport_status().ok());
    // Call returns err lines verbatim (they are replies, not transport
    // failures).
    Result<std::string> reply = client.Call("drop nosuch");
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(reply.value().rfind("err unknown-dtd", 0), 0u) << reply.value();
  }
  server.Stop();
}

TEST(ClientTest, BadTargetsFailFast) {
  for (const char* target :
       {"no-port-here", "host:notaport", "host:0", "host:70000",
        "unix:/nonexistent/dir/x.sock"}) {
    ClientOptions copt;
    copt.target = target;
    Result<std::unique_ptr<Client>> r = Client::Connect(copt);
    EXPECT_FALSE(r.ok()) << target;
  }
}

TEST(ClientTest, MultiplexedSubmitsCorrelateByTicketId) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("client_mux.dtd");
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("mux");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  Result<std::string> dtd = client.Call("dtd cat " + dtd_path);
  ASSERT_TRUE(dtd.ok()) << dtd.error();
  ASSERT_EQ(dtd.value().rfind("ok dtd cat", 0), 0u) << dtd.value();

  // Many tickets in flight at once; sat and unsat members interleave, and
  // each callback must see its own ticket's outcome.
  auto done = std::make_shared<Completions>();
  std::vector<uint64_t> sat_ids, unsat_ids;
  for (int i = 0; i < 24; ++i) {
    const bool expect_sat = i % 2 == 0;
    Result<uint64_t> id = client.SubmitQuery(
        "cat", expect_sat ? "section/item" : "nosuchlabel",
        [done](const Status& status, const QueryOutcome& outcome) {
          done->Add(status, outcome);
        });
    ASSERT_TRUE(id.ok()) << id.error();
    (expect_sat ? sat_ids : unsat_ids).push_back(id.value());
  }
  done->WaitForCount(24);
  ASSERT_TRUE(client.Flush().ok());
  std::set<uint64_t> seen;
  for (size_t i = 0; i < done->outcomes.size(); ++i) {
    ASSERT_TRUE(done->statuses[i].ok()) << done->statuses[i].message();
    const QueryOutcome& outcome = done->outcomes[i];
    seen.insert(outcome.ticket_id);
    const bool was_sat_id =
        std::find(sat_ids.begin(), sat_ids.end(), outcome.ticket_id) !=
        sat_ids.end();
    EXPECT_EQ(outcome.verdict, was_sat_id ? "sat" : "unsat")
        << outcome.line;
  }
  EXPECT_EQ(seen.size(), 24u);  // no callback fired twice / for a wrong id
  server.Stop();
}

TEST(ClientTest, SubmitBatchRidesTheServerBarrier) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("client_batch.dtd");
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("batch");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  copt.negotiate_batch = true;
  copt.negotiate_binary = true;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  ASSERT_TRUE(client.batch_granted());
  ASSERT_TRUE(client.binary_granted());
  ASSERT_TRUE(client.Call("dtd cat " + dtd_path).ok());

  std::vector<std::string> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(i % 2 == 0 ? "section/item" : "**/note");
  }
  auto per_item = std::make_shared<Completions>();
  std::atomic<int> barrier_fired{0};
  Result<Client::BatchHandle> handle = client.SubmitBatch(
      "cat", queries,
      [per_item](const Status& status, const QueryOutcome& outcome) {
        per_item->Add(status, outcome);
      },
      [&barrier_fired](const Status& status) {
        EXPECT_TRUE(status.ok()) << status.message();
        barrier_fired.fetch_add(1);
      });
  ASSERT_TRUE(handle.ok()) << handle.error();
  EXPECT_GT(handle.value().seq, 0u);  // real server-side batch, no fallback
  ASSERT_EQ(handle.value().ids.size(), 16u);
  per_item->WaitForCount(16);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(barrier_fired.load(), 1);
  for (const Status& s : per_item->statuses) EXPECT_TRUE(s.ok());
  server.Stop();
  EXPECT_EQ(engine.stats().requests, 16u);
}

TEST(ClientTest, SubmitBatchFallsBackWithoutTheGrant) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("client_fallback.dtd");
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("fallback");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;  // no negotiation at all
  copt.target = "unix:" + opt.unix_path;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  EXPECT_FALSE(client.batch_granted());
  ASSERT_TRUE(client.Call("dtd cat " + dtd_path).ok());

  auto per_item = std::make_shared<Completions>();
  std::atomic<int> barrier_fired{0};
  Result<Client::BatchHandle> handle = client.SubmitBatch(
      "cat", {"section/item", "**/note", "nosuchlabel"},
      [per_item](const Status& status, const QueryOutcome& outcome) {
        per_item->Add(status, outcome);
      },
      [&barrier_fired](const Status&) { barrier_fired.fetch_add(1); });
  ASSERT_TRUE(handle.ok()) << handle.error();
  EXPECT_EQ(handle.value().seq, 0u);  // fallback: no server-side barrier
  EXPECT_EQ(handle.value().ids.size(), 3u);
  per_item->WaitForCount(3);
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(barrier_fired.load(), 1);
  server.Stop();
}

// Wire-batch verdict parity: every member verdict that comes back through a
// server-side `batch` equals the facade's, at each batch size and on both
// framings. The schema is disjunction-free, so one DTD carries reach
// (Thm 4.1), sibling (Thm 7.1), filter (Thm 6.8(1)) and skeleton (Thm 4.4)
// queries; repeats of the mix are memo hits, so memoized verdicts ride the
// batches too.
constexpr char kDjFreeDtdText[] = R"(root catalog
catalog -> section*
section -> heading, item*, appendix
heading -> eps
item -> title, price, variant*, note*
title -> eps
price -> eps
variant -> swatch, swatch*
swatch -> eps
note -> ref
ref -> eps
appendix -> note*
)";

// (batch size, binary frames)
class WireBatchParityTest
    : public testing::TestWithParam<std::tuple<size_t, bool>> {};

const char* VerdictText(SatVerdict verdict) {
  switch (verdict) {
    case SatVerdict::kSat: return "sat";
    case SatVerdict::kUnsat: return "unsat";
    case SatVerdict::kUnknown: return "unknown";
  }
  return "?";
}

TEST_P(WireBatchParityTest, MemberVerdictsMatchTheFacade) {
  const auto [batch_size, binary] = GetParam();
  const std::vector<std::string> mix = {
      // reach
      "section/item", "**/note", "section/item/swatch", "nosuchlabel",
      "section/**/swatch", "item|**/title",
      // sibling
      "section/heading/>",
      // filter
      "section/item[variant]", "**/item[title && note]", "section/item[ref]",
      "section[heading && appendix/note]",
      // skeleton
      "section/item[note]/^", "**/swatch/^[title]", "**/ref/^^[price]"};
  const Dtd dtd = ParseDtdOrDie(kDjFreeDtdText);
  std::map<std::string, std::string> expected;
  std::set<std::string> routes;
  for (const std::string& q : mix) {
    Result<std::unique_ptr<PathExpr>> p = ParsePath(q);
    ASSERT_TRUE(p.ok()) << q << ": " << p.error();
    SatReport report = DecideSatisfiability(*p.value(), dtd);
    expected[q] = VerdictText(report.decision.verdict);
    EXPECT_NE(expected[q], "unknown") << q;
    routes.insert(report.algorithm);
  }
  for (const char* route : {"reach-dp (Thm 4.1)", "djfree-dp (Thm 6.8(1))",
                            "skeleton (Thm 4.4)"}) {
    EXPECT_EQ(routes.count(route), 1u) << "the mix never routes to " << route;
  }

  SatEngine engine;
  std::string dtd_path = WriteTempDtd("client_parity.dtd", kDjFreeDtdText);
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("parity");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  copt.negotiate_batch = true;
  copt.negotiate_binary = binary;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  ASSERT_TRUE(client.batch_granted());
  ASSERT_EQ(client.binary_granted(), binary);
  ASSERT_TRUE(client.Call("dtd cat " + dtd_path).ok());

  // 256 members cycling through the mix, cut into batches of the size under
  // test; each batch counts its own barrier.
  const size_t kMembers = 256;
  std::vector<std::string> sequence;
  for (size_t i = 0; i < kMembers; ++i) sequence.push_back(mix[i % mix.size()]);
  const size_t batches = kMembers / batch_size;
  auto per_item = std::make_shared<Completions>();
  auto barriers = std::make_shared<std::vector<std::atomic<int>>>(batches);
  std::vector<Client::BatchHandle> handles;
  for (size_t b = 0; b < batches; ++b) {
    const auto first = sequence.begin() +
                       static_cast<std::ptrdiff_t>(b * batch_size);
    Result<Client::BatchHandle> handle = client.SubmitBatch(
        "cat",
        std::vector<std::string>(
            first, first + static_cast<std::ptrdiff_t>(batch_size)),
        [per_item](const Status& status, const QueryOutcome& outcome) {
          per_item->Add(status, outcome);
        },
        [barriers, b](const Status& status) {
          EXPECT_TRUE(status.ok()) << status.message();
          (*barriers)[b].fetch_add(1);
        });
    ASSERT_TRUE(handle.ok()) << handle.error();
    EXPECT_GT(handle.value().seq, 0u);  // a real server-side batch
    ASSERT_EQ(handle.value().ids.size(), batch_size);
    handles.push_back(std::move(handle).value());
  }
  per_item->WaitForCount(kMembers);
  ASSERT_TRUE(client.Flush().ok());
  server.Stop();

  std::map<uint64_t, std::string> verdict_by_id;
  for (size_t i = 0; i < per_item->outcomes.size(); ++i) {
    ASSERT_TRUE(per_item->statuses[i].ok()) << per_item->statuses[i].message();
    verdict_by_id[per_item->outcomes[i].ticket_id] =
        per_item->outcomes[i].verdict;
  }
  ASSERT_EQ(verdict_by_id.size(), kMembers);  // one result per member
  size_t index = 0;
  for (size_t b = 0; b < batches; ++b) {
    EXPECT_EQ((*barriers)[b].load(), 1) << "batch " << b;
    for (uint64_t id : handles[b].ids) {
      const std::string& q = sequence[index++];
      EXPECT_EQ(verdict_by_id[id], expected[q]) << "wire vs facade on " << q;
    }
  }
  EXPECT_EQ(engine.stats().requests, kMembers);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFramings, WireBatchParityTest,
    testing::Combine(testing::Values<size_t>(1, 16, 256), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return "Batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "BinaryFrames" : "TextLines");
    });

TEST(ClientTest, MetricsPromBlockArrivesJoined) {
  SatEngine engine;
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("prom");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Result<std::string> prom = conn.value()->Call("metrics prom");
  ASSERT_TRUE(prom.ok()) << prom.error();
  EXPECT_NE(prom.value().find('\n'), std::string::npos);
  EXPECT_EQ(prom.value().substr(prom.value().size() - 5), "# EOF");
  server.Stop();
}

TEST(ClientTest, TransportFailureLatchesAndSurfacesEverywhere) {
  SatEngine engine;
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("fail");
  auto server = std::make_unique<server::SocketServer>(&engine, opt);
  ASSERT_TRUE(server->Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  ASSERT_TRUE(client.Call("stats").ok());

  // The server goes away mid-session.
  server->Stop();
  server.reset();

  // Every later structured call fails with a Status, never a hang; the
  // latched transport status explains why.
  Result<std::string> reply = client.Call("stats");
  EXPECT_FALSE(reply.ok());
  EXPECT_FALSE(client.transport_status().ok());
  Result<uint64_t> submit = client.SubmitQuery(
      "cat", "section", [](const Status&, const QueryOutcome&) {});
  EXPECT_FALSE(submit.ok());

  // Reconnect-safe: a fresh Client against a fresh server works while the
  // dead one keeps failing fast.
  server = std::make_unique<server::SocketServer>(&engine, opt);
  ASSERT_TRUE(server->Start().ok());
  Result<std::unique_ptr<Client>> again = Client::Connect(copt);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_TRUE(again.value()->Call("stats").ok());
  EXPECT_FALSE(client.Call("stats").ok());
  server->Stop();
}

TEST(ClientTest, RawModeTapsEveryReplyLine) {
  SatEngine engine;
  std::string dtd_path = WriteTempDtd("client_raw.dtd");
  server::SocketServerOptions opt;
  opt.unix_path = SocketPath("raw");
  server::SocketServer server(&engine, opt);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copt;
  copt.target = "unix:" + opt.unix_path;
  Result<std::unique_ptr<Client>> conn = Client::Connect(copt);
  ASSERT_TRUE(conn.ok()) << conn.error();
  Client& client = *conn.value();
  std::mutex mu;
  std::vector<std::string> lines;
  client.set_line_tap([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  ASSERT_TRUE(client.SendRaw("dtd cat " + dtd_path).ok());
  ASSERT_TRUE(client.SendRaw("query cat section/item").ok());
  ASSERT_TRUE(client.SendRaw("flush").ok());
  ASSERT_TRUE(client.SendRaw("quit").ok());
  client.ShutdownWrites();
  client.WaitForServerEof();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(lines.size(), 4u);
  bool saw_result = false;
  for (const std::string& l : lines) {
    if (l.find("[sat    ] section/item") != std::string::npos) {
      saw_result = true;
    }
  }
  EXPECT_TRUE(saw_result);
  EXPECT_EQ(lines.back(), "ok quit");
  server.Stop();
}

}  // namespace
}  // namespace client
}  // namespace xpathsat
