// SatEngine: verdict parity with the facade (including under concurrent
// execution with shared caches and on memo-hit rounds — the ASan/UBSan and
// TSan CI jobs run this suite), DtdHandle registration/release, async
// Submit/ticket ordering, TryCancel semantics, deadline-cancels-queued-work,
// and verdict memoization.
#include "src/engine/sat_engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sat/satisfiability.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

// A mid-size non-disjunction-free schema whose `**/item[title && note]`
// instances route to the NP skeleton search (hundreds of microseconds each):
// the "heavy" traffic used to keep a single worker busy while queued work is
// cancelled or expires.
Dtd MakeHeavyDtd() {
  return ParseDtdOrDie(R"(root catalog
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
)");
}

TEST(SatEngineTest, DecidesASmallBatch) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 2;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatRequest> batch;
  for (const char* q : {"A", "B", "C", "A/B", "**/B", "r"}) {
    SatRequest r;
    r.query = q;
    r.dtd = handle;
    batch.push_back(std::move(r));
  }
  std::vector<SatResponse> out = engine.RunBatch(batch);
  ASSERT_EQ(out.size(), 6u);
  for (const SatResponse& r : out) ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(out[0].report.sat());    // A
  EXPECT_TRUE(out[1].report.sat());    // B
  EXPECT_TRUE(out[2].report.unsat());  // C undeclared
  EXPECT_TRUE(out[3].report.unsat());  // A has no children
  EXPECT_TRUE(out[4].report.sat());    // **/B
  EXPECT_TRUE(out[5].report.unsat());  // r below the root? no: r -> A,B*
  EXPECT_EQ(out[0].dtd_fingerprint, d.Fingerprint());
  EXPECT_EQ(handle.fingerprint(), d.Fingerprint());
}

TEST(SatEngineTest, ResponsesComeBackInRequestOrder) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 4;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatRequest> batch;
  for (int i = 0; i < 64; ++i) {
    SatRequest r;
    r.query = (i % 2 == 0) ? "A" : "B";  // alternating sat / unsat
    r.dtd = handle;
    batch.push_back(std::move(r));
  }
  std::vector<SatResponse> out = engine.RunBatch(batch);
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(out[static_cast<size_t>(i)].status.ok());
    EXPECT_EQ(out[static_cast<size_t>(i)].report.sat(), i % 2 == 0) << i;
  }
}

TEST(SatEngineTest, RegisterDtdDeduplicatesEquivalentSchemas) {
  Dtd d1 = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  // Same rules, different declaration order: same fingerprint, same
  // artifacts.
  Dtd d2 = ParseDtdOrDie("root r\nB -> eps\nA -> eps\nr -> A, B*\n");
  SatEngine engine;
  DtdHandle h1 = engine.RegisterDtd(d1);
  DtdHandle h2 = engine.RegisterDtd(d2);
  EXPECT_EQ(h1.fingerprint(), h2.fingerprint());
  EXPECT_NE(h1.id(), h2.id());
  EXPECT_EQ(h1.compiled(), h2.compiled());  // one compilation, shared pin
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.dtd_cache_misses, 1u);
  EXPECT_EQ(stats.dtd_cache_hits, 1u);
}

TEST(SatEngineTest, RegisterDtdTextParsesAndRejects) {
  SatEngine engine;
  Result<DtdHandle> good =
      engine.RegisterDtdText("root r\nr -> A*\nA -> eps\n");
  ASSERT_TRUE(good.ok()) << good.error();
  EXPECT_TRUE(good.value().valid());
  SatRequest r;
  r.query = "A";
  r.dtd = good.value();
  SatResponse resp = engine.Run(r);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_TRUE(resp.report.sat());

  Result<DtdHandle> bad = engine.RegisterDtdText("this is not a DTD");
  EXPECT_FALSE(bad.ok());
}

TEST(SatEngineTest, LiveHandleGaugeTracksReleases) {
  SatEngine engine;
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  EXPECT_EQ(engine.live_dtd_handles(), 0u);
  DtdHandle h1 = engine.RegisterDtd(d);
  EXPECT_EQ(engine.live_dtd_handles(), 1u);
  {
    DtdHandle copy = h1;  // copies share one registration pin
    EXPECT_EQ(copy.id(), h1.id());
    DtdHandle h2 = engine.RegisterDtd(d);
    EXPECT_NE(h2.id(), h1.id());
    EXPECT_EQ(engine.live_dtd_handles(), 2u);
  }
  EXPECT_EQ(engine.live_dtd_handles(), 1u);
  h1 = DtdHandle();
  EXPECT_EQ(engine.live_dtd_handles(), 0u);
}

TEST(SatEngineTest, CachesHitOnRepeatedTraffic) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatRequest> batch;
  for (const char* q : {"A", "B", "A/B"}) {
    SatRequest r;
    r.query = q;
    r.dtd = handle;
    batch.push_back(std::move(r));
  }
  std::vector<SatResponse> first = engine.RunBatch(batch);
  std::vector<SatResponse> second = engine.RunBatch(batch);
  // Round 2 is fully warm: every request hits the query cache and the memo.
  for (const SatResponse& r : second) {
    EXPECT_TRUE(r.query_cache_hit);
    EXPECT_TRUE(r.memo_hit);
  }
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FALSE(first[i].memo_hit);
    EXPECT_EQ(first[i].report.decision.verdict,
              second[i].report.decision.verdict);
    EXPECT_EQ(first[i].report.algorithm, second[i].report.algorithm);
  }
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.dtd_cache_misses, 1u);  // compiled exactly once
  EXPECT_EQ(stats.query_cache_misses, 3u);
  EXPECT_EQ(stats.query_cache_hits, 3u);
  EXPECT_EQ(stats.memo_misses, 3u);
  EXPECT_EQ(stats.memo_hits, 3u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST(SatEngineTest, TextualVariantsShareTheCanonicalEntryAndMemo) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest a;
  a.query = "(A)";  // prints canonically as "A"
  a.dtd = handle;
  SatRequest b;
  b.query = "A";
  b.dtd = handle;
  ASSERT_TRUE(engine.Run(a).status.ok());
  // The canonical key was inserted by the variant; the plain spelling hits
  // both the query cache and the memo (keyed by the canonical printing).
  SatResponse rb = engine.Run(b);
  ASSERT_TRUE(rb.status.ok());
  EXPECT_TRUE(rb.query_cache_hit);
  EXPECT_TRUE(rb.memo_hit);
}

TEST(SatEngineTest, MemoKeyedByOptionsDigest) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest with;
  with.query = "A";
  with.dtd = handle;
  SatRequest without = with;
  without.options.compute_witness = false;
  ASSERT_TRUE(engine.Run(with).status.ok());
  // Different options digest: must NOT be served from the witness-carrying
  // memo entry.
  SatResponse rn = engine.Run(without);
  ASSERT_TRUE(rn.status.ok());
  EXPECT_FALSE(rn.memo_hit);
  EXPECT_FALSE(rn.report.decision.witness.has_value());
  // Repeat of each variant hits its own entry, witness setting preserved.
  SatResponse rw2 = engine.Run(with);
  SatResponse rn2 = engine.Run(without);
  EXPECT_TRUE(rw2.memo_hit);
  EXPECT_TRUE(rw2.report.decision.witness.has_value());
  EXPECT_TRUE(rn2.memo_hit);
  EXPECT_FALSE(rn2.report.decision.witness.has_value());
}

TEST(SatEngineTest, MemoCanBeDisabled) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngineOptions opt;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest r;
  r.query = "A";
  r.dtd = handle;
  ASSERT_TRUE(engine.Run(r).status.ok());
  SatResponse again = engine.Run(r);
  ASSERT_TRUE(again.status.ok());
  EXPECT_FALSE(again.memo_hit);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  EXPECT_EQ(engine.stats().memo_misses, 0u);
}

TEST(SatEngineTest, MemoEvictsLeastRecentlyUsed) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngineOptions opt;
  opt.memo_capacity = 2;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  auto run = [&](const char* q) {
    SatRequest r;
    r.query = q;
    r.dtd = handle;
    SatResponse resp = engine.Run(r);
    EXPECT_TRUE(resp.status.ok());
    return resp.memo_hit;
  };
  EXPECT_FALSE(run("A"));  // miss, insert
  EXPECT_FALSE(run("B"));  // miss, insert
  EXPECT_FALSE(run("C"));  // miss, insert, evicts A
  EXPECT_FALSE(run("A"));  // miss again (evicted), evicts B
  EXPECT_TRUE(run("C"));   // still resident
}

TEST(SatEngineTest, DtdCacheEvictsLeastRecentlyUsed) {
  SatEngineOptions opt;
  opt.dtd_cache_capacity = 2;
  SatEngine engine(opt);
  const Dtd a = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  const Dtd b = ParseDtdOrDie("root r\nr -> B*\nB -> eps\n");
  const Dtd c = ParseDtdOrDie("root r\nr -> C*\nC -> eps\n");
  // Registers and drops the handle: only the cache keeps the artifacts.
  auto hit = [&](const Dtd& d) {
    const uint64_t before = engine.stats().dtd_cache_hits;
    engine.RegisterDtd(d);
    return engine.stats().dtd_cache_hits > before;
  };
  EXPECT_FALSE(hit(a));  // compile, insert
  EXPECT_FALSE(hit(b));  // compile, insert
  EXPECT_TRUE(hit(a));   // touch: b is now least recently used
  EXPECT_FALSE(hit(c));  // compile, evicts b
  EXPECT_TRUE(hit(a));
  EXPECT_FALSE(hit(b));  // recompile (evicted), evicts c
  EXPECT_TRUE(hit(a));
  EXPECT_EQ(engine.stats().dtd_cache_misses, 4u);
}

TEST(SatEngineTest, ParseErrorsAreReportedPerRequest) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest bad;
  bad.query = "A[[";
  bad.dtd = handle;
  SatRequest good;
  good.query = "A";
  good.dtd = handle;
  std::vector<SatResponse> out = engine.RunBatch({bad, good});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_TRUE(out[1].report.sat());
  EXPECT_EQ(engine.stats().parse_errors, 1u);
}

TEST(SatEngineTest, MissingDtdHandleIsAnError) {
  SatEngine engine;
  SatRequest r;
  r.query = "A";  // r.dtd left invalid
  EXPECT_FALSE(engine.Run(r).status.ok());
}

TEST(SatEngineTest, PerRequestWitnessOptionIsHonored) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest with;
  with.query = "A";
  with.dtd = handle;
  SatRequest without = with;
  without.options.compute_witness = false;
  SatResponse rw = engine.Run(with);
  SatResponse rn = engine.Run(without);
  ASSERT_TRUE(rw.status.ok());
  ASSERT_TRUE(rn.status.ok());
  EXPECT_TRUE(rw.report.sat());
  EXPECT_TRUE(rn.report.sat());
  EXPECT_TRUE(rw.report.decision.witness.has_value());
  EXPECT_FALSE(rn.report.decision.witness.has_value());
}

TEST(SatEngineTest, SubmitTicketsResolveOutOfOrder) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 2;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatTicket> tickets;
  for (int i = 0; i < 32; ++i) {
    SatRequest r;
    r.query = (i % 2 == 0) ? "A" : "B";
    r.dtd = handle;
    tickets.push_back(engine.Submit(std::move(r)));
  }
  // Ids are stable and strictly increasing with submission order.
  for (size_t i = 0; i + 1 < tickets.size(); ++i) {
    EXPECT_LT(tickets[i].id(), tickets[i + 1].id());
  }
  // Consume in reverse: tickets are independent handles, order of Get does
  // not matter, and repeated Get observes the same response.
  for (size_t i = tickets.size(); i-- > 0;) {
    SatResponse resp = tickets[i].Get();
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.report.sat(), i % 2 == 0) << i;
    SatResponse resp2 = tickets[i].Get();
    EXPECT_EQ(resp2.report.decision.verdict, resp.report.decision.verdict);
  }
}

TEST(SatEngineTest, RunBatchMatchesSubmitVerdicts) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 2;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatRequest> batch;
  for (const char* q :
       {"**/item[title]", "section/item", "**/swatch", "note/ref",
        "**/item[title && note]", "bogus"}) {
    SatRequest r;
    r.query = q;
    r.dtd = handle;
    batch.push_back(std::move(r));
  }
  std::vector<SatResponse> via_batch = engine.RunBatch(batch);
  std::vector<SatTicket> tickets;
  for (const SatRequest& r : batch) tickets.push_back(engine.Submit(r));
  ASSERT_EQ(via_batch.size(), tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    SatResponse via_submit = tickets[i].Get();
    EXPECT_EQ(via_batch[i].status.ok(), via_submit.status.ok()) << i;
    EXPECT_EQ(via_batch[i].report.decision.verdict,
              via_submit.report.decision.verdict)
        << batch[i].query;
    EXPECT_EQ(via_batch[i].report.algorithm, via_submit.report.algorithm)
        << batch[i].query;
  }
}

TEST(SatEngineTest, TryCancelRevokesQueuedWork) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;  // every heavy request does real work
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  // Head-of-line: heavy NP searches keep the single worker busy.
  std::vector<SatTicket> heavy;
  for (int i = 0; i < 40; ++i) {
    SatRequest r;
    r.query = "**/item[title && note]";
    r.dtd = handle;
    heavy.push_back(engine.Submit(std::move(r)));
  }
  std::vector<SatTicket> cheap;
  for (int i = 0; i < 40; ++i) {
    SatRequest r;
    r.query = "section/item";
    r.dtd = handle;
    cheap.push_back(engine.Submit(std::move(r)));
  }
  uint64_t cancelled = 0;
  for (const SatTicket& t : cheap) {
    if (engine.TryCancel(t)) {
      ++cancelled;
      // Second cancel of the same ticket never succeeds.
      EXPECT_FALSE(engine.TryCancel(t));
    }
  }
  // The worker is still inside the heavy head: queued tail must be
  // cancellable.
  EXPECT_GE(cancelled, 1u);
  for (const SatTicket& t : cheap) {
    SatResponse resp = t.Get();  // cancelled tickets resolve immediately
    ASSERT_TRUE(resp.status.ok());
    if (resp.report.algorithm == "cancelled") {
      EXPECT_EQ(resp.report.decision.verdict, SatVerdict::kUnknown);
    } else {
      EXPECT_TRUE(resp.report.sat());
    }
  }
  for (const SatTicket& t : heavy) ASSERT_TRUE(t.Get().status.ok());
  EXPECT_EQ(engine.stats().cancellations, cancelled);
  // Completed tickets cannot be cancelled; invalid tickets are a no-op.
  EXPECT_FALSE(engine.TryCancel(heavy[0]));
  EXPECT_FALSE(engine.TryCancel(SatTicket()));
}

TEST(SatEngineTest, DeadlineCancelsStillQueuedWork) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatRequest> batch;
  for (int i = 0; i < 80; ++i) {
    SatRequest heavy;
    heavy.query = "**/item[title && note]";
    heavy.dtd = handle;
    batch.push_back(std::move(heavy));
  }
  for (int i = 0; i < 30; ++i) {
    SatRequest cheap;
    cheap.query = "section/item";
    cheap.dtd = handle;
    cheap.deadline_ms = 1;
    batch.push_back(std::move(cheap));
  }
  std::vector<SatTicket> tickets;
  for (const SatRequest& r : batch) tickets.push_back(engine.Submit(r));
  // The reaper cancels the queued tail at its deadline: the expired tickets
  // resolve while the heavy head is still running (we can Get them before
  // ever waiting on a heavy ticket).
  bool saw_expired = false;
  for (size_t i = 80; i < tickets.size(); ++i) {
    SatResponse resp = tickets[i].Get();
    ASSERT_TRUE(resp.status.ok());
    if (resp.report.algorithm == "deadline") {
      saw_expired = true;
      EXPECT_EQ(resp.report.decision.verdict, SatVerdict::kUnknown);
    } else {
      EXPECT_TRUE(resp.report.sat());
    }
  }
  EXPECT_TRUE(saw_expired);
  EXPECT_GE(engine.stats().deadline_expirations, 1u);
  for (size_t i = 0; i < 80; ++i) {
    // Heavy requests had no deadline: all run to completion.
    ASSERT_TRUE(tickets[i].Get().status.ok());
  }
}

// The ticket record's claim arbitrates a worker starting a request against
// TryCancel: with four workers picking requests up while two cancellers
// sweep the same tickets in opposite orders, every ticket fulfils exactly
// once, the route is "cancelled" exactly for the tickets a TryCancel won,
// and the cancellations counter matches the wins.
TEST(SatEngineTest, TryCancelRacingPickupFulfilsEachTicketOnce) {
  constexpr size_t kTickets = 400;
  Dtd d = MakeHeavyDtd();
  std::vector<std::atomic<int>> fired(kTickets);
  std::vector<std::atomic<int>> wins(kTickets);
  std::vector<SatResponse> responses;
  SatEngineStats stats;
  {
    SatEngineOptions opt;
    opt.num_threads = 4;
    opt.memo_capacity = 0;
    SatEngine engine(opt);
    DtdHandle handle = engine.RegisterDtd(d);
    std::vector<SatTicket> tickets;
    for (size_t i = 0; i < kTickets; ++i) {
      SatRequest r;
      r.query = i % 8 == 0 ? "**/item[title && note]" : "section/item";
      r.dtd = handle;
      tickets.push_back(engine.Submit(std::move(r)));
      tickets.back().OnComplete([&fired, i](const SatResponse&) {
        fired[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    auto sweep = [&](bool forward) {
      for (size_t k = 0; k < kTickets; ++k) {
        const size_t i = forward ? k : kTickets - 1 - k;
        if (engine.TryCancel(tickets[i])) {
          wins[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::thread backward(sweep, false);
    sweep(true);
    backward.join();
    for (const SatTicket& t : tickets) responses.push_back(t.Get());
    stats = engine.stats();
  }  // the engine's pool is joined: every worker-side callback has run
  uint64_t cancelled = 0;
  for (size_t i = 0; i < kTickets; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "ticket " << i;
    ASSERT_LE(wins[i].load(), 1) << "ticket " << i;
    const bool won = wins[i].load() == 1;
    cancelled += won ? 1 : 0;
    ASSERT_TRUE(responses[i].status.ok());
    EXPECT_EQ(responses[i].report.algorithm == "cancelled", won)
        << "ticket " << i;
  }
  EXPECT_EQ(stats.cancellations, cancelled);
  EXPECT_EQ(stats.requests, kTickets);
}

// Requests with a 1 ms deadline queued behind a busy single worker: the
// reaper's revoke and the worker's pickup claim the same record, so every
// ticket fulfils exactly once and, at quiescence, each request is either a
// deadline expiry or an executed outcome (a memo hit or miss).
TEST(SatEngineTest, QueuedDeadlinesFulfilOnceAndBalanceTheCounters) {
  Dtd d = MakeHeavyDtd();
  std::vector<std::atomic<int>> fired(60);
  SatEngineStats stats;
  {
    SatEngineOptions opt;
    opt.num_threads = 1;
    SatEngine engine(opt);
    DtdHandle handle = engine.RegisterDtd(d);
    std::vector<SatTicket> tickets;
    // Distinct NP skeleton searches (no memo hits among them) keep the one
    // worker busy while the deadline tail waits behind them.
    std::string heavy = "**/item[title && note";
    for (size_t i = 0; i < fired.size(); ++i) {
      SatRequest r;
      r.dtd = handle;
      if (i < 30) {
        heavy += " && note";
        r.query = heavy + "]";
      } else {
        r.query = "section/item";
        r.deadline_ms = 1;
      }
      tickets.push_back(engine.Submit(std::move(r)));
      tickets.back().OnComplete([&fired, i](const SatResponse&) {
        fired[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (const SatTicket& t : tickets) ASSERT_TRUE(t.Get().status.ok());
    stats = engine.stats();
  }  // the engine's pool is joined: every worker-side callback has run
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "ticket " << i;
  }
  EXPECT_EQ(stats.requests, fired.size());
  EXPECT_GE(stats.deadline_expirations, 1u);
  EXPECT_EQ(stats.deadline_expirations + stats.memo_hits + stats.memo_misses,
            stats.requests);
}

TEST(SatEngineTest, HandleReleaseUnderLoadKeepsArtifactsAlive) {
  // Requests pin the artifacts through their own handle copy: releasing the
  // caller's handle (and evicting the DTD from the cache) while requests are
  // in flight must not free the CompiledDtd under them. The ASan CI job
  // turns any violation into a hard failure.
  SatEngineOptions opt;
  opt.num_threads = 4;
  opt.dtd_cache_capacity = 1;  // each round evicts the previous round's DTD
  SatEngine engine(opt);
  std::vector<std::string> labels = {"A", "B", "C"};
  for (int round = 0; round < 6; ++round) {
    std::string label = labels[static_cast<size_t>(round) % labels.size()];
    std::string text = "root r\nr -> " + label + "*, X" +
                       std::to_string(round) + "\n" + label + " -> eps\nX" +
                       std::to_string(round) + " -> eps\n";
    Result<DtdHandle> handle = engine.RegisterDtdText(text);
    ASSERT_TRUE(handle.ok()) << handle.error();
    std::vector<SatTicket> tickets;
    for (int i = 0; i < 24; ++i) {
      SatRequest r;
      r.query = (i % 3 == 0) ? label : "**/" + label;
      r.dtd = handle.value();
      tickets.push_back(engine.Submit(std::move(r)));
    }
    // Drop the caller's handle while the round is still in flight.
    handle = Result<DtdHandle>::Error("released");
    for (const SatTicket& t : tickets) {
      SatResponse resp = t.Get();
      ASSERT_TRUE(resp.status.ok());
      EXPECT_TRUE(resp.report.sat());
    }
  }
  EXPECT_EQ(engine.live_dtd_handles(), 0u);
}

// Memory is bounded by configuration: with a memo large enough to keep every
// verdict, live compiled artifacts still stay within dtd_cache_capacity plus
// the schemas open handles hold, because a memo entry pins only its schema's
// source Dtd. Counts artifacts; measures no bytes and no time.
TEST(SatEngineTest, LiveArtifactsBoundedByCacheAndHandles) {
  constexpr size_t kCacheCapacity = 8;
  constexpr int kSchemas = 200;
  const std::vector<std::string> queries = {
      "A",    "B",    "C",    "r",    "A/B",  "A/C",   "B/C",     "**/A",
      "**/B", "**/C", "A[B]", "B[C]", "A|B",  "*/C",   "**/B[C]", ".[A/C]"};
  SatEngineOptions opt;
  // One worker: the free of an artifact that registration i evicted is
  // queued ahead of schema i's batch, so it has run when RunBatch returns.
  opt.num_threads = 1;
  opt.dtd_cache_capacity = kCacheCapacity;
  // Room for twice the entries it will hold, so the memo never evicts.
  opt.memo_capacity = 2 * kSchemas * queries.size();
  SatEngine engine(opt);

  Rng rng(21);
  std::vector<Dtd> schemas;
  std::vector<std::weak_ptr<const CompiledDtd>> artifacts;
  std::vector<DtdHandle> held;  // every 25th handle stays open to the end
  for (int i = 0; i < kSchemas; ++i) {
    // A random small schema, made distinct by an unreachable type.
    Dtd d = RandomDtd(&rng, /*recursive=*/rng.Percent(30));
    d.SetProduction("X" + std::to_string(i), Regex::Epsilon());
    DtdHandle handle = engine.RegisterDtd(d);
    artifacts.push_back(handle.compiled());
    std::vector<SatRequest> batch;
    for (const std::string& q : queries) {
      SatRequest r;
      r.query = q;
      r.dtd = handle;
      batch.push_back(std::move(r));
    }
    for (const SatResponse& resp : engine.RunBatch(batch)) {
      ASSERT_TRUE(resp.status.ok()) << resp.status.message();
    }
    if (i % 25 == 0) held.push_back(handle);
    schemas.push_back(std::move(d));
    EXPECT_LE(engine.live_compiled_artifacts(),
              kCacheCapacity + engine.live_dtd_handles())
        << "after schema " << i;
  }
  EXPECT_EQ(engine.live_dtd_handles(), held.size());
  EXPECT_EQ(engine.stats().dtd_cache_misses, static_cast<uint64_t>(kSchemas));
  EXPECT_EQ(engine.stats().memo_misses, kSchemas * queries.size());

  held.clear();
  size_t alive = 0;
  for (const auto& w : artifacts) alive += w.expired() ? 0 : 1;
  EXPECT_LE(alive, kCacheCapacity) << "only cached artifacts may survive";
  EXPECT_EQ(engine.live_compiled_artifacts(), alive);

  // The memo still serves every schema, long after its artifacts died.
  DtdHandle first = engine.RegisterDtd(schemas.front());
  for (const std::string& q : queries) {
    SatRequest r;
    r.query = q;
    r.dtd = first;
    SatResponse resp = engine.Run(r);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_TRUE(resp.memo_hit) << q;
  }
}

// A memo entry outlives its schema's artifacts: after an evict and
// recompile, the structural check serves the entry and re-pins it to the new
// artifact's source, so later hits take the pointer fast path.
TEST(SatEngineTest, MemoServesAfterItsArtifactIsEvictedAndRecompiled) {
  SatEngineOptions opt;
  opt.num_threads = 1;  // a Run drains the worker's queued frees first
  opt.dtd_cache_capacity = 1;
  opt.rewrite_cache_capacity = 0;  // only the memo may pin A's source
  SatEngine engine(opt);
  Dtd a = ParseDtdOrDie("root r\nr -> A*, B\nA -> C\nB -> eps\nC -> eps\n");
  Dtd b = ParseDtdOrDie("root r\nr -> D*\nD -> eps\n");
  SatRequest r;
  r.query = "**/A[C]";
  r.dtd = engine.RegisterDtd(a);
  std::weak_ptr<const CompiledDtd> first_artifact = r.dtd.compiled();
  std::weak_ptr<const Dtd> first_source = r.dtd.compiled()->shared_dtd;
  SatResponse cold = engine.Run(r);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.memo_hit);

  r.dtd = DtdHandle();
  SatRequest rb;
  rb.query = "D";
  rb.dtd = engine.RegisterDtd(b);  // evicts A
  ASSERT_TRUE(engine.Run(rb).status.ok());
  EXPECT_TRUE(first_artifact.expired()) << "the memo pinned A's artifacts";
  EXPECT_FALSE(first_source.expired()) << "the memo pins A's source";
  EXPECT_EQ(engine.live_compiled_artifacts(), 1u);

  r.dtd = engine.RegisterDtd(a);  // a new artifact for the same schema
  EXPECT_EQ(engine.stats().dtd_cache_misses, 3u);
  ASSERT_NE(r.dtd.compiled()->shared_dtd, first_source.lock());
  SatResponse warm = engine.Run(r);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.memo_hit);
  EXPECT_EQ(warm.report.decision.verdict, cold.report.decision.verdict);
  EXPECT_EQ(warm.report.algorithm, cold.report.algorithm);
  // The hit re-pinned the entry to the new source: nothing holds the old one.
  EXPECT_TRUE(first_source.expired());

  SatResponse again = engine.Run(r);
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.memo_hit);
  EXPECT_EQ(again.report.decision.verdict, cold.report.decision.verdict);
  EXPECT_EQ(engine.stats().memo_hits, 2u);
}

class EngineFacadeParity : public ::testing::TestWithParam<int> {};

// The acceptance-criteria cross-check: randomized queries over randomized
// DTDs, engine verdicts (and algorithms) equal the facade's on every
// request, with the batch running concurrently against shared caches. Pass 0
// is cold, pass 1 is warm (memo hits), pass 2 goes through bare Submit — the
// memoized path must preserve parity bit-for-bit.
TEST_P(EngineFacadeParity, RandomizedAgreementUnderConcurrency) {
  Rng rng(GetParam() * 157 + 29);
  std::vector<std::string> labels = {"A", "B", "C", "r"};
  RandomPathOptions opt;
  opt.allow_upward = true;
  opt.allow_negation = true;
  opt.allow_sibling = true;
  // No data values: negation+data instances can stall the bounded oracle
  // (see compiled_dtd_test.cc); data traffic is covered by the skeleton
  // sweeps and the dedicated option/deadline tests here.

  // A couple of DTDs per batch so both caches see interleaved traffic.
  std::vector<Dtd> dtds;
  for (int i = 0; i < 3; ++i) {
    dtds.push_back(RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true));
  }

  // Same small bounded-model caps on both sides: pathological negation
  // instances stay fast and parity remains exact (possibly kUnknown-to-
  // kUnknown).
  SatOptions caps;
  caps.bounded_caps.max_depth = 6;
  caps.bounded_caps.max_nodes = 60;
  caps.bounded_caps.max_star = 3;
  caps.bounded_caps.max_trees = 20000;
  caps.skeleton_caps.max_steps = 50000;

  SatEngineOptions eopt;
  eopt.num_threads = 4;
  SatEngine engine(eopt);
  std::vector<DtdHandle> handles;
  for (const Dtd& d : dtds) handles.push_back(engine.RegisterDtd(d));

  std::vector<SatRequest> batch;
  std::vector<SatReport> expected;
  for (int round = 0; round < 24; ++round) {
    size_t pick = rng.Below(dtds.size());
    std::unique_ptr<PathExpr> p = RandomPath(&rng, labels, 3, opt);
    expected.push_back(DecideSatisfiability(*p, dtds[pick], caps));
    SatRequest r;
    r.query = p->ToString();
    r.dtd = handles[pick];
    r.options = caps;
    batch.push_back(std::move(r));
  }

  // Three passes: cold caches, warm (memo hits), then bare Submit — parity
  // must hold in all of them.
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<SatResponse> out;
    if (pass < 2) {
      out = engine.RunBatch(batch);
    } else {
      std::vector<SatTicket> tickets;
      for (const SatRequest& r : batch) tickets.push_back(engine.Submit(r));
      for (const SatTicket& t : tickets) out.push_back(t.Get());
    }
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(out[i].status.ok()) << batch[i].query;
      EXPECT_EQ(out[i].report.decision.verdict, expected[i].decision.verdict)
          << "pass " << pass << ": " << batch[i].query;
      EXPECT_EQ(out[i].report.algorithm, expected[i].algorithm)
          << "pass " << pass << ": " << batch[i].query;
      if (pass > 0) {
        EXPECT_TRUE(out[i].memo_hit) << batch[i].query;
      }
    }
  }
  EXPECT_GE(engine.stats().memo_hits, 2u * batch.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFacadeParity, ::testing::Range(0, 12));

// Witness-inclusive comparison key for parity checks: verdict + algorithm +
// the exact witness printing (or its absence).
std::string ResponseKey(const SatResponse& r) {
  if (!r.status.ok()) return "error:" + r.status.message();
  std::string key = r.report.algorithm + "/";
  switch (r.report.decision.verdict) {
    case SatVerdict::kSat: key += "sat"; break;
    case SatVerdict::kUnsat: key += "unsat"; break;
    case SatVerdict::kUnknown: key += "unknown"; break;
  }
  if (r.report.decision.witness.has_value()) {
    key += "/" + r.report.decision.witness->ToString();
  }
  return key;
}

// Satellite property test: across randomized (DTD, query) seeds, a
// cache-warm engine (memo + rewrite cache serving everything) returns
// bit-identical verdicts AND witnesses to a cold engine with every cache
// layer that could alter results disabled (--no-memo semantics plus no
// rewrite cache). The rewrite cache sits on the miss path of the PTIME
// filter pipelines, so the workload is filter-heavy positive traffic.
TEST(RewriteCacheParity, WarmEngineMatchesColdNoMemoAcrossSeeds) {
  uint64_t rewrite_probes = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 7919 + 13);
    Dtd dtd = RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true);
    RandomPathOptions popt;  // positive fragment: filters, unions, recursion
    std::vector<std::string> labels = {"A", "B", "C", "r"};

    SatEngineOptions warm_opt;
    warm_opt.num_threads = 2;
    SatEngine warm(warm_opt);
    SatEngineOptions cold_opt;
    cold_opt.num_threads = 2;
    cold_opt.memo_capacity = 0;
    cold_opt.rewrite_cache_capacity = 0;
    SatEngine cold(cold_opt);
    DtdHandle warm_handle = warm.RegisterDtd(dtd);
    DtdHandle cold_handle = cold.RegisterDtd(dtd);

    std::vector<SatRequest> warm_batch;
    std::vector<SatRequest> cold_batch;
    for (int i = 0; i < 6; ++i) {
      std::unique_ptr<PathExpr> p = RandomPath(&rng, labels, 3, popt);
      // Force a filter wrapper on half the queries so the Thm 6.8(1)/4.4
      // rewrite pipelines are exercised even when the random draw was plain.
      std::string text = i % 2 == 0
                             ? p->ToString()
                             : "(" + p->ToString() + ")[" +
                                   labels[rng.Below(labels.size())] + "]";
      SatRequest r;
      r.query = text;
      warm_batch.push_back(r);
      warm_batch.back().dtd = warm_handle;
      cold_batch.push_back(r);
      cold_batch.back().dtd = cold_handle;
    }

    // Prime the warm engine, then compare its fully warm round (memo +
    // rewrite hits) against the cold engine's from-scratch decisions.
    warm.RunBatch(warm_batch);
    std::vector<SatResponse> warm_out = warm.RunBatch(warm_batch);
    std::vector<SatResponse> cold_out = cold.RunBatch(cold_batch);
    ASSERT_EQ(warm_out.size(), cold_out.size());
    for (size_t i = 0; i < warm_out.size(); ++i) {
      EXPECT_EQ(ResponseKey(warm_out[i]), ResponseKey(cold_out[i]))
          << "seed " << seed << ": " << warm_batch[i].query;
      if (warm_out[i].status.ok()) {
        EXPECT_TRUE(warm_out[i].memo_hit) << warm_batch[i].query;
      }
    }
    SatEngineStats stats = warm.stats();
    rewrite_probes += stats.rewrite_cache_hits + stats.rewrite_cache_misses;
    EXPECT_EQ(cold.stats().rewrite_cache_hits, 0u);
    EXPECT_EQ(cold.stats().rewrite_cache_misses, 0u);
  }
  // The workload must actually have exercised the rewrite cache.
  EXPECT_GT(rewrite_probes, 0u);
}

// Cache stress, in-suite edition (the heavyweight battery with exact stats
// accounting lives in tests/cache_stress_test.cc under the `stress` CTest
// label): 8 caller threads hammer one engine's memo and the shared rewrite
// cache; every response must carry the reference verdict.
TEST(SatEngineTest, EightThreadsHammerTheShardedMemo) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  const std::vector<std::string> queries = {"A", "B",      "A/B",
                                            "**/B", ".[A && B]", "C"};
  SatEngineOptions opt;
  opt.num_threads = 4;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<bool> expected;
  for (const std::string& q : queries) {
    expected.push_back(DecideSatisfiability(*Path(q), d).sat());
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        size_t pick = static_cast<size_t>(t + i) % queries.size();
        SatRequest r;
        r.query = queries[pick];
        r.dtd = handle;
        SatResponse resp = engine.Run(r);
        if (!resp.status.ok() || resp.report.sat() != expected[pick]) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
  SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 8u * 60u);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses, 8u * 60u);
  EXPECT_GE(stats.memo_hits, 8u * 60u - queries.size() * 8u);
}

// --- Completion callbacks ------------------------------------------------

// Parks the one worker of a `num_threads = 1` engine in a completion
// callback until `open` is ready, so requests submitted afterwards stay
// queued. A callback that runs inline (its ticket finished before
// registration) runs on the calling thread and must not wait; the loop then
// parks the worker on another request. The caller must make `open` ready
// before the engine is destroyed, or the destructor waits on the worker.
void ParkLoneWorker(SatEngine* engine, const DtdHandle& handle,
                    const std::shared_future<void>& open) {
  const std::thread::id caller = std::this_thread::get_id();
  bool ran_inline = true;
  while (ran_inline) {
    ran_inline = false;
    SatRequest blocker;
    blocker.query = "section/item";
    blocker.dtd = handle;
    engine->Submit(std::move(blocker))
        .OnComplete([open, caller, &ran_inline](const SatResponse&) {
          if (std::this_thread::get_id() == caller) {
            ran_inline = true;
            return;
          }
          open.wait();
        });
  }
}

TEST(SatTicketCallbackTest, OnCompleteFiresWithTheResponse) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest r;
  r.query = "A";
  r.dtd = handle;
  SatTicket ticket = engine.Submit(r);
  std::promise<SatResponse> seen;
  ticket.OnComplete(
      [&seen](const SatResponse& resp) { seen.set_value(resp); });
  SatResponse via_cb = seen.get_future().get();
  ASSERT_TRUE(via_cb.status.ok());
  EXPECT_TRUE(via_cb.report.sat());
  EXPECT_EQ(via_cb.report.algorithm, ticket.Get().report.algorithm);
}

TEST(SatTicketCallbackTest, RegistrationAfterCompletionRunsInline) {
  Dtd d = ParseDtdOrDie("root r\nr -> A*\nA -> eps\n");
  SatEngine engine;
  DtdHandle handle = engine.RegisterDtd(d);
  SatRequest r;
  r.query = "A";
  r.dtd = handle;
  SatTicket ticket = engine.Submit(r);
  ticket.Get();  // complete first
  bool fired = false;
  ticket.OnComplete([&fired](const SatResponse& resp) {
    fired = resp.status.ok() && resp.report.sat();
  });
  EXPECT_TRUE(fired);  // ran inline on this thread
  // Multiple registrations all fire.
  int count = 0;
  ticket.OnComplete([&count](const SatResponse&) { ++count; });
  ticket.OnComplete([&count](const SatResponse&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(SatTicketCallbackTest, CallbacksFireOnCancellationPathsToo) {
  // Head-of-line heavy traffic on one worker; the queued tail is cancelled
  // and its callbacks must still fire (with algorithm "cancelled"). This is
  // what lets a server promise exactly one result line per submission.
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  for (int i = 0; i < 40; ++i) {
    SatRequest heavy;
    heavy.query = "**/item[title && note]";
    heavy.dtd = handle;
    engine.Submit(std::move(heavy));
  }
  SatRequest cheap;
  cheap.query = "section/item";
  cheap.dtd = handle;
  SatTicket tail = engine.Submit(std::move(cheap));
  std::promise<std::string> algorithm;
  tail.OnComplete([&algorithm](const SatResponse& resp) {
    algorithm.set_value(resp.report.algorithm);
  });
  ASSERT_TRUE(engine.TryCancel(tail));
  // TryCancel fulfilled the ticket synchronously: the callback already ran.
  std::future<std::string> f = algorithm.get_future();
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get(), "cancelled");
}

TEST(SatTicketCallbackTest, PendingCallbacksFireInRegistrationOrder) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  // Park the lone worker so the probe stays queued while its callbacks
  // register.
  std::promise<void> gate;
  const std::thread::id test_thread = std::this_thread::get_id();
  ParkLoneWorker(&engine, handle, gate.get_future().share());
  SatRequest probe;
  probe.query = "section/item";
  probe.dtd = handle;
  SatTicket ticket = engine.Submit(std::move(probe));
  // EXPECT, not ASSERT: returning before the gate opens would hang the
  // engine's destructor on the parked worker.
  EXPECT_FALSE(ticket.Ready());

  // All callbacks run on the one fulfilling thread, so the log needs no
  // lock; `done` publishes it to this thread.
  std::vector<std::string> log;
  std::vector<std::thread::id> threads;
  std::promise<void> done;
  auto record = [&log, &threads](const char* what) {
    log.push_back(what);
    threads.push_back(std::this_thread::get_id());
  };
  ticket.OnComplete([&record](const SatResponse&) { record("first"); });
  ticket.OnComplete([&record, ticket](const SatResponse&) {
    record("second");
    // Re-entrant registration on the ticket being fulfilled: it is
    // already complete, so the inner callback runs inline, right here.
    ticket.OnComplete([&record](const SatResponse&) { record("inner"); });
    record("second-end");
  });
  ticket.OnComplete([&record, &done](const SatResponse&) {
    record("third");
    done.set_value();
  });
  gate.set_value();
  std::future<void> finished = done.get_future();
  ASSERT_EQ(finished.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "inner",
                                           "second-end", "third"}));
  ASSERT_EQ(threads.size(), log.size());
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, threads[0]);
    EXPECT_NE(id, test_thread);
  }
  EXPECT_TRUE(ticket.Get().status.ok());
}

TEST(SatTicketCallbackTest, WaitForTimesOutWhileQueuedThenSeesTheResponse) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::promise<void> gate;
  ParkLoneWorker(&engine, handle, gate.get_future().share());
  SatRequest probe;
  probe.query = "section/item";
  probe.dtd = handle;
  SatTicket ticket = engine.Submit(std::move(probe));
  // Queued behind the parked worker: a bounded wait elapses unfulfilled.
  // EXPECT, not ASSERT: returning before the gate opens would hang the
  // engine's destructor on the parked worker.
  EXPECT_FALSE(ticket.WaitFor(0));
  EXPECT_FALSE(ticket.WaitFor(20));
  EXPECT_FALSE(ticket.Ready());
  gate.set_value();
  ASSERT_TRUE(ticket.WaitFor(30000));
  EXPECT_TRUE(ticket.Ready());
  EXPECT_TRUE(ticket.WaitFor(0)) << "a done ticket returns at once";
  ASSERT_TRUE(ticket.Get().status.ok());
  EXPECT_TRUE(ticket.Get().report.sat());
}

TEST(SatEngineTest, CancelledWhileQueuedNeverExecutes) {
  // With the lone worker parked, the probe is queued for certain: TryCancel
  // wins, fulfils it on this thread, and the worker later drops the revoked
  // record instead of running it. Counters: every request but the probe
  // executed (a memo hit or miss); the probe is the one cancellation.
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::promise<void> gate;
  ParkLoneWorker(&engine, handle, gate.get_future().share());
  SatRequest probe;
  probe.query = "section/item";
  probe.dtd = handle;
  SatTicket ticket = engine.Submit(std::move(probe));
  std::atomic<int> fired{0};
  ticket.OnComplete([&fired](const SatResponse&) { fired.fetch_add(1); });
  EXPECT_TRUE(engine.TryCancel(ticket));
  EXPECT_FALSE(engine.TryCancel(ticket)) << "only the first cancel wins";
  EXPECT_TRUE(ticket.Ready());
  EXPECT_EQ(fired.load(), 1) << "TryCancel ran the callback synchronously";
  EXPECT_EQ(ticket.Get().report.algorithm, "cancelled");
  EXPECT_EQ(ticket.Get().report.decision.verdict, SatVerdict::kUnknown);
  gate.set_value();
  // A request behind the revoked one: once it is done, the worker has
  // passed the probe's queue slot.
  SatRequest after;
  after.query = "section/item";
  after.dtd = handle;
  ASSERT_TRUE(engine.Submit(std::move(after)).Get().status.ok());
  EXPECT_EQ(fired.load(), 1);
  const SatEngineStats stats = engine.stats();
  EXPECT_EQ(stats.cancellations, 1u);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses + stats.cancellations,
            stats.requests);
}

// --- Request traces and the observability surfaces --------------------------

TEST(SatEngineTest, TraceSpansCoverThePhasesThatRan) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 1;
  SatEngine engine(opt);
  SatRequest r;
  r.query = "**/B";
  r.dtd = engine.RegisterDtd(d);

  SatResponse miss = engine.Run(r);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.memo_hit);
  // Cold request: the query was parsed and a decider ran; DTD compilation
  // happened at RegisterDtd time, never on the request path.
  EXPECT_GT(miss.trace.parse_ns, 0u);
  EXPECT_GT(miss.trace.decide_ns, 0u);
  EXPECT_GE(miss.trace.total_ns, miss.trace.decide_ns);
  EXPECT_EQ(miss.trace.route, miss.report.algorithm);

  SatResponse hit = engine.Run(r);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.memo_hit);
  // Memo hit: no phase beyond the lookup ran, so every phase span is zero
  // and the route is the synthetic memo cell.
  EXPECT_EQ(hit.trace.parse_ns, 0u);
  EXPECT_EQ(hit.trace.rewrite_ns, 0u);
  EXPECT_EQ(hit.trace.decide_ns, 0u);
  EXPECT_GT(hit.trace.total_ns, 0u);
  EXPECT_EQ(hit.trace.route, "memo-hit");
}

TEST(SatEngineTest, RouteCountersMatchTheDispatchMatrix) {
  // The same fragment x DTD-class cells dispatch_matrix_test pins, driven
  // through the engine: every fulfilment must land on the counter of its
  // dispatch cell, and the counts must add up exactly.
  Dtd general = ParseDtdOrDie("root r\nr -> A + B\nA -> eps\nB -> eps\n");
  Dtd djfree =
      ParseDtdOrDie("root r\nr -> A, B*\nA -> C\nB -> eps\nC -> eps\n");
  struct RouteCase {
    const char* query;
    const Dtd* dtd;
    const char* algorithm;  // substring of the expected dispatch cell
  };
  const RouteCase cases[] = {
      {"A", &general, "Thm 4.1"},
      {"A|B", &general, "Thm 4.1"},
      {"A/>", &djfree, "Thm 7.1"},
      {"A[C]", &djfree, "Thm 6.8(1)"},
      {"A/^/B", &djfree, "Thm 6.8(2)"},
      {".[A || B]", &general, "Thm 4.4"},
      {".[!(A)]", &general, "bounded-model"},
  };
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;  // every request must reach its decider
  SatEngine engine(opt);
  DtdHandle hg = engine.RegisterDtd(general);
  DtdHandle hd = engine.RegisterDtd(djfree);
  for (const RouteCase& c : cases) {
    SatRequest r;
    r.query = c.query;
    r.dtd = (c.dtd == &general) ? hg : hd;
    SatResponse resp = engine.Run(r);
    ASSERT_TRUE(resp.status.ok()) << c.query;
    EXPECT_EQ(resp.trace.route, resp.report.algorithm) << c.query;
    EXPECT_NE(resp.trace.route.find(c.algorithm), std::string::npos)
        << c.query << " routed to '" << resp.trace.route << "'";
  }
  std::map<std::string, uint64_t> routes = engine.routes().TakeSnapshot();
  uint64_t total = 0;
  auto count_for = [&](const std::string& needle) {
    uint64_t n = 0;
    for (const auto& [name, count] : routes) {
      if (name.find(needle) != std::string::npos) n += count;
    }
    return n;
  };
  for (const auto& [name, count] : routes) total += count;
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(count_for("Thm 4.1"), 2u);
  EXPECT_EQ(count_for("Thm 7.1"), 1u);
  EXPECT_EQ(count_for("Thm 6.8(1)"), 1u);
  EXPECT_EQ(count_for("Thm 6.8(2)"), 1u);
  EXPECT_EQ(count_for("Thm 4.4"), 1u);
  EXPECT_EQ(count_for("bounded-model"), 1u);
}

TEST(SatEngineTest, PhaseHistogramsCountExecutedRequests) {
  Dtd d = ParseDtdOrDie("root r\nr -> A, B*\nA -> eps\nB -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 1;
  SatEngine engine(opt);
  SatRequest r;
  r.query = "A/B";
  r.dtd = engine.RegisterDtd(d);
  for (int i = 0; i < 5; ++i) engine.Run(r);

  const obs::Histogram* total =
      engine.metrics().FindHistogram("request_total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->TakeSnapshot().count, 5u);
  const obs::Histogram* queue =
      engine.metrics().FindHistogram("request_queue_ns");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->TakeSnapshot().count, 5u);
  // parse/decide are distributions over the phases that RAN: one cold
  // request, four memo hits.
  const obs::Histogram* parse =
      engine.metrics().FindHistogram("request_parse_ns");
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(parse->TakeSnapshot().count, 1u);
  const obs::Histogram* decide =
      engine.metrics().FindHistogram("request_decide_ns");
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->TakeSnapshot().count, 1u);
}

TEST(SatEngineTest, SlowLogCapturesRequestsOverThreshold) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.slow_request_ns = 1;  // everything is slow
  SatEngine engine(opt);
  SatRequest r;
  r.query = "**/item[title && note]";
  r.dtd = engine.RegisterDtd(d);
  engine.Run(r);
  engine.Run(r);

  obs::SlowQueryLog::Drained drained = engine.DrainSlowLog();
  ASSERT_EQ(drained.records.size(), 2u);
  EXPECT_EQ(drained.records[0].query, r.query);
  EXPECT_EQ(drained.records[0].dtd_fingerprint, d.Fingerprint());
  EXPECT_FALSE(drained.records[0].trace.route.empty());
  EXPECT_GT(drained.records[0].trace.total_ns, 0u);
  EXPECT_LT(drained.records[0].seq, drained.records[1].seq);
  EXPECT_EQ(drained.records[1].trace.route, "memo-hit");
  // Drain is destructive; the slow_requests counter saw both.
  EXPECT_TRUE(engine.DrainSlowLog().records.empty());
  const obs::Counter* slow = engine.metrics().FindCounter("slow_requests");
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->value(), 2u);
}

TEST(SatEngineTest, SlowLogThresholdZeroDisablesIt) {
  Dtd d = ParseDtdOrDie("root r\nr -> A\nA -> eps\n");
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.slow_request_ns = 0;
  SatEngine engine(opt);
  SatRequest r;
  r.query = "A";
  r.dtd = engine.RegisterDtd(d);
  engine.Run(r);
  EXPECT_TRUE(engine.DrainSlowLog().records.empty());
}

TEST(SatEngineTest, StatsCarryUptimeAndMonotonicSnapshotSeq) {
  SatEngine engine;
  SatEngineStats a = engine.stats();
  SatEngineStats b = engine.stats();
  EXPECT_GT(a.snapshot_seq, 0u);
  EXPECT_GT(b.snapshot_seq, a.snapshot_seq);
  EXPECT_GE(b.uptime_ms, a.uptime_ms);
}

}  // namespace
}  // namespace xpathsat
