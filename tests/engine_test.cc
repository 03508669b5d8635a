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
  // Eviction order is LRU per shard; pin one shard so the global LRU order
  // this test asserts is exact regardless of the host's core count.
  opt.cache_shards = 1;
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

// Tentpole parity: the sharded cache core returns bit-identical responses
// to the single-shard (old single-mutex) layout on randomized concurrent
// workloads — cold rounds, warm rounds, and memo-hit rounds alike.
TEST(ShardedCacheParity, ShardedEngineMatchesSingleShardRandomized) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 271 + 17);
    std::vector<std::string> labels = {"A", "B", "C", "r"};
    RandomPathOptions popt;
    popt.allow_upward = true;
    std::vector<Dtd> dtds;
    for (int i = 0; i < 2; ++i) {
      dtds.push_back(RandomDtd(&rng, rng.Percent(30), /*allow_attrs=*/true));
    }

    SatEngineOptions sharded_opt;
    sharded_opt.num_threads = 4;
    sharded_opt.cache_shards = 8;
    SatEngine sharded(sharded_opt);
    SatEngineOptions single_opt;
    single_opt.num_threads = 4;
    single_opt.cache_shards = 1;
    SatEngine single(single_opt);
    EXPECT_GT(sharded.cache_shards(), 1u);
    EXPECT_EQ(single.cache_shards(), 1u);

    std::vector<DtdHandle> sharded_handles, single_handles;
    for (const Dtd& d : dtds) {
      sharded_handles.push_back(sharded.RegisterDtd(d));
      single_handles.push_back(single.RegisterDtd(d));
    }
    std::vector<SatRequest> sharded_batch, single_batch;
    for (int i = 0; i < 24; ++i) {
      size_t pick = rng.Below(dtds.size());
      std::unique_ptr<PathExpr> p = RandomPath(&rng, labels, 3, popt);
      SatRequest r;
      r.query = p->ToString();
      sharded_batch.push_back(r);
      sharded_batch.back().dtd = sharded_handles[pick];
      single_batch.push_back(r);
      single_batch.back().dtd = single_handles[pick];
    }
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<SatResponse> a = sharded.RunBatch(sharded_batch);
      std::vector<SatResponse> b = single.RunBatch(single_batch);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(ResponseKey(a[i]), ResponseKey(b[i]))
            << "seed " << seed << " pass " << pass << ": "
            << sharded_batch[i].query;
      }
    }
  }
}

// Shard stress, in-suite edition (the heavyweight battery with exact stats
// accounting lives in tests/cache_stress_test.cc under the `stress` CTest
// label): 8 caller threads hammer one engine's sharded memo and the shared
// rewrite cache; every response must carry the reference verdict.
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

// --- Completion callbacks and WaitAny ------------------------------------

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

TEST(SatTicketCallbackTest, WaitAnyReturnsACompletedIndex) {
  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 2;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  std::vector<SatTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    SatRequest r;
    r.query = (i % 2 == 0) ? "**/item[title && note]" : "section/item";
    r.dtd = handle;
    tickets.push_back(engine.Submit(std::move(r)));
  }
  int idx = SatTicket::WaitAny(tickets);
  ASSERT_GE(idx, 0);
  ASSERT_LT(idx, 8);
  EXPECT_TRUE(tickets[static_cast<size_t>(idx)].Ready());
  // Repeated calls keep returning ready work; drain everything this way.
  for (const SatTicket& t : tickets) {
    EXPECT_TRUE(SatTicket::WaitAny({t}) == 0);
    EXPECT_TRUE(t.Get().status.ok());
  }
}

TEST(SatTicketCallbackTest, WaitAnyTimesOutAndSkipsInvalid) {
  EXPECT_EQ(SatTicket::WaitAny({}), -1);
  EXPECT_EQ(SatTicket::WaitAny({SatTicket(), SatTicket()}), -1);

  Dtd d = MakeHeavyDtd();
  SatEngineOptions opt;
  opt.num_threads = 1;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  DtdHandle handle = engine.RegisterDtd(d);
  // Park the lone worker in a completion callback until `gate` opens, so the
  // probe stays queued however fast or loaded the machine is. A callback
  // that runs inline (its ticket finished before registration) runs on this
  // thread and must not wait; the loop then parks the worker on another.
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  const std::thread::id test_thread = std::this_thread::get_id();
  bool ran_inline = true;
  while (ran_inline) {
    ran_inline = false;
    SatRequest blocker;
    blocker.query = "section/item";
    blocker.dtd = handle;
    engine.Submit(std::move(blocker))
        .OnComplete([open, test_thread, &ran_inline](const SatResponse&) {
          if (std::this_thread::get_id() == test_thread) {
            ran_inline = true;
            return;
          }
          open.wait();
        });
  }
  std::vector<SatTicket> tickets;
  SatRequest probe;
  probe.query = "section/item";
  probe.dtd = handle;
  tickets.push_back(engine.Submit(std::move(probe)));
  EXPECT_EQ(SatTicket::WaitAny(tickets, 1), -1);
  gate.set_value();
  // An invalid entry alongside a real one is skipped, not dereferenced.
  tickets.insert(tickets.begin(), SatTicket());
  EXPECT_EQ(SatTicket::WaitAny(tickets, -1), 1);
  EXPECT_TRUE(tickets[1].Get().status.ok());
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
