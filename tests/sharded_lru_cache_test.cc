// ShardedLruCache: LRU semantics (exact with one shard, bounded with many),
// InsertIfAbsent keep-incumbent behavior, LookupIf verification/mutation
// under the shard lock, capacity bounds across shards, hit/miss accounting,
// and a multithreaded hammer (the ASan and TSan CI jobs run this suite).
#include "src/util/sharded_lru_cache.h"

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace xpathsat {
namespace {

TEST(ShardedLruCacheTest, SingleShardIsExactGlobalLru) {
  ShardedLruCache<std::string, int> cache(2, /*num_shards=*/1);
  ASSERT_EQ(cache.num_shards(), 1u);
  cache.InsertIfAbsent("a", 1);
  cache.InsertIfAbsent("b", 2);
  EXPECT_EQ(cache.Lookup("a"), 1);   // touches a: b is now LRU
  cache.InsertIfAbsent("c", 3);      // evicts b
  EXPECT_EQ(cache.Lookup("b"), std::nullopt);
  EXPECT_EQ(cache.Lookup("a"), 1);
  EXPECT_EQ(cache.Lookup("c"), 3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, InsertIfAbsentKeepsTheIncumbent) {
  ShardedLruCache<std::string, int> cache(8, 1);
  EXPECT_EQ(cache.InsertIfAbsent("k", 1), 1);
  // Second insert under the same key returns the resident value unchanged.
  EXPECT_EQ(cache.InsertIfAbsent("k", 2), 1);
  EXPECT_EQ(cache.Lookup("k"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedLruCacheTest, LookupIfRejectsAndMutatesUnderTheLock) {
  ShardedLruCache<std::string, int> cache(8, 1);
  cache.InsertIfAbsent("k", 10);
  // Rejected hit: counts as a miss, entry stays resident.
  EXPECT_EQ(cache.LookupIf("k", [](int& v) { return v > 100; }),
            std::nullopt);
  EXPECT_EQ(cache.misses(), 1u);
  // Accepted hit may mutate in place (the memo's refresh-the-pin pattern).
  EXPECT_EQ(cache.LookupIf("k",
                           [](int& v) {
                             v = 11;
                             return true;
                           }),
            11);
  EXPECT_EQ(cache.Lookup("k"), 11);
  EXPECT_EQ(cache.hits(), 2u);
  // LookupWith: same semantics, no copy out — the accept extracts in place.
  int seen = 0;
  EXPECT_TRUE(cache.LookupWith("k", [&](int& v) {
    seen = v;
    return true;
  }));
  EXPECT_EQ(seen, 11);
  EXPECT_FALSE(cache.LookupWith("absent", [](int&) { return true; }));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ShardedLruCacheTest, CountsHitsAndMisses) {
  ShardedLruCache<std::string, int> cache(8);
  EXPECT_EQ(cache.Lookup("nope"), std::nullopt);
  cache.InsertIfAbsent("k", 1);
  cache.Lookup("k");
  cache.Lookup("k");
  cache.Lookup("gone");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ShardedLruCacheTest, ShardCountRoundsUpAndClamps) {
  using IntCache = ShardedLruCache<int, int>;
  EXPECT_EQ(IntCache(1024, 3).num_shards(), 4u);
  EXPECT_EQ(IntCache(1024, 64).num_shards(), 64u);
  EXPECT_EQ(IntCache(1024, 1000).num_shards(), 64u);
  // Shards never outnumber the capacity (each shard holds >= 1 entry) —
  // including non-power-of-two capacities, where the power-of-two round-up
  // must round DOWN past the capacity, not up through it.
  EXPECT_EQ(IntCache(2, 16).num_shards(), 2u);
  EXPECT_EQ(IntCache(1, 16).num_shards(), 1u);
  EXPECT_EQ(IntCache(5, 5).num_shards(), 4u);
  EXPECT_EQ(IntCache(33, 64).num_shards(), 32u);
  // 0 = hardware default: a power of two in [1, 64].
  size_t auto_shards = IntCache(1 << 20, 0).num_shards();
  EXPECT_GE(auto_shards, 1u);
  EXPECT_LE(auto_shards, 64u);
  EXPECT_EQ(auto_shards & (auto_shards - 1), 0u);
}

TEST(ShardedLruCacheTest, AggregateSizeStaysBounded) {
  const size_t kCapacity = 64;
  ShardedLruCache<int, int> cache(kCapacity, 8);
  for (int i = 0; i < 10000; ++i) cache.InsertIfAbsent(i, i);
  EXPECT_LE(cache.size(), kCapacity);
  // Every resident entry survives with its own value intact.
  size_t resident = 0;
  for (int i = 0; i < 10000; ++i) {
    std::optional<int> v = cache.Lookup(i);
    if (v.has_value()) {
      EXPECT_EQ(*v, i);
      ++resident;
    }
  }
  EXPECT_EQ(resident, cache.size());
  // The aggregate bound holds for awkward (non-divisible, non-power-of-two)
  // capacities too: floor split, never over budget.
  ShardedLruCache<int, int> odd(5, 5);
  for (int i = 0; i < 100; ++i) odd.InsertIfAbsent(i, i);
  EXPECT_LE(odd.size(), 5u);
  EXPECT_GE(odd.size(), 4u);  // 4 shards x floor(5/4) = 4 usable slots
}

TEST(ShardedLruCacheTest, SharedPtrValuesSurviveEviction) {
  // The engine caches shared_ptr values precisely so a reader's copy
  // outlives eviction; pin that property here.
  ShardedLruCache<int, std::shared_ptr<int>> cache(1, 1);
  std::shared_ptr<int> held = cache.InsertIfAbsent(1, std::make_shared<int>(7));
  cache.InsertIfAbsent(2, std::make_shared<int>(8));  // evicts key 1
  EXPECT_EQ(cache.Lookup(1), std::nullopt);
  EXPECT_EQ(*held, 7);
  // With an `evicted` vector the victim is handed to the caller, which
  // decides where it is destroyed.
  std::weak_ptr<int> second = *cache.Lookup(2);
  std::vector<std::shared_ptr<int>> evicted;
  cache.InsertIfAbsent(3, std::make_shared<int>(9), &evicted);  // evicts 2
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(*evicted[0], 8);
  evicted.clear();
  EXPECT_TRUE(second.expired());
}

TEST(ShardedLruCacheTest, ConcurrentHammerKeepsValuesConsistent) {
  // N threads insert and look up overlapping key ranges; every observed
  // value must equal the one true value for its key (InsertIfAbsent never
  // clobbers), and counters must add up to the number of probes. The TSan
  // CI job runs this against the real mutexes.
  const int kThreads = 8;
  const int kKeys = 128;
  const int kRounds = 400;
  ShardedLruCache<int, int> cache(kKeys, 8);
  std::atomic<uint64_t> probes{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        int key = (t * 31 + r * 17) % kKeys;
        std::optional<int> seen = cache.Lookup(key);
        probes.fetch_add(1);
        if (seen.has_value() && *seen != key * 3) bad.fetch_add(1);
        int resident = cache.InsertIfAbsent(key, key * 3);
        if (resident != key * 3) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(), probes.load());
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace xpathsat
