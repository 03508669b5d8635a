// LruCache: exact LRU eviction, InsertIfAbsent keep-incumbent behavior,
// LookupIf verification/mutation under the lock, the capacity bound,
// victims freed outside the lock, hit/miss accounting, and a multithreaded
// hammer (the ASan and TSan CI jobs run this suite).
#include "src/util/lru_cache.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace xpathsat {
namespace {

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.InsertIfAbsent("a", 1);
  cache.InsertIfAbsent("b", 2);
  EXPECT_EQ(cache.Lookup("a"), 1);   // touches a: b is now LRU
  cache.InsertIfAbsent("c", 3);      // evicts b
  EXPECT_EQ(cache.Lookup("b"), std::nullopt);
  EXPECT_EQ(cache.Lookup("a"), 1);
  EXPECT_EQ(cache.Lookup("c"), 3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, InsertIfAbsentKeepsTheIncumbent) {
  LruCache<std::string, int> cache(8);
  EXPECT_EQ(cache.InsertIfAbsent("k", 1), 1);
  // Second insert under the same key returns the resident value unchanged.
  EXPECT_EQ(cache.InsertIfAbsent("k", 2), 1);
  EXPECT_EQ(cache.Lookup("k"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, LookupIfRejectsAndMutatesUnderTheLock) {
  LruCache<std::string, int> cache(8);
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

TEST(LruCacheTest, CountsHitsAndMisses) {
  LruCache<std::string, int> cache(8);
  EXPECT_EQ(cache.Lookup("nope"), std::nullopt);
  cache.InsertIfAbsent("k", 1);
  cache.Lookup("k");
  cache.Lookup("k");
  cache.Lookup("gone");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LruCacheTest, SizeStaysBounded) {
  const size_t kCapacity = 64;
  LruCache<int, int> cache(kCapacity);
  for (int i = 0; i < 10000; ++i) cache.InsertIfAbsent(i, i);
  EXPECT_EQ(cache.size(), kCapacity);
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
  // Capacity 0 is clamped to one entry.
  LruCache<int, int> tiny(0);
  for (int i = 0; i < 100; ++i) tiny.InsertIfAbsent(i, i);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny.Lookup(99), 99);
}

TEST(LruCacheTest, SharedPtrValuesSurviveEviction) {
  // The engine caches shared_ptr values precisely so a reader's copy
  // outlives eviction; pin that property here.
  LruCache<int, std::shared_ptr<int>> cache(1);
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

// A victim's last reference dies after InsertIfAbsent releases the lock, so
// its destructor may probe the same cache; destroyed under the lock, it
// would deadlock here.
struct ProbingValue {
  LruCache<int, std::shared_ptr<ProbingValue>>* cache = nullptr;
  bool* probed = nullptr;
  ~ProbingValue() {
    if (cache == nullptr) return;
    cache->Lookup(0);
    *probed = true;
  }
};

TEST(LruCacheTest, VictimsAreDestroyedWithTheLockReleased) {
  LruCache<int, std::shared_ptr<ProbingValue>> cache(1);
  bool probed = false;
  auto victim = std::make_shared<ProbingValue>();
  victim->cache = &cache;
  victim->probed = &probed;
  cache.InsertIfAbsent(1, std::move(victim));
  cache.InsertIfAbsent(2, std::make_shared<ProbingValue>());  // evicts 1
  EXPECT_TRUE(probed);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, ConcurrentHammerKeepsValuesConsistent) {
  // N threads insert and look up overlapping key ranges; every observed
  // value must equal the one true value for its key (InsertIfAbsent never
  // clobbers), and counters must add up to the number of probes. The TSan
  // CI job runs this against the real mutexes.
  const int kThreads = 8;
  const int kKeys = 128;
  const int kRounds = 400;
  LruCache<int, int> cache(kKeys);
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
