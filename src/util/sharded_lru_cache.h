// ShardedLruCache<K, V>: a thread-safe LRU cache split into independently
// locked shards, for hot shared caches that a single mutex would serialize.
//
// The engine's caches (compiled-DTD artifacts, canonical queries, the
// verdict memo, and the Prop 3.3 rewrite cache) are probed concurrently by
// every worker thread and, since the socket server, by every connection's
// completion path. One mutex around one LRU list makes every memo hit a
// serialization point; sharding by key hash gives S independent critical
// sections, so disjoint keys proceed in parallel and the warm path scales
// with cores instead of flatlining on the lock.
//
// Semantics:
//   * Aggregate `capacity` is split evenly across shards (each shard holds
//     at most floor(capacity / shards) >= 1 entries, so the cache as a
//     whole NEVER exceeds `capacity`; up to shards-1 slots go unused when
//     capacity is not divisible). Eviction is LRU *per shard*: with more
//     than one shard the globally least-recently-used entry is not
//     necessarily the victim. Construct with num_shards = 1 to reproduce
//     exact global-LRU behavior (the pre-sharding engine layout — the parity
//     baseline in tests and benches).
//   * Values are returned by copy; cache shared_ptr<const T> (or other
//     cheap handles) so readers never hold a shard lock while using a value.
//   * InsertIfAbsent keeps the incumbent on key collision — two threads
//     racing to fill the same key both end up using one winner, and an
//     existing entry is never clobbered (callers that must verify hits
//     beyond key equality, e.g. against fingerprint collisions, do so in
//     LookupIf's accept predicate and handle rejection themselves).
//   * hits()/misses() are aggregate atomic counters. Increments use release
//     ordering and the accessors acquire, so a reader that observes a
//     counter value also observes every cache mutation that preceded it
//     (the engine's stats-snapshot invariants build on this).
//
// Lock discipline (Clang -Wthread-safety checked): each shard's LRU list
// and index are GUARDED_BY that shard's mutex; the under-lock bodies live
// in REQUIRES-annotated helpers so the analysis proves every access path.
// Caller `accept` predicates run under the shard lock but only ever see the
// resident value V& — never the cache structures — so they carry no
// capability requirements of their own.
//
// Not provided (by design, nothing needs them yet): erase, resize. Snapshot
// iteration exists as ForEach (added for the persistent artifact store's
// save path): shard-at-a-time under each shard's lock, MRU-first within a
// shard, no cross-shard order.
#ifndef XPATHSAT_UTIL_SHARDED_LRU_CACHE_H_
#define XPATHSAT_UTIL_SHARDED_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/hashing.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {

/// Smallest power of two >= hardware concurrency, clamped to [1, 64]: the
/// default shard count when callers pass 0. Enough shards that threads
/// rarely collide, few enough that tiny caches are not spread into
/// one-entry slivers.
inline size_t DefaultCacheShards() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw < 1) hw = 1;
  size_t shards = 1;
  while (shards < hw && shards < 64) shards <<= 1;
  return shards;
}

template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  /// `capacity` is the aggregate entry budget (>= 1; 0 is clamped to 1).
  /// `num_shards` of 0 picks DefaultCacheShards(); any value is rounded up
  /// to a power of two and clamped to [1, capacity] so every shard can hold
  /// at least one entry. `count_probes` = false skips the hit/miss counters
  /// entirely (hits()/misses() stay 0) — for callers that keep their own
  /// accounting and do not want a second contended counter cacheline on
  /// every probe.
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 0,
                           bool count_probes = true)
      : count_probes_(count_probes) {
    if (capacity < 1) capacity = 1;
    size_t requested = num_shards == 0 ? DefaultCacheShards() : num_shards;
    size_t shards = 1;
    while (shards < requested && shards < 64) shards <<= 1;
    // Clamp AFTER the power-of-two round-up: shards must never outnumber
    // the capacity, or per-shard rounding would hold more entries than the
    // configured aggregate (e.g. capacity 5, 8 shards -> 8 resident).
    while (shards > capacity) shards >>= 1;
    mask_ = shards - 1;
    // Floor division (>= 1 because shards <= capacity): the aggregate
    // resident count never exceeds `capacity`, at the cost of up to
    // shards-1 unused slots when capacity is not divisible.
    per_shard_capacity_ = capacity / shards;
    shards_ = std::make_unique<Shard[]>(shards);
  }

  /// Returns a copy of the resident value (touching it to the shard's LRU
  /// front), or nullopt. Counts one hit or one miss.
  std::optional<V> Lookup(const K& key) {
    return LookupIf(key, [](V&) { return true; });
  }

  /// Lookup with verification: `accept(V&)` runs under the shard lock on the
  /// resident entry and may mutate it in place; returning false rejects the
  /// hit (the entry stays resident and untouched in LRU order) and the call
  /// counts as a miss. Use for hits that need checking beyond key equality
  /// (fingerprint-collision verification) or refreshing (memo pin updates).
  template <typename Accept>
  std::optional<V> LookupIf(const K& key, Accept&& accept) {
    std::optional<V> out;
    LookupWith(key, [&](V& value) {
      if (!accept(value)) return false;
      out = value;
      return true;
    });
    return out;
  }

  /// Like LookupIf, but returns only whether an accepted hit was found —
  /// for hot paths whose `accept` extracts what it needs under the shard
  /// lock (no copy of V out of the cache).
  template <typename Accept>
  bool LookupWith(const K& key, Accept&& accept) {
    Shard& shard = ShardFor(key);
    bool hit = false;
    {
      util::MutexLock lock(shard.mu);
      hit = LookupInShard(shard, key, accept);
    }
    if (count_probes_) {
      (hit ? hits_ : misses_).fetch_add(1, std::memory_order_release);
    }
    return hit;
  }

  /// Inserts key -> value unless the key is already resident, and returns
  /// the resident value either way (touched to the LRU front). On insert the
  /// shard evicts its own LRU tail past capacity; with `evicted` non-null
  /// the victims are moved there instead of being destroyed under the shard
  /// lock, so the caller picks the thread that pays for their destruction.
  /// Does not count hit/miss — callers pair it with a Lookup/LookupIf that
  /// already did.
  V InsertIfAbsent(const K& key, V value, std::vector<V>* evicted = nullptr) {
    Shard& shard = ShardFor(key);
    util::MutexLock lock(shard.mu);
    return InsertInShard(shard, key, std::move(value), evicted);
  }

  /// Visits every resident entry as fn(const K&, const V&), one shard at a
  /// time under that shard's lock (MRU-first within a shard; no global
  /// order). Entries inserted or evicted concurrently in shards not yet
  /// visited may or may not be seen — a consistent-per-shard snapshot, not
  /// a global one. `fn` runs under a shard lock: it must be quick, must not
  /// block, and must not reenter this cache. Does not touch LRU order and
  /// counts no probes. The artifact store's save path walks the caches with
  /// this.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t s = 0; s <= mask_; ++s) {
      Shard& shard = shards_[s];
      util::MutexLock lock(shard.mu);
      ForEachInShard(shard, fn);
    }
  }

  /// Entries currently resident, summed across shards (racy under traffic).
  size_t size() const {
    size_t total = 0;
    for (size_t s = 0; s <= mask_; ++s) {
      Shard& shard = shards_[s];
      util::MutexLock lock(shard.mu);
      total += shard.lru.size();
    }
    return total;
  }

  size_t num_shards() const { return mask_ + 1; }
  size_t per_shard_capacity() const { return per_shard_capacity_; }
  uint64_t hits() const { return hits_.load(std::memory_order_acquire); }
  uint64_t misses() const { return misses_.load(std::memory_order_acquire); }

 private:
  // alignas(64): shard locks on separate cache lines, so contention on one
  // shard does not false-share with its neighbors.
  struct alignas(64) Shard {
    mutable util::Mutex mu;
    std::list<std::pair<K, V>> lru GUARDED_BY(mu);  // most recent first
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator>
        index GUARDED_BY(mu);
  };

  /// The under-lock half of LookupWith: probe, verify via `accept`, touch
  /// to the LRU front. Returns whether an accepted hit was found.
  template <typename Accept>
  bool LookupInShard(Shard& shard, const K& key, Accept& accept)
      REQUIRES(shard.mu) {
    auto it = shard.index.find(key);
    if (it == shard.index.end() || !accept(it->second->second)) return false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return true;
  }

  /// The under-lock half of InsertIfAbsent: keep-incumbent insert plus the
  /// per-shard LRU eviction.
  V InsertInShard(Shard& shard, const K& key, V value,
                  std::vector<V>* evicted) REQUIRES(shard.mu) {
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index[key] = shard.lru.begin();
    while (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      if (evicted != nullptr) {
        evicted->push_back(std::move(shard.lru.back().second));
      }
      shard.lru.pop_back();
    }
    return shard.lru.front().second;
  }

  /// The under-lock half of ForEach.
  template <typename Fn>
  void ForEachInShard(Shard& shard, Fn& fn) const REQUIRES(shard.mu) {
    for (const auto& kv : shard.lru) fn(kv.first, kv.second);
  }

  Shard& ShardFor(const K& key) {
    // Mix the hash before masking: std::hash of integers is identity on the
    // major stdlibs, which would map sequential keys to sequential shards
    // but correlate with any structure in the key distribution.
    return shards_[HashMix(static_cast<uint64_t>(Hash{}(key))) & mask_];
  }

  size_t mask_ = 0;
  size_t per_shard_capacity_ = 1;
  bool count_probes_ = true;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace xpathsat

#endif  // XPATHSAT_UTIL_SHARDED_LRU_CACHE_H_
