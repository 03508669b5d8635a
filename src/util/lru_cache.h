// LruCache<K, V>: a thread-safe LRU cache — one mutex, one recency list,
// one index.
//
// The engine's caches (compiled-DTD artifacts, canonical queries, the
// verdict memo, and the Prop 3.3 rewrite cache) are probed concurrently by
// every worker thread and every connection's completion path. A probe holds
// the lock for one hash lookup and one list splice; a key-hash-sharded
// layout measured within run-to-run spread of this one on the serving
// benchmark, so each cache keeps one lock and exact global LRU order.
//
// Semantics:
//   * At most `capacity` entries are resident; inserting past it evicts the
//     least-recently-used entries.
//   * Values are returned by copy; cache shared_ptr<const T> (or other
//     cheap handles) so readers never hold the lock while using a value.
//   * InsertIfAbsent keeps the incumbent on key collision — two threads
//     racing to fill the same key both end up using one winner, and an
//     existing entry is never clobbered (callers that must verify hits
//     beyond key equality, e.g. against fingerprint collisions, do so in
//     LookupIf's accept predicate and handle rejection themselves).
//   * Evicted values are destroyed after the lock is released (or handed to
//     the caller), so freeing a large victim never stalls other probes.
//   * hits()/misses() are atomic counters. Increments use release ordering
//     and the accessors acquire, so a reader that observes a counter value
//     also observes every cache mutation that preceded it.
//
// Lock discipline (Clang -Wthread-safety checked): the LRU list and index
// are GUARDED_BY the mutex and only touched inside a MutexLock scope. Caller
// `accept` predicates run under the lock but only ever see the resident
// value V& — never the cache structures — so they carry no capability
// requirements of their own.
//
// Not provided (by design, nothing needs them yet): erase, resize.
#ifndef XPATHSAT_UTIL_LRU_CACHE_H_
#define XPATHSAT_UTIL_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {

template <typename K, typename V>
class LruCache {
 public:
  /// `capacity` is the entry budget (>= 1; 0 is clamped to 1).
  /// `count_probes` = false skips the hit/miss counters entirely
  /// (hits()/misses() stay 0) — for callers that keep their own accounting
  /// and do not want a second contended counter cacheline on every probe.
  explicit LruCache(size_t capacity, bool count_probes = true)
      : capacity_(capacity < 1 ? 1 : capacity), count_probes_(count_probes) {}

  /// Returns a copy of the resident value (touching it to the LRU front),
  /// or nullopt. Counts one hit or one miss.
  std::optional<V> Lookup(const K& key) {
    return LookupIf(key, [](V&) { return true; });
  }

  /// Lookup with verification: `accept(V&)` runs under the lock on the
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
  /// for hot paths whose `accept` extracts what it needs under the lock
  /// (no copy of V out of the cache).
  template <typename Accept>
  bool LookupWith(const K& key, Accept&& accept) {
    bool hit = false;
    {
      util::MutexLock lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end() && accept(it->second->second)) {
        lru_.splice(lru_.begin(), lru_, it->second);
        hit = true;
      }
    }
    if (count_probes_) {
      (hit ? hits_ : misses_).fetch_add(1, std::memory_order_release);
    }
    return hit;
  }

  /// Inserts key -> value unless the key is already resident, and returns
  /// the resident value either way (touched to the LRU front). On insert the
  /// LRU tail past capacity is evicted. Victims are destroyed after the lock
  /// is released; with `evicted` non-null they are moved there instead, so
  /// the caller picks the thread that pays for their destruction. Does not
  /// count hit/miss — callers pair it with a Lookup/LookupIf that already
  /// did.
  V InsertIfAbsent(const K& key, V value, std::vector<V>* evicted = nullptr) {
    // Declared before the lock, so destroyed after it is released.
    std::vector<V> victims;
    if (evicted == nullptr) evicted = &victims;
    util::MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      evicted->push_back(std::move(lru_.back().second));
      lru_.pop_back();
    }
    return lru_.front().second;
  }

  /// Visits every resident entry as fn(const K&, const V&), most recently
  /// used first, under the lock. `fn` must be quick, must not block, and
  /// must not reenter this cache. Does not touch LRU order and counts no
  /// probes. The artifact store's save path walks the caches with this.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    util::MutexLock lock(mu_);
    for (const auto& kv : lru_) fn(kv.first, kv.second);
  }

  /// Entries currently resident (racy under traffic).
  size_t size() const {
    util::MutexLock lock(mu_);
    return lru_.size();
  }

  uint64_t hits() const { return hits_.load(std::memory_order_acquire); }
  uint64_t misses() const { return misses_.load(std::memory_order_acquire); }

 private:
  using List = std::list<std::pair<K, V>>;  // most recent first

  const size_t capacity_;
  const bool count_probes_;
  mutable util::Mutex mu_;
  List lru_ GUARDED_BY(mu_);
  std::unordered_map<K, typename List::iterator> index_ GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace xpathsat

#endif  // XPATHSAT_UTIL_LRU_CACHE_H_
