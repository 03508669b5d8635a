#ifndef XPATHSAT_OBS_METRICS_H_
#define XPATHSAT_OBS_METRICS_H_

/// Lock-free metrics core: named atomic counters, gauges, and fixed-bucket
/// log2 latency histograms, plus a lock-free per-route counter table.
///
/// The hot-path mutators (Counter::Increment, Gauge::Add, Histogram::Record,
/// RouteCounters::Increment) never take a lock; registration of a new metric
/// name (MetricsRegistry::counter/gauge/histogram) is mutex-guarded but is a
/// cold, once-per-name operation whose result should be cached by the caller.
///
/// Snapshot contract (same shape as SatEngineStats, whose counters are
/// registry Counters): Counter::Increment is a release add and value() an
/// acquire load, so a reader that loads counter A before counter B, where
/// every A increment happens-after its B increment, never sees A outrun B.
/// Histogram::Record bumps the bucket/sum/max cells with relaxed ordering and
/// *then* the total count with release ordering; Snapshot() loads the count
/// with acquire ordering *first* and the cells afterwards. A mid-flight
/// snapshot may therefore observe bucket totals summing to >= the observed
/// count (never less), and at quiescence (all recording threads joined or
/// provably idle) every snapshot is exact.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {
namespace obs {

/// Monotonic event counter. Release increment, acquire read (see the
/// snapshot contract above); on x86 the increment is the same `lock xadd` a
/// relaxed one compiles to.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_release); }
  uint64_t value() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Signed instantaneous level (queue depth, live handles, ...).
class Gauge {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-layout latency histogram over power-of-two nanosecond buckets.
///
/// Bucket 0 holds exactly the value 0; bucket i (1 <= i <= 62) holds values
/// v with floor(log2(v)) == i-1, i.e. the half-open magnitude range
/// [2^(i-1), 2^i); bucket 63 additionally absorbs everything >= 2^62.
/// Percentiles are derived from bucket ranks and reported as the inclusive
/// upper bound of the bucket holding the rank, so a reported pXX is an upper
/// bound no more than 2x above the true pXX.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  struct Snapshot {
    uint64_t count = 0;               ///< acquire-loaded total (lower bound mid-flight)
    uint64_t sum_ns = 0;              ///< sum of recorded values
    uint64_t max_ns = 0;              ///< largest recorded value
    uint64_t buckets[kNumBuckets] = {0};

    /// Total across buckets; >= count mid-flight, == count at quiescence.
    uint64_t BucketTotal() const;
    /// Inclusive upper bound of the bucket containing rank ceil(q * total).
    /// Returns 0 for an empty snapshot. q is clamped to [0, 1].
    uint64_t PercentileNs(double q) const;
  };

  /// Records one value. Lock-free: three relaxed fetch_adds, a relaxed
  /// CAS-max (no loop iterations once max has stabilised), and one release
  /// fetch_add on the count.
  void Record(uint64_t value_ns);

  Snapshot TakeSnapshot() const;

  /// Bucket index a value lands in (0..kNumBuckets-1).
  static int BucketIndex(uint64_t value_ns);
  /// Largest value bucket `index` can hold (UINT64_MAX for the top bucket).
  static uint64_t BucketUpperBoundNs(int index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
  std::atomic<uint64_t> count_{0};
};

/// Lock-free counter table keyed by small, low-cardinality strings (the
/// Sec. 8 dispatch-route names). Insertion of a never-seen route CAS-installs
/// a heap node into an open-addressed slot array; subsequent increments are a
/// probe plus one relaxed fetch_add. The table never resizes: once full,
/// increments for unseen routes land on `overflow` instead of being lost.
class RouteCounters {
 public:
  static constexpr size_t kNumSlots = 256;

  RouteCounters() = default;
  ~RouteCounters();
  RouteCounters(const RouteCounters&) = delete;
  RouteCounters& operator=(const RouteCounters&) = delete;

  void Increment(const std::string& route, uint64_t n = 1);

  /// Route -> count, sorted by route name; `overflow` slot reported under
  /// the sentinel name "(overflow)" when nonzero.
  std::map<std::string, uint64_t> TakeSnapshot() const;

 private:
  struct Node {
    explicit Node(std::string n) : name(std::move(n)) {}
    const std::string name;
    std::atomic<uint64_t> count{0};
  };
  static size_t HashName(const std::string& name);

  std::atomic<Node*> slots_[kNumSlots] = {};
  std::atomic<uint64_t> overflow_{0};
};

/// Named get-or-create store of counters/gauges/histograms. Pointers returned
/// are stable for the registry's lifetime; callers cache them and mutate
/// lock-free. Lookup/creation and iteration take an internal mutex.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// nullptr when the name was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

/// Inputs for the two render formats. Registries are merged in order; on a
/// (unexpected) name collision the later registry wins.
struct MetricsRenderInput {
  std::vector<const MetricsRegistry*> registries;
  const RouteCounters* routes = nullptr;
  uint64_t uptime_ms = 0;
  uint64_t snapshot_seq = 0;
};

/// One-line JSON object: uptime/seq, counters, gauges, histogram summaries
/// (count/sum/max/p50/p90/p99), and per-route counts.
std::string RenderMetricsJson(const MetricsRenderInput& in);

/// Multi-line Prometheus-style text exposition (cumulative `_bucket{le=...}`
/// series, `_sum`/`_count`, route counters as a labelled counter family),
/// terminated by a final "# EOF" line.
std::string RenderMetricsProm(const MetricsRenderInput& in);

/// Escapes `\`, `"` and control characters for embedding in JSON strings
/// (also valid for Prometheus label values).
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace xpathsat

#endif  // XPATHSAT_OBS_METRICS_H_
