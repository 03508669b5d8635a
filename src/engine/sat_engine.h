// The session-oriented satisfiability engine: the serving layer above the
// Sec. 8 dispatch facade.
//
// DecideSatisfiability(p, dtd) re-parses, re-classifies, and re-compiles its
// inputs on every call. Realistic workloads (schema audits, query pruning, steady
// service traffic) decide thousands of queries against a handful of DTDs, so
// the engine models a *session*: schemas are registered once, requests are
// submitted asynchronously, and identical requests are answered from a memo
// instead of re-running the deciders.
//
//   * RegisterDtd(dtd) -> DtdHandle: compiles the DTD through an LRU cache
//     keyed by Dtd::Fingerprint() and returns a refcounted handle that PINS
//     the CompiledDtd artifacts (class, label graph, content-model NFAs,
//     normal form) while any copy is live — requests carry handles, so there
//     is no borrowed-pointer outlive-the-call contract anywhere in the API.
//   * Submit(request) -> SatTicket: enqueues the request on the pool and
//     returns immediately with a stable request id. The ticket is a handle
//     on ONE record per request (engine_internal::TicketState): a mutex, a
//     condvar, a phase (queued -> running -> done), the response slot and
//     the completion callbacks. A worker starting the request, a TryCancel
//     and the deadline reaper all claim it by the same queued -> running
//     step under that mutex, so exactly one of them fulfils it; TryCancel
//     revokes still-queued tickets, and the reaper cancels queued work the
//     moment its deadline expires (work that started in time runs to
//     completion). Run and RunBatch are thin wrappers over Submit — there
//     is exactly one execution path. Reactive callers use
//     SatTicket::OnComplete (a callback fired on every fulfilment path:
//     computed, cancelled, expired) instead of one blocking Get per ticket
//     — this is what the socket server (src/server/) pipelines
//     out-of-order responses with.
//   * Verdict memoization: an LRU cache keyed by (canonical query
//     printing, DTD fingerprint, SatOptions::Digest()) sitting above the
//     artifact caches; a repeat request returns the memoized SatReport
//     without touching the deciders at all. Entries pin the schema source
//     only, so the memo never keeps a compiled artifact alive.
//   * A query cache keyed by the canonical ToString() printing of the parsed
//     AST (with a raw-text alias so byte-identical requests skip the parser
//     entirely) holding the AST plus its fragment profile.
//
// All three caches are built on LruCache (src/util/lru_cache.h): one mutex,
// one recency list and one index per cache, exact LRU eviction. A probe
// holds its cache's lock for one hash lookup and one list splice, and no
// lock spans two caches; the thread whose insert evicts a value frees it,
// after the lock is released. Nothing caches the Prop 3.3 rewrite f(p): a
// repeated (query, DTD) pair is a memo hit and never reaches a decider.
//
// Verdict parity: the engine runs the same Sec. 8 dispatch over the same
// CompiledDtd that DecideSatisfiability(parse(query), dtd, options) builds,
// so a computed verdict is the facade's by construction; the memo and the
// caches only skip repeated work (the randomized cross-check in
// tests/engine_test.cc covers memo-hit rounds and the Submit path).
#ifndef XPATHSAT_ENGINE_SAT_ENGINE_H_
#define XPATHSAT_ENGINE_SAT_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sat/satisfiability.h"
#include "src/util/lru_cache.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "src/xml/dtd.h"
#include "src/xpath/ast.h"
#include "src/xpath/features.h"

namespace xpathsat {

class SatEngine;

namespace engine_internal {
struct DtdPin;
struct TicketState;
}  // namespace engine_internal

/// Engine-wide configuration.
struct SatEngineOptions {
  /// Worker threads; values < 1 use hardware_concurrency.
  int num_threads = 0;
  /// Compiled DTDs kept (LRU by fingerprint). Must be >= 1. Live DtdHandles
  /// pin their artifacts regardless of eviction; nothing else does, so live
  /// compiled artifacts (the live_compiled_artifacts gauge) stay within this
  /// capacity plus the schemas that handles and in-flight requests hold.
  size_t dtd_cache_capacity = 64;
  /// Memoized verdicts kept (LRU by (canonical query, DTD fingerprint,
  /// options digest)). 0 disables verdict memoization entirely. An entry
  /// pins its schema's source Dtd (a few KB), never the compiled artifacts.
  size_t memo_capacity = 8192;
  /// Requests whose end-to-end latency (queue wait included) reaches this
  /// threshold are copied — query text, fingerprint, route, span breakdown —
  /// into the slow-query log (drained via DrainSlowLog / the `slow` protocol
  /// verb). <= 0 disables the log; the fast path pays one comparison either
  /// way. Default 10ms.
  int64_t slow_request_ns = 10 * 1000 * 1000;
};

/// A refcounted registration of a compiled DTD with a SatEngine. Copyable
/// and cheap to pass by value; the compiled artifacts stay alive while any
/// copy (including copies inside in-flight requests) is live, and the
/// registration is retired when the last copy is released. A
/// default-constructed handle is invalid; requests carrying one fail with an
/// error response. Handles may outlive the engine that issued them (the
/// pinned artifacts are self-contained), but can only be *submitted* to a
/// live engine.
class DtdHandle {
 public:
  DtdHandle() = default;

  bool valid() const { return pin_ != nullptr; }
  /// Engine-unique registration id; 0 when invalid.
  uint64_t id() const;
  /// Fingerprint of the pinned DTD; 0 when invalid.
  uint64_t fingerprint() const;
  /// The pinned artifacts; nullptr when invalid.
  std::shared_ptr<const CompiledDtd> compiled() const;

 private:
  friend class SatEngine;
  explicit DtdHandle(std::shared_ptr<const engine_internal::DtdPin> pin)
      : pin_(std::move(pin)) {}
  std::shared_ptr<const engine_internal::DtdPin> pin_;
};

/// One request: a query in concrete syntax against a registered DTD.
struct SatRequest {
  std::string query;
  /// From SatEngine::RegisterDtd; the request owns a pin on the artifacts,
  /// so the caller may release its own handle while the request is in
  /// flight.
  DtdHandle dtd;
  /// Per-request resource caps, forwarded to the dispatch (and folded into
  /// the memoization key via SatOptions::Digest()).
  SatOptions options;
  /// Deadline in milliseconds from Submit (RunBatch submits all requests up
  /// front, so a batch shares one epoch). A request still queued when it
  /// expires is cancelled by the reaper and resolves to kUnknown immediately
  /// — it does not wait for a worker. A request that starts in time runs to
  /// completion. 0 disables the cap.
  int64_t deadline_ms = 0;
  /// Transport framing decode cost for this request (nanoseconds), stamped
  /// by the serving layer before Submit. Copied into the response's
  /// RequestTrace so wire overhead shows up next to the engine spans; 0 for
  /// in-process callers.
  uint64_t wire_decode_ns = 0;
};

/// One response.
struct SatResponse {
  /// Parse/validation outcome; `report` is meaningful only when ok().
  Status status;
  SatReport report;
  /// Fragment profile of the (cached) query, e.g. "X(down,ds,union)".
  std::string fragment;
  uint64_t dtd_fingerprint = 0;
  bool query_cache_hit = false;
  /// True when the verdict came from the memo (deciders never ran).
  bool memo_hit = false;
  /// Decision time in microseconds (excludes queue wait; ~0 on memo hits).
  double elapsed_us = 0.0;
  /// Per-phase span breakdown and the dispatch route that produced the
  /// verdict ("memo-hit" when the deciders never ran). Spans for phases the
  /// request skipped are 0.
  obs::RequestTrace trace;
};

/// Handle to a submitted request: a stable id plus a shared reference to the
/// request's ticket record, which holds the response once it is done.
/// Copyable; all copies observe the same response. A default-constructed
/// ticket is invalid (Get/Ready/WaitFor/OnComplete must not be called).
class SatTicket {
 public:
  SatTicket() = default;

  bool valid() const { return state_ != nullptr; }
  /// Engine-unique, monotonically increasing submission id; 0 when invalid.
  uint64_t id() const { return id_; }

  /// Blocks until the response is ready and returns it. Repeatable.
  SatResponse Get() const;
  /// True when the response is ready (Get will not block).
  bool Ready() const;
  /// Waits up to `timeout_ms`; returns whether the response became ready.
  bool WaitFor(int64_t timeout_ms) const;

  /// Registers `cb` to run exactly once with the response. If the ticket is
  /// already complete, `cb` runs inline on the calling thread; otherwise it
  /// runs on whichever thread fulfils the ticket — a pool worker, a
  /// TryCancel caller, or the deadline reaper. Callbacks fire on EVERY
  /// fulfilment path (computed responses, cancellations, deadline
  /// expirations), which is what lets a server pipeline responses out of
  /// order without one drain thread per ticket. Callbacks must be quick and
  /// must not block on other engine work (they run on the fulfilling
  /// thread). Multiple registrations all fire, in registration order.
  void OnComplete(std::function<void(const SatResponse&)> cb) const;

 private:
  friend class SatEngine;
  uint64_t id_ = 0;
  std::shared_ptr<engine_internal::TicketState> state_;
};

/// Outcome of SatEngine::SaveSnapshot.
struct SnapshotSaveResult {
  Status status;
  /// Schema records written: the source Dtd of every artifact in the DTD
  /// cache, plus the Dtds that memo entries pin whose artifacts had left
  /// it. Save compiles nothing.
  uint64_t dtds_saved = 0;
  /// Memo records written.
  uint64_t memos_saved = 0;
};

/// Outcome of SatEngine::LoadSnapshot. A load never fails the engine: open
/// errors leave it untouched (cold), and per-record problems are skipped and
/// counted — `status` is an error only when the file could not be read at
/// all (mapped onto a structured kind for wire `err` slugs).
struct SnapshotLoadResult {
  enum class ErrorKind {
    kNone,     ///< the file opened and was scanned
    kIo,       ///< the file could not be opened/read (`err io`)
    kCorrupt,  ///< not a snapshot file — bad magic (`err store-corrupt`)
    kVersion,  ///< incompatible format version (`err store-version`)
  };
  Status status;
  ErrorKind error_kind = ErrorKind::kNone;
  /// The version an incompatible file claims (ErrorKind::kVersion only).
  uint32_t file_version = 0;
  /// Verified schema records (text parses and re-derives its fingerprint).
  /// The first dtd_cache_capacity of them are admitted to the DTD cache
  /// (compiled, or matched to an equivalent incumbent); the rest are kept
  /// uncompiled, only for their memo records to attach to.
  uint64_t dtds_loaded = 0;
  /// Memo records attached to a schema verified from this file.
  uint64_t memos_loaded = 0;
  /// Records that failed their CRC or ended mid-record (skipped).
  uint64_t corrupt_records = 0;
  /// Records that passed their CRC but failed verification — forged
  /// fingerprint, unparsable schema, malformed memo, memo without its
  /// schema (skipped).
  uint64_t rejected_records = 0;
  /// True when the scan ended at a torn tail instead of a clean EOF.
  bool truncated = false;
};

/// Monotonic counters over the engine's lifetime.
///
/// One counter store: every field but the always-0 rewrite pair, the two
/// stamps and the two gauges is a kSatEngineCounters row, an obs::Counter in
/// the engine's MetricsRegistry named after the field, so `stats`, `health`
/// and `metrics` read the same cells and agree by construction (as they do
/// for the two gauges, which are registry Gauges).
///
/// Snapshot consistency: stats() is not one atomic snapshot (counters are
/// independent atomics updated lock-free on the hot path), but it is more
/// than a bag of racy reads. Every counter is monotonic, increments use
/// release ordering, and stats() loads the per-request *outcome* counters
/// BEFORE loading `requests` (with acquire ordering), so every snapshot —
/// even one taken mid-flight from another thread — satisfies:
///
///   memo_hits + memo_misses + parse_errors + cancellations
///       + deadline_expirations <= requests
///   query_cache_hits + query_cache_misses <= requests
///
/// (each request contributes to at most one outcome counter, and its
/// `requests` increment happens-before its outcome increment via the pool's
/// queue). Exact totals hold at quiescence: once every submitted ticket has
/// been observed complete (Get/WaitFor returned, or a callback fired), a
/// subsequent stats() call accounts for all of them exactly —
/// tests/cache_stress_test.cc asserts both the mid-flight invariants and
/// the exact quiescent totals.
struct SatEngineStats {
  uint64_t requests = 0;
  /// RegisterDtd calls resolved from / compiled into the artifact cache.
  uint64_t dtd_cache_hits = 0;
  uint64_t dtd_cache_misses = 0;
  uint64_t query_cache_hits = 0;
  uint64_t query_cache_misses = 0;
  /// Requests answered from / decided into the verdict memo. Requests that
  /// never reach the memo (parse errors, cancellations, disabled memo) bump
  /// neither counter.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  /// Always 0: the engine caches no Prop 3.3 rewrites. Kept only because
  /// perfbench/traced.cc reads them (its engine.rewrite_hit_ratio); they go
  /// when the benchmark stops reading them.
  uint64_t rewrite_cache_hits = 0;
  uint64_t rewrite_cache_misses = 0;
  uint64_t parse_errors = 0;
  /// Tickets revoked while queued via TryCancel.
  uint64_t cancellations = 0;
  /// Requests cancelled (or caught at pickup) because their deadline passed
  /// before they started.
  uint64_t deadline_expirations = 0;
  /// Artifact-store (snapshot) counters, bumped by LoadSnapshot: verified
  /// schema records admitted, memo records attached, records skipped for CRC
  /// failure / truncation, records rejected by verification, and whole-file
  /// version rejections. Not per-request; not part of the <= invariants.
  uint64_t store_dtds_loaded = 0;
  uint64_t store_memos_loaded = 0;
  uint64_t store_records_corrupt = 0;
  uint64_t store_records_rejected = 0;
  uint64_t store_version_rejects = 0;
  /// Milliseconds since the engine was constructed; lets probes detect
  /// restarts. Not part of the <= invariants above.
  uint64_t uptime_ms = 0;
  /// Gauges, not counters: registrations pinned by live handles, and
  /// CompiledDtds this engine compiled or loaded that are still alive
  /// (SatEngine::live_dtd_handles / live_compiled_artifacts).
  uint64_t live_dtd_handles = 0;
  uint64_t live_compiled_artifacts = 0;
  /// Monotonically increasing snapshot number, bumped by every stats() /
  /// metrics emission over this engine; lets scrapers detect stale reads.
  uint64_t snapshot_seq = 0;
};

/// One engine event counter: its MetricsRegistry name (also its key in the
/// `stats` JSON) and the SatEngineStats field it fills.
struct SatEngineCounter {
  const char* name;
  uint64_t SatEngineStats::*field;
};

/// The single table behind the engine's counters: SatEngine registers one
/// registry Counter per row, stats() reads them back, and
/// protocol::FormatStatsJson prints them in this order. `requests` comes
/// first, and stats() walks the table backwards so it is loaded last.
inline constexpr SatEngineCounter kSatEngineCounters[] = {
    {"requests", &SatEngineStats::requests},
    {"dtd_cache_hits", &SatEngineStats::dtd_cache_hits},
    {"dtd_cache_misses", &SatEngineStats::dtd_cache_misses},
    {"query_cache_hits", &SatEngineStats::query_cache_hits},
    {"query_cache_misses", &SatEngineStats::query_cache_misses},
    {"memo_hits", &SatEngineStats::memo_hits},
    {"memo_misses", &SatEngineStats::memo_misses},
    {"parse_errors", &SatEngineStats::parse_errors},
    {"cancellations", &SatEngineStats::cancellations},
    {"deadline_expirations", &SatEngineStats::deadline_expirations},
    {"store_dtds_loaded", &SatEngineStats::store_dtds_loaded},
    {"store_memos_loaded", &SatEngineStats::store_memos_loaded},
    {"store_records_corrupt", &SatEngineStats::store_records_corrupt},
    {"store_records_rejected", &SatEngineStats::store_records_rejected},
    {"store_version_rejects", &SatEngineStats::store_version_rejects},
};
inline constexpr size_t kNumSatEngineCounters = std::size(kSatEngineCounters);
/// The kSatEngineCounters row filling `field` (kNumSatEngineCounters: none).
constexpr size_t SatEngineCounterRow(uint64_t SatEngineStats::*field) {
  size_t i = 0;
  while (i < kNumSatEngineCounters && kSatEngineCounters[i].field != field) ++i;
  return i;
}
static_assert(SatEngineCounterRow(&SatEngineStats::requests) == 0,
              "stats() loads row 0 last; it must be `requests`");

class SatEngine {
 public:
  explicit SatEngine(const SatEngineOptions& options = {});
  ~SatEngine();

  SatEngine(const SatEngine&) = delete;
  SatEngine& operator=(const SatEngine&) = delete;

  /// Registers `dtd` with the engine: compiles it through the artifact cache
  /// (deduplicating against earlier registrations of an equivalent DTD) and
  /// returns a handle pinning the artifacts. The Dtd itself is not retained;
  /// the caller may destroy it as soon as this returns.
  DtdHandle RegisterDtd(const Dtd& dtd);
  /// Parses DTD source text and registers it. Errors are parse errors.
  Result<DtdHandle> RegisterDtdText(const std::string& dtd_text);

  /// Enqueues the request and returns immediately. The returned ticket's id
  /// is unique and increases with submission order. The request (query text,
  /// handle pin, options) is captured by value; the caller keeps nothing
  /// alive.
  SatTicket Submit(SatRequest request);

  /// Revokes a still-queued ticket: returns true iff this call cancelled it,
  /// in which case the response resolves immediately to kUnknown with
  /// algorithm "cancelled". Returns false for invalid tickets and for
  /// requests that already started, finished, or were already cancelled.
  bool TryCancel(const SatTicket& ticket);

  /// Submits every request up front and blocks for all responses; responses
  /// are in request order. Equivalent to Submit + Get per item (single
  /// execution path). Must not be called from inside one of the engine's own
  /// worker jobs.
  std::vector<SatResponse> RunBatch(const std::vector<SatRequest>& batch);

  /// Submits one request and blocks for its response (same path as Submit;
  /// the deadline is measured from this call). Must not be called from
  /// inside one of the engine's own worker jobs.
  SatResponse Run(const SatRequest& request);

  /// Writes a versioned snapshot (src/store/snapshot.h) of the served
  /// schemas and the verdict memo to `path`, atomically (a temporary unique
  /// to this save, synced, then renamed). Entries are collected by walking
  /// the DTD cache, then the memo, each under its own lock (shared_ptr
  /// copies only — serialization happens outside every lock), so a save
  /// concurrent with live traffic is safe and captures a consistent view of
  /// each cache. Each fingerprint's source Dtd is written once: the DTD
  /// cache's first, most recently used first, then those that memo entries
  /// pin after their artifacts were evicted, so every saved memo record can
  /// be re-verified on load. Save compiles nothing.
  SnapshotSaveResult SaveSnapshot(const std::string& path) const;

  /// Warms the caches from a snapshot at `path`. Per-record trust chain:
  /// a record must pass its CRC, its schema text must parse and re-derive
  /// the fingerprint it is keyed by, and memo entries attach only to a
  /// schema verified from the same file — corrupt, truncated, or
  /// colliding records are skipped and counted, never trusted. The first
  /// dtd_cache_capacity schemas are admitted through LookupDtd, the path
  /// RegisterDtd takes: an equivalent cached schema is reused, otherwise it
  /// is compiled and inserted keep-incumbent, so a load never clobbers
  /// hotter in-memory state and never reads a derived artifact from disk.
  /// Later schemas are not compiled (the cache could not keep them); their
  /// memo records pin the source Dtd. The runtime EquivalentTo hit checks
  /// still guard every warm entry. The whole load is stamped as an
  /// `artifact-store-load` span (histogram, route counter, RequestTrace
  /// into the slow-query log when over threshold).
  SnapshotLoadResult LoadSnapshot(const std::string& path);

  SatEngineStats stats() const;

  /// The engine's metrics registry: per-phase latency histograms
  /// (request_queue_ns, request_parse_ns, request_rewrite_ns,
  /// request_decide_ns, request_total_ns, dtd_compile_ns), the
  /// slow_requests counter, one counter per kSatEngineCounters row and the
  /// live_dtd_handles and live_compiled_artifacts gauges (the cells stats()
  /// reads). Mutated lock-free by the request path; render with
  /// obs::RenderMetricsJson / RenderMetricsProm.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Per-dispatch-route fulfilment counters: one increment per completed
  /// request, keyed by SatReport::algorithm (the Sec. 8 dispatch cell) or a
  /// synthetic route ("memo-hit", "cancelled", "deadline", "parse-error",
  /// "invalid-request").
  const obs::RouteCounters& routes() const { return route_counters_; }
  /// Returns and clears the slow-query ring (oldest first) plus the count of
  /// records dropped to the capacity bound since the last drain.
  obs::SlowQueryLog::Drained DrainSlowLog() { return slow_log_.Drain(); }
  /// Milliseconds since construction.
  uint64_t uptime_ms() const;
  /// Bumps and returns the engine-wide snapshot sequence number (also
  /// stamped into stats()); every emitted stats/metrics snapshot gets a
  /// distinct, increasing value.
  uint64_t NextSnapshotSeq() const;

  /// Registrations currently pinned by live handles (a gauge, not a
  /// counter).
  uint64_t live_dtd_handles() const;
  /// CompiledDtds this engine compiled (registration, snapshot load) that
  /// are still alive, wherever they are held: the DTD cache, handles,
  /// in-flight requests (a gauge, not a counter).
  uint64_t live_compiled_artifacts() const;
  int num_threads() const { return pool_.num_threads(); }

 private:
  struct CachedQuery {
    std::shared_ptr<const PathExpr> ast;
    Features features;
    std::string canonical;
  };
  struct MemoEntry {
    // The source schema (CompiledDtd::shared_dtd) the memoized report was
    // computed against: fingerprints can collide (64-bit FNV), so a hit
    // must verify it is answering for the same schema before serving the
    // report. Only the Dtd is pinned; the compiled artifacts die with their
    // last handle or DTD-cache slot.
    std::shared_ptr<const Dtd> dtd;
    std::shared_ptr<const SatReport> report;
  };

  using Clock = std::chrono::steady_clock;

  /// Cached query keys kept (LRU; canonical entries plus raw aliases).
  static constexpr size_t kQueryCacheCapacity = 4096;
  /// Slow-query ring capacity; when full the oldest record is dropped (and
  /// counted) rather than blocking or growing.
  static constexpr size_t kSlowLogCapacity = 64;

  /// Clamps dtd_cache_capacity to >= 1 once, before the caches are
  /// constructed from the stored options.
  static SatEngineOptions Normalize(SatEngineOptions options);

  SatResponse Execute(const SatRequest& request, Clock::time_point submitted,
                      uint64_t ticket_id);
  std::shared_ptr<const CompiledDtd> LookupDtd(const Dtd& dtd, uint64_t fp,
                                               bool* hit);
  /// Counts `compiled` in the live_compiled_artifacts gauge until its last
  /// owner lets go; every artifact the engine compiles goes through here.
  std::shared_ptr<const CompiledDtd> Track(
      std::shared_ptr<const CompiledDtd> compiled) const;
  std::shared_ptr<const CachedQuery> LookupQuery(const std::string& text,
                                                 bool* hit,
                                                 std::string* parse_error,
                                                 uint64_t* parse_ns);
  /// Completes resp->trace (total span), records the phase histograms and
  /// the route counter, and admits the request to the slow-query log when it
  /// crossed the threshold. Every Execute exit path funnels through here;
  /// never-executed fulfilments (TryCancel, reaper) bump only their route
  /// counter.
  void FinishTrace(SatResponse* resp, const SatRequest& request,
                   uint64_t ticket_id, Clock::time_point submitted,
                   Clock::time_point end);
  void ReaperLoop();
  /// Bumps the registry counter behind `field`; the kSatEngineCounters row
  /// is found at compile time, so the hot path is one release add.
  template <uint64_t SatEngineStats::*field>
  void Count(uint64_t n = 1) {
    constexpr size_t row = SatEngineCounterRow(field);
    static_assert(row < kNumSatEngineCounters, "not a kSatEngineCounters row");
    counters_[row]->Increment(n);
  }

  SatEngineOptions options_;

  // The cache core: one LruCache per cache, each with its own lock (no
  // engine-wide cache lock anywhere). All values are shared_ptr-like
  // handles, so readers never hold a cache lock while using an entry.
  //
  // DTD cache: fingerprint -> artifacts. Hits are verified against the
  // source DTD (EquivalentTo) — a colliding registration is served fresh,
  // uncached, and the incumbent keeps the slot.
  LruCache<uint64_t, std::shared_ptr<const CompiledDtd>> dtd_cache_;
  // Query cache: keys are canonical printings plus raw-text aliases, all
  // pointing at shared entries (each key is its own LRU slot; the entry
  // dies when its last key is evicted).
  LruCache<std::string, std::shared_ptr<const CachedQuery>> query_cache_;
  // Verdict memo: composite key -> entry. The key string is the canonical
  // query printing followed by the raw 8-byte fingerprint and options
  // digest (exact, not hashed — no collision surface beyond the
  // fingerprint, which the entry verifies). Sized max(1, memo_capacity);
  // unused when memo_capacity == 0.
  LruCache<std::string, MemoEntry> memo_;

  std::atomic<uint64_t> next_handle_id_{1};
  std::atomic<uint64_t> next_ticket_id_{1};

  // Observability: the counters and histograms are resolved once in the
  // constructor (registry lookups are mutex-guarded) and mutated lock-free
  // by the request path. counters_[i] is the kSatEngineCounters[i] cell.
  // The registry is shared: live_handles_ and live_artifacts_ alias its
  // live_dtd_handles and live_compiled_artifacts gauges, and every DtdPin
  // and tracked artifact holds a copy, so a handle or artifact released
  // after the engine is gone still finds its cell.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::Gauge> live_handles_;
  std::shared_ptr<obs::Gauge> live_artifacts_;
  obs::Counter* counters_[kNumSatEngineCounters] = {};
  obs::RouteCounters route_counters_;
  obs::SlowQueryLog slow_log_;
  obs::Histogram* hist_wire_decode_ns_ = nullptr;
  obs::Histogram* hist_queue_ns_ = nullptr;
  obs::Histogram* hist_parse_ns_ = nullptr;
  obs::Histogram* hist_rewrite_ns_ = nullptr;
  obs::Histogram* hist_decide_ns_ = nullptr;
  obs::Histogram* hist_total_ns_ = nullptr;
  obs::Histogram* hist_dtd_compile_ns_ = nullptr;
  obs::Histogram* hist_store_load_ns_ = nullptr;
  obs::Counter* slow_requests_ = nullptr;
  Clock::time_point start_time_;
  mutable std::atomic<uint64_t> snapshot_seq_{0};

  // Deadline reaper: min-heap of (expiry, ticket) drained by a dedicated
  // thread that revokes expired still-queued work. Entries hold weak
  // references: a request that completes (and whose ticket holders let go)
  // frees its state immediately instead of staying pinned in the heap until
  // its wall-clock expiry.
  struct DeadlineEntry {
    Clock::time_point when;
    std::weak_ptr<engine_internal::TicketState> state;
    bool operator>(const DeadlineEntry& other) const {
      return when > other.when;
    }
  };
  util::Mutex reaper_mu_;
  util::CondVar reaper_cv_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_ GUARDED_BY(reaper_mu_);
  bool reaper_stop_ GUARDED_BY(reaper_mu_) = false;
  std::thread reaper_;

  ThreadPool pool_;  // last member: workers must die before the caches
};

}  // namespace xpathsat

#endif  // XPATHSAT_ENGINE_SAT_ENGINE_H_
