#ifndef XPATHSAT_OBS_TRACE_H_
#define XPATHSAT_OBS_TRACE_H_

/// Per-request trace spans and the bounded slow-query log.
///
/// A RequestTrace is stamped by the engine as a request moves through its
/// phases and is returned to the caller on SatResponse. Requests whose
/// end-to-end latency crosses SatEngineOptions::slow_request_ns are copied
/// (query text and all) into a SlowQueryLog ring, drained over the wire by
/// the `slow` protocol verb. The log takes a mutex — acceptable because by
/// definition only slow requests reach it; the fast path pays exactly one
/// integer comparison.

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {
namespace obs {

/// Per-phase span breakdown, all in nanoseconds. Spans a phase never entered
/// stay 0: memo hits record no rewrite/decide time. DTD compilation is not a
/// request phase; it happens on a DTD-cache miss at registration or
/// snapshot load (the dtd_compile_ns histogram).
struct RequestTrace {
  uint64_t wire_decode_ns = 0;  ///< transport framing decode (0 off the wire)
  uint64_t queue_ns = 0;    ///< Submit() to worker pickup
  uint64_t parse_ns = 0;    ///< parse + canonicalize + feature detection (0 on query-cache hit)
  uint64_t rewrite_ns = 0;  ///< Prop 3.3 rewrite work (0 on rewrite-cache hit)
  uint64_t decide_ns = 0;   ///< dispatch + decider execution
  uint64_t store_load_ns = 0;  ///< artifact-store snapshot load (warm restart); 0 on requests
  uint64_t total_ns = 0;    ///< Submit() to fulfilment
  /// Dispatch-table cell that produced the verdict (SatReport::algorithm),
  /// or one of the synthetic routes "memo-hit" / "cancelled" / "deadline" /
  /// "invalid-request" / "parse-error".
  std::string route;
};

struct SlowQueryRecord {
  uint64_t seq = 0;        ///< monotonically increasing admission number
  uint64_t ticket_id = 0;  ///< 0 for synchronous Run() calls
  uint64_t dtd_fingerprint = 0;
  std::string query;
  RequestTrace trace;
};

/// Bounded MPSC-friendly ring of the most recent slow requests. Push under
/// mutex; Drain() returns and clears the ring (oldest first) together with
/// the count of records dropped to the capacity bound since the last drain.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  void Push(SlowQueryRecord record);

  struct Drained {
    uint64_t dropped = 0;  ///< records evicted by the capacity bound since last Drain
    std::vector<SlowQueryRecord> records;
  };
  Drained Drain();

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  util::Mutex mu_;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  // ring_[..] ordered oldest-first
  std::vector<SlowQueryRecord> ring_ GUARDED_BY(mu_);
};

/// One-line JSON object: {"dropped": N, "records": [...]}, each record with
/// its span breakdown and JSON-escaped query text.
std::string RenderSlowJson(const SlowQueryLog::Drained& drained);

}  // namespace obs
}  // namespace xpathsat

#endif  // XPATHSAT_OBS_TRACE_H_
