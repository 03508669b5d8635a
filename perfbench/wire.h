// WireConn: one benchmark connection through client::Client's raw mode.
// Sends never wait for acks; a line tap on the client's reader thread
// matches replies — control lines FIFO, result lines by ticket id, batch
// barriers by sequence number — and checks every verdict against the
// request's expected verdict.
#ifndef XPATHSAT_PERFBENCH_WIRE_H_
#define XPATHSAT_PERFBENCH_WIRE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"
#include "src/client/client.h"

namespace perfbench {

/// Outcome counters shared by every connection of a run.
struct Outcomes {
  std::atomic<uint64_t> failed{0};    // ops: err replies, [error], unanswered
  std::atomic<uint64_t> verdicts{0};  // result lines received
  std::atomic<uint64_t> unknown{0};   // [unknown] verdicts
  std::mutex mu;
  std::string mismatch;  // first wrong verdict (aborts the run)
  bool Mismatched() {
    std::lock_guard<std::mutex> lock(mu);
    return !mismatch.empty();
  }
};

/// Timings of one phase. An op unit is a verdict for query ops and a whole
/// job for job ops; `unit_done_ns` holds each unit's completion time.
struct Phase {
  std::mutex mu;
  std::vector<double> latency_us;     // per unit, from the op's origin
  std::vector<int64_t> unit_done_ns;  // per unit
  std::vector<double> ack_us;         // per op: origin -> batch ack
  std::vector<double> lag_us;         // open loop: send start - due
};

class WireConn {
 public:
  /// Connects to `target` ("unix:PATH"), negotiating batch (and binary
  /// frames when `binary`). Fails the run when the server refuses.
  WireConn(const Config& cfg, const Stream& stream, const std::string& target,
           bool binary, size_t index, Outcomes* outcomes);
  ~WireConn();

  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  size_t index() const { return index_; }

  /// Sends one control line and waits for its reply; `*reply_ns` (optional)
  /// receives the reply's arrival time.
  std::string Control(const std::string& line, int64_t* reply_ns = nullptr);
  /// `dtd NAME PATH`; fails the run unless acked.
  void Register(const Schema& schema);

  /// Sends `op` without waiting: a `batch N` of its queries, wrapped in
  /// `dtd`/`drop` for a job. Latencies count from `origin_ns`; `phase` may
  /// be null (warm-up). `corrupt` names an unregistered schema instead, so
  /// the server answers `err` (the failed_ratio self-test).
  void Send(const Op* op, int64_t origin_ns, Phase* phase, bool corrupt);

  /// Closed loop: blocks until fewer than `n` ops are in flight.
  void WaitInflightBelow(int n);
  /// Blocks until every sent op completed; after 30 s the rest count as
  /// failed (never answered).
  void WaitAllDone();

 private:
  struct Sent;
  struct Expect {
    enum Kind { kControl, kDtd, kBatch, kDrop } kind;
    Sent* sent = nullptr;
  };

  void OnLine(const std::string& line);
  void Finish(Sent* sent);
  void CountFailed(const Sent* sent, int units, const std::string& why);
  std::string Payload(const std::string& line) const;

  const Config& cfg_;
  const Stream& s_;
  const size_t index_;
  Outcomes* outcomes_;
  std::unique_ptr<xpathsat::client::Client> client_;
  bool binary_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Expect> fifo_;  // guarded by mu_
  int inflight_ = 0;         // guarded by mu_
  std::string control_reply_;
  int64_t control_reply_ns_ = 0;
  bool control_done_ = false;
  std::deque<Sent> sent_;    // guarded by mu_; a deque never moves them

  // Reader thread only.
  struct Slot {
    Sent* sent;
    int member;
  };
  std::unordered_map<uint64_t, Slot> ids_;
  std::unordered_map<uint64_t, Sent*> seqs_;
};

}  // namespace perfbench

#endif  // XPATHSAT_PERFBENCH_WIRE_H_
