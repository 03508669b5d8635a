// ServerSession: one client's view of a shared SatEngine, speaking the line
// protocol (src/server/protocol.h). Both front ends sit on this class —
// `xpathsat_cli --serve` feeds it stdin lines, `xpathsat_server` feeds it
// socket lines — so there is exactly one protocol implementation.
//
// Each session owns
//   * a DTD-handle namespace (NAME -> DtdHandle): names are per-connection,
//     but the handles all pin artifacts in the ONE shared engine, so two
//     clients registering the same schema share a compilation and hit each
//     other's verdict memo entries;
//   * an in-flight ticket table (engine ticket id -> SatTicket), which is
//     what makes cancellation externally addressable: `cancel ID` works for
//     any id this session was ack'd for and has not yet seen complete.
//
// Responses are pipelined: `query` answers immediately with `ok query ID`,
// and the result line is emitted later — possibly out of submission order —
// from the engine thread that completes the ticket (via
// SatTicket::OnComplete). There is no per-ticket drain thread anywhere.
//
// Thread-safety: HandleLine must be called from one thread at a time (the
// connection's reader), but the sink is invoked concurrently from engine
// threads; sinks must be internally synchronized. The shared state that
// callbacks touch outlives the session object itself (callbacks keep it
// alive), so tearing a session down while results are in flight is safe —
// Drain() is only needed when the caller wants every result emitted before
// proceeding (flush/quit/EOF).
#ifndef XPATHSAT_SERVER_SESSION_H_
#define XPATHSAT_SERVER_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/sat_engine.h"
#include "src/server/protocol.h"

namespace xpathsat {
namespace server {

struct SessionOptions {
  /// Per-request deadline cap forwarded to every submitted query (0: none).
  int64_t deadline_ms = 0;
  /// In-flight ticket cap per session: a `query` that would exceed it
  /// blocks HandleLine until a completion frees a slot, back-pressuring the
  /// connection (the reader stalls, so the kernel stalls the client's
  /// sends) instead of queueing unbounded work in the shared engine. Must
  /// be >= 1.
  size_t max_inflight = 1024;
  /// Shared secret. When nonempty, the session starts unauthenticated: the
  /// ONLY verbs accepted are `auth SECRET` (right secret -> `ok auth`;
  /// wrong -> `err bad-auth` and the session closes) and `health` (always
  /// unauthenticated, so load balancers can probe without the secret).
  /// Anything else answers `err auth-required` and closes the session.
  std::string auth_secret;
  /// Producer for the JSON object both the `stats` and the (authenticated)
  /// `health` reply carry, so the two verbs share one source. The socket
  /// server injects one that wraps the engine stats in its connection
  /// counters; unset falls back to the engine stats JSON alone (the
  /// `--serve` shape).
  std::function<std::string()> stats_json;
  /// Producer for the `metrics` reply's JSON object. Unset falls back to the
  /// engine's registry + route counters alone; the socket server injects one
  /// that merges its own registry (connection counters, reactor and worker
  /// queue metrics) in.
  std::function<std::string()> metrics_json;
  /// Producer for the `metrics prom` multi-line text exposition (must end
  /// with a "# EOF" line). Same fallback/injection split as metrics_json.
  std::function<std::string()> metrics_prom;
  /// Whether the transport can deliver length-prefixed binary frames (the
  /// socket server's reactor decoder can; --serve's stdin LineReader
  /// cannot). `hello binary` is granted only when set.
  bool binary_frames_supported = false;
};

class ServerSession {
 public:
  /// `sink` emits one reply line (no trailing newline). It is called from
  /// the session's own thread (acks, errors, stats) AND from engine
  /// completion threads (result lines); it must be thread-safe and must not
  /// block indefinitely. `engine` must outlive the session.
  using LineSink = std::function<void(const std::string&)>;

  ServerSession(SatEngine* engine, SessionOptions options, LineSink sink);
  ~ServerSession();  // waits for in-flight results (Drain)

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Processes one raw request line, emitting any replies through the sink.
  /// Returns false when the session is over (quit); the caller should stop
  /// feeding lines and let the session drain.
  bool HandleLine(const std::string& line);

  /// Full-control variant of HandleLine for transports that frame payloads
  /// themselves: `binary_frame` marks a payload that arrived as a
  /// length-prefixed binary frame (rejected with `err bad-frame` — and the
  /// session closes — unless the client negotiated `hello binary` first);
  /// `decode_ns` is the transport's framing-decode cost for this payload,
  /// stamped onto submitted requests as the trace's wire-decode span.
  bool HandleWire(const std::string& payload, bool binary_frame,
                  uint64_t decode_ns);

  /// Tells the session its input stream ended (EOF/teardown) with no
  /// further lines coming. A batch still collecting members answers one
  /// `err batch-mismatch` — nothing from an incomplete batch is ever
  /// dispatched. Idempotent; emits nothing when no batch is pending.
  void OnInputClosed();

  /// Emits an `err` line through the sink (transport-level errors the
  /// session cannot detect itself, e.g. an oversized line swallowed by the
  /// connection's LineReader).
  void EmitError(const std::string& code, const std::string& detail);

  /// Blocks until every submitted ticket's result line has been emitted.
  void Drain();

  /// Tickets submitted over this session's lifetime.
  uint64_t queries_submitted() const { return queries_submitted_; }

 private:
  struct Shared;  // inflight table + sink; kept alive by result callbacks

  /// Collect state for one `batch N` in progress: members are buffered and
  /// validated here; nothing touches the engine until all N arrived clean.
  struct PendingBatch {
    uint64_t seq = 0;       // per-session batch number (in the ack/done lines)
    uint64_t expected = 0;  // N from `batch N`
    uint64_t received = 0;  // member lines consumed so far (incl. poisoned)
    bool poisoned = false;  // a member failed validation; swallow the rest
    std::string error;      // first violation, for the batch-mismatch detail
    std::vector<protocol::Command> members;
    std::vector<uint64_t> member_decode_ns;
  };

  void HandleCommand(const protocol::Command& command);
  void CollectBatchMember(const protocol::ParseResult& parsed,
                          uint64_t decode_ns);
  void DispatchBatch();

  SatEngine* engine_;
  SessionOptions options_;
  std::shared_ptr<Shared> shared_;
  std::map<std::string, DtdHandle> schemas_;
  uint64_t queries_submitted_ = 0;
  bool closed_ = false;
  bool authed_ = false;  // vacuously true when no secret is configured
  // `hello` grants (both false until negotiated).
  bool batch_granted_ = false;
  bool binary_granted_ = false;
  uint64_t next_batch_seq_ = 1;
  std::unique_ptr<PendingBatch> batch_;  // non-null while collecting members
  // Wire-decode span of the payload currently in HandleWire, stamped onto
  // the request(s) it submits.
  uint64_t current_decode_ns_ = 0;
};

}  // namespace server
}  // namespace xpathsat

#endif  // XPATHSAT_SERVER_SESSION_H_
