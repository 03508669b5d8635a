// xpathsat::client::Client — the project's one wire client: an async,
// thread-safe multiplexer for the line protocol (src/server/protocol.h)
// over a single socket. `xpathsat_cli --connect`, the e2e script (through
// the CLI), tests, and the wire bench all sit on this class, so there is
// exactly one implementation of reply correlation, feature negotiation, and
// transport-failure handling on the client side.
//
// Two usage styles, not to be mixed on one connection:
//
//  * Structured: Connect() (optionally authenticating and negotiating
//    `hello batch` / `hello binary`), then Call() for synchronous control
//    verbs and SubmitQuery()/SubmitBatch() for pipelined queries. Many
//    queries may be in flight at once; result lines arrive out of
//    submission order and are dispatched to per-submission callbacks by
//    ticket id. SubmitBatch uses the negotiated `batch N` framing (and
//    binary frames, when granted) so N requests cost one write and the
//    server acks them as one unit.
//  * Raw (the CLI's --connect passthrough): SendRaw() writes lines
//    verbatim and a line tap observes every reply line; the client does no
//    correlation at all. Mixing Call/Submit with SendRaw on the same
//    connection breaks reply matching — don't.
//
// Reply correlation relies on the server contract: control replies (ok/err)
// are emitted synchronously in input order (FIFO), result lines are tagged
// with their ticket id and may interleave anywhere after their ack, and the
// only out-of-FIFO control line is the `ok batch SEQ done` barrier, which
// is matched by its SEQ.
//
// Transport failure (EOF, read error, failed write) latches: every pending
// call completes with an error Status, every in-flight query callback fires
// with an error Status, and later submissions fail fast. The Client object
// stays safe to use; reconnecting means making a new Client.
//
// Callbacks run on the client's reader thread. They must not block and must
// not call methods that wait for replies (Call/SubmitQuery/Flush) — that
// would deadlock the one thread that completes replies.
#ifndef XPATHSAT_CLIENT_CLIENT_H_
#define XPATHSAT_CLIENT_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/mutex.h"
#include "src/util/net.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {
namespace client {

// The verbs and err slugs this client understands, kept in sync with the
// server (src/server/protocol.cc's VerbName table and the EmitError sites)
// by the `client-sync` rule in tools/lint/check_invariants.py. A verb or
// slug added on the server without a row here fails CI.
extern const char* const kKnownVerbs[];
extern const size_t kKnownVerbCount;
extern const char* const kKnownErrSlugs[];
extern const size_t kKnownErrSlugCount;

struct ClientOptions {
  /// "unix:PATH" or "HOST:PORT" (empty HOST means 127.0.0.1) — the same
  /// grammar as `xpathsat_cli --connect`.
  std::string target;
  /// Nonempty: `auth SECRET` is sent (and must be acked) before Connect
  /// returns.
  std::string auth_secret;
  /// Ask for `hello batch` / `hello binary` during Connect. What the server
  /// actually granted is visible via batch_granted()/binary_granted();
  /// SubmitBatch degrades gracefully when a feature was declined.
  bool negotiate_batch = false;
  bool negotiate_binary = false;
};

/// What a completed query looks like to a callback.
struct QueryOutcome {
  uint64_t ticket_id = 0;
  /// sat / unsat / unknown / error — or "" when the transport died before
  /// the result line arrived (the Status carries the failure).
  std::string verdict;
  /// The full result line as received ("" on transport failure).
  std::string line;
};

class Client {
 public:
  using QueryCallback =
      std::function<void(const Status&, const QueryOutcome&)>;
  using BatchDoneCallback = std::function<void(const Status&)>;
  using LineTap = std::function<void(const std::string&)>;

  /// Connects, authenticates (when auth_secret is set), and negotiates
  /// features (when asked). Returns an error — and no Client — when any of
  /// those steps fail.
  static Result<std::unique_ptr<Client>> Connect(const ClientOptions& options);

  /// Fails anything still pending, closes the socket, joins the reader.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Features the server granted during Connect.
  bool batch_granted() const { return batch_granted_; }
  bool binary_granted() const { return binary_granted_; }

  /// Sends one control line and blocks for its reply. The reply is returned
  /// verbatim — including `err ...` lines; only transport failure is a
  /// Result error. `metrics prom` is understood: its multi-line exposition
  /// is returned newline-joined, "# EOF" line included.
  Result<std::string> Call(const std::string& line);

  /// Pipelined single query: blocks only for the `ok query ID` ack and
  /// returns the ticket id; `cb` fires from the reader thread when the
  /// result line arrives. An `err` ack returns an error and `cb` never
  /// fires.
  Result<uint64_t> SubmitQuery(const std::string& schema,
                               const std::string& query, QueryCallback cb);

  struct BatchHandle {
    /// Server batch number (0 when the per-query fallback was used — no
    /// barrier line exists server-side in that case).
    uint64_t seq = 0;
    /// Ticket ids, member order.
    std::vector<uint64_t> ids;
  };

  /// Submits `queries` against `schema` as one `batch N` unit when the
  /// server granted batch framing (one write, one ack, one barrier);
  /// otherwise falls back to per-query submits. Blocks for the ack;
  /// `per_item` fires per result line, `done` (optional) after the last
  /// one. With binary granted, the batch goes out as length-prefixed
  /// frames.
  Result<BatchHandle> SubmitBatch(const std::string& schema,
                                  const std::vector<std::string>& queries,
                                  QueryCallback per_item,
                                  BatchDoneCallback done = nullptr);

  /// Blocks until every result line owed to this session has been emitted
  /// (the protocol `flush` barrier).
  Status Flush();

  /// Raw passthrough: writes `line` verbatim (newline appended), no
  /// expectation recorded. Fails fast once the transport is dead.
  Status SendRaw(const std::string& line);

  /// Observes every reply line, in arrival order, from the reader thread.
  /// Set it before sending traffic.
  void set_line_tap(LineTap tap);

  /// Half-closes the write side so the server sees EOF and winds the
  /// session down (drain + close).
  void ShutdownWrites();

  /// Blocks until the server closed its side (reader saw EOF/error).
  void WaitForServerEof();

  /// The latched transport status: Ok while the connection is usable.
  Status transport_status() const;

 private:
  struct Expectation;

  explicit Client(ClientOptions options);

  void ReaderLoop();
  void OnReplyLine(const std::string& line);
  void FailEverything(const std::string& reason);
  /// Pushes the expectation and writes atomically w.r.t. other senders, so
  /// the expectation queue order always matches wire order.
  Status SendWithExpectation(const std::string& wire_bytes,
                             const std::shared_ptr<Expectation>& exp);
  Result<std::string> WaitFor(const std::shared_ptr<Expectation>& exp);
  /// One request payload in the negotiated encoding: "LINE\n" as text, or a
  /// length-prefixed frame when binary was granted.
  std::string EncodePayload(const std::string& line) const;

  ClientOptions options_;
  net::ScopedFd fd_;
  std::thread reader_;
  bool batch_granted_ = false;   // written only during Connect
  bool binary_granted_ = false;  // written only during Connect

  // Senders hold write_mu_ across (enqueue expectation, WriteAll) so the
  // FIFO expectation order is the wire order. Lock order: write_mu_ before
  // mu_; the reader takes only mu_.
  util::Mutex write_mu_;

  mutable util::Mutex mu_;
  util::CondVar cv_;
  /// Control replies are matched FIFO against this queue.
  std::deque<std::shared_ptr<Expectation>> expectations_ GUARDED_BY(mu_);
  /// Ticket id -> callback owed a result line.
  std::map<uint64_t, QueryCallback> inflight_ GUARDED_BY(mu_);
  /// Batch seq -> barrier callback (fires on `ok batch SEQ done`).
  std::map<uint64_t, BatchDoneCallback> barriers_ GUARDED_BY(mu_);
  LineTap tap_ GUARDED_BY(mu_);
  Status transport_ GUARDED_BY(mu_);  // latched first failure
  bool reader_done_ GUARDED_BY(mu_) = false;
};

}  // namespace client
}  // namespace xpathsat

#endif  // XPATHSAT_CLIENT_CLIENT_H_
