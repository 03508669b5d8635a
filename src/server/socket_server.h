// SocketServer: the network front end over one long-lived SatEngine.
//
// Listens on a unix-domain socket and/or a TCP port and speaks the shared
// line protocol (src/server/protocol.h). Every accepted connection gets its
// own ServerSession — its own DTD-name namespace and in-flight ticket table
// — but all sessions share the ONE engine, so its compiled-DTD cache, query
// cache, and verdict memo are shared across clients: client B gets memo
// hits on traffic client A already decided.
//
// Concurrency model: a single REACTOR thread owns readiness and framing —
// an epoll (poll(2) fallback) event loop that accepts, reads nonblockingly,
// decodes lines, enforces the idle-timeout timer wheel, the connection cap,
// and per-IP accept throttling. Decoded lines are handed to a fixed session
// ThreadPool as one job per connection needing service (a connection holds
// at most one outstanding job, so per-connection line order is preserved
// and a connection is never handled by two workers at once). Result lines
// are NOT written by either — they are pipelined out of order by the engine
// threads that complete each ticket, through the session's completion
// callbacks, serialized per connection by a write mutex.
//
// This is what makes 10k idle connections on one process possible: an idle
// connection costs one fd and a timer-wheel slot, not a thread.
//
// Lifecycle: construct -> Start() -> ... -> Stop() (idempotent; also run by
// the destructor). The engine must outlive Stop(). Stop shuts every
// connection down, which drains each session — in-flight requests complete
// and their result lines are flushed before the sockets close.
#ifndef XPATHSAT_SERVER_SOCKET_SERVER_H_
#define XPATHSAT_SERVER_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/engine/sat_engine.h"
#include "src/obs/metrics.h"
#include "src/server/protocol.h"
#include "src/server/session.h"
#include "src/util/mutex.h"
#include "src/util/net.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace xpathsat {
namespace server {

struct SocketServerOptions {
  /// Unix-domain listener path; empty disables. Prefer short relative paths
  /// (sockaddr_un caps ~107 bytes).
  std::string unix_path;
  /// TCP listener port; -1 disables, 0 binds an ephemeral port (read it
  /// back from tcp_port() after Start).
  int tcp_port = -1;
  /// TCP bind address; loopback by default — binding wider than loopback is
  /// an explicit caller decision (pair it with auth_secret).
  std::string tcp_host = "127.0.0.1";
  /// Forwarded to every connection's session. The server overrides
  /// auth_secret (from the field below), binary_frames_supported, and the
  /// stats_json / metrics_json / metrics_prom producers.
  SessionOptions session;
  /// Per-line byte cap before a connection's input is answered with
  /// `err oversized-line` and discarded to the next newline.
  size_t max_line_bytes = protocol::kMaxLineBytes;

  // --- production hardening -----------------------------------------------

  /// Cap on live connections; an accept beyond it is answered with one
  /// `err busy ...` line and closed. 0: unlimited.
  size_t max_connections = 0;
  /// A connection with no traffic (reads or result writes) for this long is
  /// evicted with `err idle-timeout ...`. 0: never.
  int64_t idle_timeout_ms = 0;
  /// Shared secret: when nonempty every connection must present
  /// `auth SECRET` before its first verb (`health` stays open for load
  /// balancers).
  std::string auth_secret;
  /// Per-IP accept throttle for TCP connections (token bucket, refilled at
  /// this rate, burst = the same value): an accept beyond it is answered
  /// with `err throttled ...` and closed. 0: off. Unix-domain connections
  /// are exempt (no peer address to bucket).
  int tcp_accepts_per_ip_per_sec = 0;
};

class SocketServer {
 public:
  /// `engine` must outlive Stop().
  SocketServer(SatEngine* engine, SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Opens the configured listeners and starts the reactor and workers.
  /// Fails (and opens nothing — a partially-bound unix socket file is
  /// unlinked again) when no listener is configured or a bind fails.
  Status Start();

  /// Stops accepting, shuts down every connection (sessions drain their
  /// in-flight tickets first), and joins all threads. Idempotent, and —
  /// crucially for shutdown-path actions like `--save-on-exit` — every
  /// caller returns only after the stop is COMPLETE: a Stop() racing
  /// another Stop(), or racing the reactor's own poller-failure self-stop
  /// mid-accept, waits for the teardown instead of returning while threads
  /// are still serving.
  void Stop();

  /// Bound TCP port after Start (useful with tcp_port = 0); -1 when no TCP
  /// listener.
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  // The connection accessors read the server registry's cells — the same
  // ones `metrics` renders (four counters and the connections_active gauge).

  /// Connections actually admitted to service (rejected/throttled/stop-race
  /// accepts are NOT counted here — see connections_rejected()).
  uint64_t connections_accepted() const {
    return connections_accepted_->value();
  }
  /// Admitted connections not yet torn down.
  uint64_t connections_active() const {
    return static_cast<uint64_t>(connections_active_->value());
  }
  /// Accepts answered `err busy` (max_connections cap).
  uint64_t connections_rejected() const {
    return connections_rejected_->value();
  }
  /// Accepts answered `err throttled` (per-IP rate).
  uint64_t connections_throttled() const {
    return connections_throttled_->value();
  }
  /// Connections evicted by the idle timeout.
  uint64_t idle_evictions() const { return idle_evictions_->value(); }

  /// The `health` and `stats` replies' JSON object: server connection
  /// counters plus the engine stats (also what load balancers poll).
  std::string HealthJson() const;

  /// The `metrics` reply's JSON object: engine counters, histograms and
  /// routes merged with the server's connection counters and reactor-loop
  /// and worker-queue metrics.
  std::string MetricsJson();
  /// The `metrics prom` multi-line text exposition over the same merged
  /// inputs; ends with a "# EOF" line.
  std::string MetricsProm();

 private:
  // Per-connection write-side state, shared between the session's output
  // sink (runs on engine completion threads) and the teardown path. The
  // first failed/timed-out write latches `dead`; every later write is
  // skipped instead of paying the send timeout again.
  struct WriteState {
    util::Mutex mu;
    bool dead GUARDED_BY(mu) = false;
  };

  // One admitted connection. Field groups by owner:
  //  * reactor-only: poller/wheel bookkeeping — never touched off the
  //    reactor thread
  //  * work_mu: the reactor->worker hand-off (pending lines + flags),
  //    GUARDED_BY so a Clang -Wthread-safety build proves the hand-off
  //  * shared: fd (stable until destruction), session (created at admit,
  //    destroyed by the tearing-down worker), write/activity state (any
  //    thread, internally synchronized)
  //
  // Defined here (not in the .cc) so lock-held helpers like ScheduleLocked
  // can spell their REQUIRES(conn->work_mu) contract on the declaration.
  struct Connection {
    explicit Connection(size_t max_line_bytes) : decoder(max_line_bytes) {}

    net::ScopedFd fd;
    bool is_tcp = false;
    std::string peer_ip;
    net::LineDecoder decoder;  // reactor thread only
    std::unique_ptr<ServerSession> session;
    std::shared_ptr<WriteState> write_state = std::make_shared<WriteState>();
    // Stamped by the reactor on reads and by completion threads on result
    // writes; the timer wheel consults it before evicting, so a connection
    // only waiting on long decisions (results still streaming out) is not
    // "idle".
    std::shared_ptr<std::atomic<int64_t>> last_activity_ms =
        std::make_shared<std::atomic<int64_t>>(0);

    struct PendingLine {
      std::string text;
      bool oversized = false;
      // Payload arrived as a length-prefixed binary frame (the session
      // enforces that `hello binary` was negotiated).
      bool binary = false;
      // Malformed binary frame: `text` holds the decoder's detail message;
      // the worker answers `err bad-frame` and the connection closes (a
      // binary stream cannot resync).
      bool bad_frame = false;
      // Reactor-measured framing-decode cost for this payload, stamped
      // into the request trace as the wire-decode span.
      uint64_t decode_ns = 0;
    };

    util::Mutex work_mu;
    std::deque<PendingLine> pending GUARDED_BY(work_mu);
    size_t pending_bytes GUARDED_BY(work_mu) = 0;
    // a session job is queued or running
    bool scheduled GUARDED_BY(work_mu) = false;
    // the reactor will feed no more lines
    bool input_closed GUARDED_BY(work_mu) = false;
    // teardown should emit err idle-timeout
    bool timed_out GUARDED_BY(work_mu) = false;
    // reactor removed the fd from the poller
    bool paused GUARDED_BY(work_mu) = false;
    // session destroyed; retire pending
    bool torn_down GUARDED_BY(work_mu) = false;

    // Reactor-only bookkeeping.
    bool in_poller = false;
    size_t wheel_bucket = SIZE_MAX;
    std::list<Connection*>::iterator wheel_pos;
  };

  struct Listener {
    net::ScopedFd fd;
    bool is_tcp = false;
  };
  struct IpBucket {
    double tokens = 0;
    int64_t last_ms = 0;
  };

  // Reactor side (all on the reactor thread unless noted).
  void ReactorLoop();
  void AcceptReady(const Listener& listener);
  void AdmitConnection(net::ScopedFd fd, bool is_tcp,
                       const std::string& peer_ip);
  void ReadReady(const std::shared_ptr<Connection>& conn);
  void CloseInput(const std::shared_ptr<Connection>& conn, bool timed_out);
  void ScheduleLocked(const std::shared_ptr<Connection>& conn)
      REQUIRES(conn->work_mu);
  void Enqueue(const std::shared_ptr<Connection>& conn);
  void DrainControl();
  void BeginShutdown();
  bool ThrottleAllows(const std::string& peer_ip, int64_t now_ms);

  // Timer wheel (reactor thread).
  void WheelInsert(Connection* conn, int64_t expire_in_ms);
  void WheelRemove(Connection* conn);
  void AdvanceWheel(int64_t now_ms);

  // Worker side.
  void ProcessConnection(const std::shared_ptr<Connection>& conn);
  void TearDown(const std::shared_ptr<Connection>& conn, bool timed_out);

  // Any thread.
  void Wake();

  // Observability plumbing (metrics definitions in the ctor).
  obs::MetricsRenderInput BuildRenderInput();

  SatEngine* engine_;
  SocketServerOptions options_;
  int bound_tcp_port_ = -1;
  // Whether ListenUnix actually bound (and thus created) the socket file:
  // only ever unlink what Start created — never a pre-existing path a
  // failed Start refused to touch.
  bool unix_bound_ = false;

  std::vector<Listener> listeners_;
  net::ScopedFd wake_read_;
  net::ScopedFd wake_write_;
  std::unique_ptr<net::Poller> poller_;
  std::thread reactor_thread_;
  // Runs ProcessConnection; created by Start, drained and joined by Stop.
  std::unique_ptr<ThreadPool> session_pool_;

  // Reactor-thread state.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::unordered_map<std::string, IpBucket> ip_buckets_;
  std::vector<std::list<Connection*>> wheel_;
  size_t wheel_cursor_ = 0;
  size_t wheel_span_ticks_ = 0;
  int64_t wheel_tick_ms_ = 0;
  int64_t next_tick_at_ms_ = 0;
  bool shutdown_begun_ = false;

  // Cross-thread control hand-off to the reactor (retired connections to
  // erase, drained connections whose reads should resume).
  util::Mutex ctrl_mu_;
  std::vector<std::shared_ptr<Connection>> ctrl_retired_
      GUARDED_BY(ctrl_mu_);
  std::vector<std::shared_ptr<Connection>> ctrl_resumable_
      GUARDED_BY(ctrl_mu_);

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  // Serializes the teardown itself: the winner joins threads holding
  // stop_mu_, so a concurrent (or repeated) Stop() blocks until stopped_
  // flips rather than returning from the stopping_ gate while the server
  // is still live.
  util::Mutex stop_mu_;
  bool stopped_ GUARDED_BY(stop_mu_) = false;

  // Server-side metrics: connection counters, worker-queue depth/wait and
  // reactor-loop busy time, mutated lock-free on the serving paths through
  // pointers resolved in the constructor.
  obs::MetricsRegistry metrics_;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  obs::Counter* connections_throttled_ = nullptr;
  obs::Counter* idle_evictions_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* queue_wait_hist_ = nullptr;
  obs::Histogram* reactor_busy_hist_ = nullptr;
};

}  // namespace server
}  // namespace xpathsat

#endif  // XPATHSAT_SERVER_SOCKET_SERVER_H_
