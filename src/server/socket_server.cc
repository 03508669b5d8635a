#include "src/server/socket_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <sstream>
#include <utility>

namespace xpathsat {
namespace server {

namespace {

// Cap on how long one reply write may block an engine completion thread
// behind a client that stopped reading. After one expiry the connection is
// latched dead and every further write is skipped, so a stuck client costs
// the engine at most this once.
constexpr int kSendTimeoutSeconds = 10;

// Backpressure: the reactor stops reading a connection whose decoded-but-
// unserviced lines exceed either bound, and resumes when a worker drains
// them — the kernel socket buffer then fills and the client's sends stall,
// exactly like the old blocking reader, but without a thread per connection.
constexpr size_t kPauseAfterPendingLines = 1024;
constexpr size_t kPauseAfterPendingBytes = 1 << 20;

// Per-readiness-event read budget, so one firehose connection cannot starve
// the rest of the event loop (level-triggered: the remainder re-reports).
constexpr size_t kReadBudgetBytes = 256 * 1024;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SocketServer::SocketServer(SatEngine* engine, SocketServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  connections_accepted_ = metrics_.counter("connections_accepted");
  connections_active_ = metrics_.gauge("connections_active");
  connections_rejected_ = metrics_.counter("connections_rejected");
  connections_throttled_ = metrics_.counter("connections_throttled");
  idle_evictions_ = metrics_.counter("idle_evictions");
  queue_depth_ = metrics_.gauge("worker_queue_depth");
  queue_wait_hist_ = metrics_.histogram("worker_queue_wait_ns");
  reactor_busy_hist_ = metrics_.histogram("reactor_loop_busy_ns");
}

SocketServer::~SocketServer() { Stop(); }

std::string SocketServer::HealthJson() const {
  std::ostringstream out;
  out << "{\"status\": \"ok\""
      << ", \"connections_active\": " << connections_active()
      << ", \"connections_accepted\": " << connections_accepted()
      << ", \"connections_rejected\": " << connections_rejected()
      << ", \"connections_throttled\": " << connections_throttled()
      << ", \"idle_evictions\": " << idle_evictions()
      << ", \"engine\": "
      << protocol::FormatStatsJson(engine_->stats()) << "}";
  return out.str();
}

obs::MetricsRenderInput SocketServer::BuildRenderInput() {
  obs::MetricsRenderInput in;
  in.registries = {&engine_->metrics(), &metrics_};
  in.routes = &engine_->routes();
  in.uptime_ms = engine_->uptime_ms();
  in.snapshot_seq = engine_->NextSnapshotSeq();
  return in;
}

std::string SocketServer::MetricsJson() {
  return obs::RenderMetricsJson(BuildRenderInput());
}

std::string SocketServer::MetricsProm() {
  return obs::RenderMetricsProm(BuildRenderInput());
}

Status SocketServer::Start() {
  if (started_.exchange(true)) return Status::Error("already started");
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::Error("no listener configured (unix path or tcp port)");
  }
  // A failed Start must leave nothing behind: close any listener already
  // opened AND remove the unix socket file it created — the file would
  // otherwise shadow the path until some later server unlinked it.
  auto fail = [this](const std::string& error) {
    listeners_.clear();
    if (unix_bound_) {
      ::unlink(options_.unix_path.c_str());
      unix_bound_ = false;
    }
    return Status::Error(error);
  };
  if (!options_.unix_path.empty()) {
    Result<net::ScopedFd> fd = net::ListenUnix(options_.unix_path);
    if (!fd.ok()) return fail(fd.error());
    Listener l;
    l.fd = std::move(fd).value();
    l.is_tcp = false;
    listeners_.push_back(std::move(l));
    unix_bound_ = true;
  }
  if (options_.tcp_port >= 0) {
    Result<net::ScopedFd> fd = net::ListenTcp(
        options_.tcp_host, options_.tcp_port, &bound_tcp_port_);
    if (!fd.ok()) return fail(fd.error());
    Listener l;
    l.fd = std::move(fd).value();
    l.is_tcp = true;
    listeners_.push_back(std::move(l));
  }
  // Nonblocking listeners: the reactor drains each readiness event with an
  // accept loop that must end at EAGAIN, not block.
  for (const Listener& l : listeners_) {
    Status s = net::SetNonBlocking(l.fd.get(), true);
    if (!s.ok()) return fail(s.message());
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = net::ScopedFd(pipe_fds[0]);
  wake_write_ = net::ScopedFd(pipe_fds[1]);
  net::SetNonBlocking(wake_read_.get(), true);
  net::SetNonBlocking(wake_write_.get(), true);

  poller_.reset(new net::Poller());
  if (!poller_->ok()) return fail("poller setup failed");
  for (const Listener& l : listeners_) {
    Status s = poller_->Add(l.fd.get());
    if (!s.ok()) return fail(s.message());
  }
  {
    Status s = poller_->Add(wake_read_.get());
    if (!s.ok()) return fail(s.message());
  }

  // Timer wheel: one rotation spans the idle timeout, with enough ticks
  // that eviction lands within ~1/8 of the configured timeout.
  if (options_.idle_timeout_ms > 0) {
    wheel_tick_ms_ =
        std::min<int64_t>(1000, std::max<int64_t>(5, options_.idle_timeout_ms / 8));
    wheel_span_ticks_ = static_cast<size_t>(
        (options_.idle_timeout_ms + wheel_tick_ms_ - 1) / wheel_tick_ms_);
    wheel_.assign(wheel_span_ticks_ + 1, {});
    wheel_cursor_ = 0;
    next_tick_at_ms_ = NowMs() + wheel_tick_ms_;
  }

  // Session workers run HandleLine (parse + submit + acks); the engine's
  // own pool does the deciding.
  session_pool_ = std::make_unique<ThreadPool>(std::min(
      8, std::max(2, static_cast<int>(std::thread::hardware_concurrency()))));
  reactor_thread_ = std::thread([this] { ReactorLoop(); });
  return Status::Ok();
}

void SocketServer::Stop() {
  if (!started_.load()) return;
  // The whole teardown runs under stop_mu_, and `stopped_` latches when it
  // is done. The old gate (`stopping_.exchange(true)`) let a second caller
  // — or any caller after the reactor's poller-failure self-stop had set
  // stopping_ — return immediately while threads were still live, so
  // shutdown-path actions sequenced after Stop() (stats dump,
  // --save-on-exit snapshot) could run against a serving server. Now every
  // caller leaves only once the stop is complete.
  util::MutexLock lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  if (!reactor_thread_.joinable()) {
    // Start failed before spawning threads; its fail() already cleaned up.
    return;
  }
  Wake();
  reactor_thread_.join();
  // The reactor exits only once every connection is retired (sessions
  // drained by the workers), so the pool holds at most stale jobs; its
  // destructor runs them and joins the workers.
  session_pool_.reset();
  listeners_.clear();
  if (unix_bound_) ::unlink(options_.unix_path.c_str());
}

void SocketServer::Wake() {
  if (!wake_write_.valid()) return;
  char byte = 0;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &byte, 1);
}

// --- Reactor --------------------------------------------------------------

void SocketServer::ReactorLoop() {
  std::vector<net::Poller::Ready> ready;
  for (;;) {
    int timeout_ms = -1;
    if (!wheel_.empty()) {
      timeout_ms = static_cast<int>(
          std::max<int64_t>(0, next_tick_at_ms_ - NowMs()));
    }
    Result<int> waited = poller_->Wait(&ready, timeout_ms);
    // Loop lag metric: time spent processing this batch of events (idle
    // Wait time excluded) — the reactor's serving headroom.
    const int64_t busy_start_ns = NowNs();
    if (!waited.ok()) {
      // A broken poller cannot serve; tear everything down as if stopping.
      stopping_.store(true);
    }
    DrainControl();
    for (const net::Poller::Ready& ev : ready) {
      if (ev.fd == wake_read_.get()) {
        char buf[256];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      bool is_listener = false;
      for (const Listener& l : listeners_) {
        if (l.fd.valid() && ev.fd == l.fd.get()) {
          is_listener = true;
          if (!stopping_.load()) AcceptReady(l);
          break;
        }
      }
      if (is_listener) continue;
      auto it = connections_.find(ev.fd);
      if (it != connections_.end()) ReadReady(it->second);
    }
    if (!wheel_.empty()) AdvanceWheel(NowMs());
    reactor_busy_hist_->Record(static_cast<uint64_t>(
        std::max<int64_t>(0, NowNs() - busy_start_ns)));
    if (stopping_.load()) {
      if (!shutdown_begun_) BeginShutdown();
      DrainControl();
      if (connections_.empty()) return;
    }
  }
}

void SocketServer::BeginShutdown() {
  shutdown_begun_ = true;
  // Stop accepting: deregister and close the listeners now so the bound
  // port/path frees immediately; Stop() unlinks the unix file after join.
  for (Listener& l : listeners_) {
    if (!l.fd.valid()) continue;
    poller_->Remove(l.fd.get());
    l.fd.Close();
  }
  // Half-close every live connection: pending lines still get serviced,
  // sessions drain (in-flight results are written back), then workers
  // retire them.
  std::vector<std::shared_ptr<Connection>> live;
  live.reserve(connections_.size());
  for (auto& [fd, conn] : connections_) live.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : live) {
    CloseInput(conn, /*timed_out=*/false);
  }
}

bool SocketServer::ThrottleAllows(const std::string& peer_ip,
                                  int64_t now_ms) {
  const int rate = options_.tcp_accepts_per_ip_per_sec;
  if (rate <= 0 || peer_ip.empty()) return true;
  // Keep the table from growing without bound under address churn: once it
  // is large, drop buckets that have fully refilled (they hold no state a
  // fresh bucket wouldn't).
  if (ip_buckets_.size() > 16384) {
    for (auto it = ip_buckets_.begin(); it != ip_buckets_.end();) {
      double refilled = it->second.tokens +
                        static_cast<double>(now_ms - it->second.last_ms) *
                            rate / 1000.0;
      it = refilled >= rate ? ip_buckets_.erase(it) : std::next(it);
    }
  }
  auto [it, inserted] = ip_buckets_.try_emplace(peer_ip);
  IpBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = static_cast<double>(rate);
    bucket.last_ms = now_ms;
  } else {
    bucket.tokens = std::min<double>(
        rate, bucket.tokens + static_cast<double>(now_ms - bucket.last_ms) *
                                  rate / 1000.0);
    bucket.last_ms = now_ms;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void SocketServer::AcceptReady(const Listener& listener) {
  for (;;) {
    std::string peer_ip;
    bool would_block = false;
    Result<net::ScopedFd> accepted =
        net::AcceptWithPeer(listener.fd.get(), &peer_ip, &would_block);
    if (!accepted.ok()) {
      // EAGAIN: drained. Anything else (EMFILE under fd pressure, a
      // transient network error) also ends this round; level-triggered
      // readiness re-reports if connections are still pending.
      return;
    }
    if (stopping_.load()) return;  // raced with Stop: drop, don't count
    net::ScopedFd fd = std::move(accepted).value();
    const int64_t now = NowMs();
    if (listener.is_tcp && !ThrottleAllows(peer_ip, now)) {
      connections_throttled_->Increment();
      net::WriteAll(fd.get(),
                    protocol::FormatErr(
                        "throttled", "per-ip accept rate exceeded; retry") +
                        "\n");
      continue;  // ~ScopedFd closes
    }
    if (options_.max_connections > 0 &&
        connections_.size() >= options_.max_connections) {
      connections_rejected_->Increment();
      net::WriteAll(fd.get(),
                    protocol::FormatErr(
                        "busy", "max-connections (" +
                                    std::to_string(options_.max_connections) +
                                    ") reached") +
                        "\n");
      continue;
    }
    AdmitConnection(std::move(fd), listener.is_tcp, peer_ip);
  }
}

void SocketServer::AdmitConnection(net::ScopedFd fd, bool is_tcp,
                                   const std::string& peer_ip) {
  auto conn = std::make_shared<Connection>(options_.max_line_bytes);
  const int raw_fd = fd.get();
  conn->fd = std::move(fd);
  conn->is_tcp = is_tcp;
  conn->peer_ip = peer_ip;
  conn->last_activity_ms->store(NowMs(), std::memory_order_relaxed);

  // The sink runs on engine completion threads, so it must never block the
  // shared engine indefinitely behind one slow client: sends carry a
  // timeout, and the first failed/timed-out write latches the connection
  // dead — every later write (including the session drain's result lines)
  // becomes a no-op instead of paying the timeout again. The shutdown also
  // unwedges the reactor side, which then tears the connection down.
  timeval send_timeout;
  send_timeout.tv_sec = kSendTimeoutSeconds;
  send_timeout.tv_usec = 0;
  ::setsockopt(raw_fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));

  SessionOptions session_opt = options_.session;
  session_opt.auth_secret = options_.auth_secret;
  // The reactor's decoder understands length-prefixed frames, so sessions
  // over this transport may grant `hello binary`.
  session_opt.binary_frames_supported = true;
  conn->decoder.set_allow_binary(true);
  session_opt.stats_json = [this] { return HealthJson(); };
  session_opt.metrics_json = [this] { return MetricsJson(); };
  session_opt.metrics_prom = [this] { return MetricsProm(); };
  conn->session.reset(new ServerSession(
      engine_, std::move(session_opt),
      [raw_fd, write_state = conn->write_state,
       activity = conn->last_activity_ms](const std::string& line) {
        util::MutexLock lock(write_state->mu);
        if (write_state->dead) return;
        if (net::WriteAll(raw_fd, line + "\n").ok()) {
          activity->store(NowMs(), std::memory_order_relaxed);
        } else {
          write_state->dead = true;
          ::shutdown(raw_fd, SHUT_RDWR);  // surface EOF to the reactor
        }
      }));

  Status added = poller_->Add(raw_fd);
  if (!added.ok()) {
    // Cannot watch it (poller table pressure): refuse service rather than
    // admit a connection that would never be read.
    connections_rejected_->Increment();
    conn->session.reset();
    return;
  }
  conn->in_poller = true;
  connections_accepted_->Increment();
  connections_active_->Add(1);
  connections_[raw_fd] = conn;
  if (!wheel_.empty()) WheelInsert(conn.get(), options_.idle_timeout_ms);
}

void SocketServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  {
    util::MutexLock lock(conn->work_mu);
    if (conn->input_closed) {
      // A worker already closed this connection (quit/bad-auth) but its
      // retire control has not reached us yet: stop watching, skip reading.
      if (conn->in_poller) {
        poller_->Remove(conn->fd.get());
        conn->in_poller = false;
      }
      WheelRemove(conn.get());
      return;
    }
  }

  const int fd = conn->fd.get();
  bool saw_eof = false;
  bool saw_error = false;
  bool got_bytes = false;
  size_t budget = kReadBudgetBytes;
  char chunk[16384];
  while (budget > 0) {
    const size_t want = std::min(budget, sizeof(chunk));
    ssize_t n = ::recv(fd, chunk, want, MSG_DONTWAIT);
    if (n > 0) {
      conn->decoder.Feed(chunk, static_cast<size_t>(n));
      budget -= static_cast<size_t>(n);
      got_bytes = true;
      if (static_cast<size_t>(n) < want) break;  // kernel buffer drained
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    saw_error = true;
    break;
  }
  if (saw_eof || saw_error) conn->decoder.SignalEof();

  const int64_t now = NowMs();
  if (got_bytes) {
    conn->last_activity_ms->store(now, std::memory_order_relaxed);
    if (!wheel_.empty() && conn->wheel_bucket != SIZE_MAX) {
      WheelRemove(conn.get());
      WheelInsert(conn.get(), options_.idle_timeout_ms);
    }
  }

  // Decode and hand off. The decoder owns oversized-line policy; here every
  // event just becomes a pending entry so workers emit protocol replies in
  // input order.
  bool should_pause = false;
  {
    util::MutexLock lock(conn->work_mu);
    std::string line;
    for (;;) {
      // Per-payload framing cost, measured around the decode step alone and
      // carried with the payload into the request trace's wire-decode span.
      const int64_t decode_start = NowNs();
      net::LineDecoder::Event ev = conn->decoder.Next(&line);
      const uint64_t decode_ns =
          static_cast<uint64_t>(NowNs() - decode_start);
      if (ev == net::LineDecoder::Event::kLine ||
          ev == net::LineDecoder::Event::kOversized ||
          ev == net::LineDecoder::Event::kFrame) {
        Connection::PendingLine entry;
        entry.text = std::move(line);
        entry.oversized = ev == net::LineDecoder::Event::kOversized;
        entry.binary = ev == net::LineDecoder::Event::kFrame;
        entry.decode_ns = decode_ns;
        conn->pending_bytes += entry.text.size();
        conn->pending.push_back(std::move(entry));
        line.clear();
        continue;
      }
      if (ev == net::LineDecoder::Event::kBadFrame) {
        // Unresyncable: hand the worker one final bad-frame entry (it
        // answers `err bad-frame`), stop reading this connection for good.
        Connection::PendingLine entry;
        entry.text = std::move(line);
        entry.bad_frame = true;
        conn->pending.push_back(std::move(entry));
        line.clear();
        saw_error = true;
        conn->decoder.SignalEof();
        break;
      }
      break;  // kNone (need more input) or kEof (handled below)
    }
    if (saw_eof || saw_error) {
      conn->input_closed = true;
    } else if (conn->pending.size() > kPauseAfterPendingLines ||
               conn->pending_bytes > kPauseAfterPendingBytes) {
      should_pause = true;
      conn->paused = true;
    }
    if (!conn->pending.empty() || conn->input_closed) ScheduleLocked(conn);
  }

  if (saw_eof || saw_error) {
    if (conn->in_poller) {
      poller_->Remove(fd);
      conn->in_poller = false;
    }
    WheelRemove(conn.get());
  } else if (should_pause && conn->in_poller) {
    poller_->Remove(fd);
    conn->in_poller = false;
  }
}

// Enqueues a worker token for `conn` if none is outstanding. Caller holds
// conn->work_mu.
void SocketServer::ScheduleLocked(const std::shared_ptr<Connection>& conn) {
  if (conn->scheduled || conn->torn_down) return;
  conn->scheduled = true;
  Enqueue(conn);
}

// Hands `conn`'s token to a session worker; the job stamps the queue wait.
void SocketServer::Enqueue(const std::shared_ptr<Connection>& conn) {
  queue_depth_->Add(1);
  session_pool_->Submit([this, conn, enqueued_ns = NowNs()] {
    queue_depth_->Add(-1);
    queue_wait_hist_->Record(
        static_cast<uint64_t>(std::max<int64_t>(0, NowNs() - enqueued_ns)));
    ProcessConnection(conn);
  });
}

void SocketServer::CloseInput(const std::shared_ptr<Connection>& conn,
                              bool timed_out) {
  if (conn->in_poller) {
    poller_->Remove(conn->fd.get());
    conn->in_poller = false;
  }
  WheelRemove(conn.get());
  util::MutexLock lock(conn->work_mu);
  if (conn->input_closed) return;
  conn->input_closed = true;
  conn->timed_out = timed_out;
  ScheduleLocked(conn);
}

void SocketServer::DrainControl() {
  std::vector<std::shared_ptr<Connection>> retired;
  std::vector<std::shared_ptr<Connection>> resumable;
  {
    util::MutexLock lock(ctrl_mu_);
    retired.swap(ctrl_retired_);
    resumable.swap(ctrl_resumable_);
  }
  for (const std::shared_ptr<Connection>& conn : resumable) {
    util::MutexLock lock(conn->work_mu);
    if (!conn->paused || conn->input_closed || conn->torn_down) continue;
    conn->paused = false;
    if (!conn->in_poller && poller_->Add(conn->fd.get()).ok()) {
      conn->in_poller = true;
    }
  }
  for (const std::shared_ptr<Connection>& conn : retired) {
    if (conn->in_poller) {
      poller_->Remove(conn->fd.get());
      conn->in_poller = false;
    }
    WheelRemove(conn.get());
    connections_.erase(conn->fd.get());
  }
}

// --- Timer wheel ----------------------------------------------------------

void SocketServer::WheelInsert(Connection* conn, int64_t expire_in_ms) {
  size_t ticks = static_cast<size_t>(
      std::max<int64_t>(1, (expire_in_ms + wheel_tick_ms_ - 1) / wheel_tick_ms_));
  if (ticks > wheel_span_ticks_) ticks = wheel_span_ticks_;
  const size_t bucket = (wheel_cursor_ + ticks) % wheel_.size();
  wheel_[bucket].push_front(conn);
  conn->wheel_bucket = bucket;
  conn->wheel_pos = wheel_[bucket].begin();
}

void SocketServer::WheelRemove(Connection* conn) {
  if (conn->wheel_bucket == SIZE_MAX) return;
  wheel_[conn->wheel_bucket].erase(conn->wheel_pos);
  conn->wheel_bucket = SIZE_MAX;
}

void SocketServer::AdvanceWheel(int64_t now_ms) {
  while (now_ms >= next_tick_at_ms_) {
    next_tick_at_ms_ += wheel_tick_ms_;
    wheel_cursor_ = (wheel_cursor_ + 1) % wheel_.size();
    // Entries here were armed one full rotation ago; recent result-write
    // activity (stamped by completion threads, invisible to the wheel until
    // now) re-arms instead of evicting.
    std::vector<Connection*> due(wheel_[wheel_cursor_].begin(),
                                 wheel_[wheel_cursor_].end());
    for (Connection* conn : due) {
      const int64_t idle =
          now_ms - conn->last_activity_ms->load(std::memory_order_relaxed);
      if (idle < options_.idle_timeout_ms) {
        WheelRemove(conn);
        WheelInsert(conn, options_.idle_timeout_ms - idle);
        continue;
      }
      auto it = connections_.find(conn->fd.get());
      if (it == connections_.end()) continue;
      idle_evictions_->Increment();
      CloseInput(it->second, /*timed_out=*/true);
    }
  }
}

// --- Workers --------------------------------------------------------------

void SocketServer::ProcessConnection(const std::shared_ptr<Connection>& conn) {
  std::deque<Connection::PendingLine> batch;
  bool input_closed;
  bool timed_out;
  {
    util::MutexLock lock(conn->work_mu);
    if (conn->torn_down) {  // stale token
      conn->scheduled = false;
      return;
    }
    batch.swap(conn->pending);
    conn->pending_bytes = 0;
    input_closed = conn->input_closed;
    timed_out = conn->timed_out;
  }

  bool open = true;
  for (const Connection::PendingLine& line : batch) {
    if (line.oversized) {
      conn->session->EmitError(
          "oversized-line",
          "line exceeds " + std::to_string(options_.max_line_bytes) +
              " bytes; discarded");
    } else if (line.bad_frame) {
      // The reactor already stopped reading (binary framing cannot resync);
      // answer the structured error and fall through to teardown via the
      // input_closed it latched.
      conn->session->EmitError("bad-frame", line.text + "; closing");
      open = false;
      break;
    } else {
      open = conn->session->HandleWire(line.text, line.binary,
                                       line.decode_ns);
      if (!open) break;  // quit / bad-auth: drop any lines queued behind it
    }
  }

  bool do_teardown = false;
  bool signal_resume = false;
  {
    util::MutexLock lock(conn->work_mu);
    if (!open) conn->input_closed = true;
    // Re-read under the lock, never trust the pre-batch copy: while this
    // batch ran, ReadReady (peer EOF) or CloseInput (shutdown, idle
    // eviction) may have closed the input — and their ScheduleLocked was
    // suppressed by this worker's outstanding token, so the close is
    // observable only HERE. Acting on the stale copy leaked the connection
    // (no one ever retires it) and wedged Stop(), which joins a reactor
    // waiting for exactly that retirement.
    input_closed = conn->input_closed;
    if (input_closed && conn->pending.empty()) {
      do_teardown = true;
      timed_out = timed_out || conn->timed_out;
      // scheduled stays true: nothing may re-enqueue mid-teardown.
    } else if (!conn->pending.empty()) {
      // More lines arrived while this batch ran: keep the token.
      Enqueue(conn);
      return;
    } else {
      conn->scheduled = false;
      signal_resume = conn->paused;
    }
  }
  if (do_teardown) {
    TearDown(conn, timed_out);
    return;
  }
  if (signal_resume) {
    {
      util::MutexLock lock(ctrl_mu_);
      ctrl_resumable_.push_back(conn);
    }
    Wake();
  }
}

void SocketServer::TearDown(const std::shared_ptr<Connection>& conn,
                            bool timed_out) {
  // A batch still collecting members when input ends must answer its
  // batch-mismatch error before the drain below.
  conn->session->OnInputClosed();
  if (timed_out) {
    conn->session->EmitError(
        "idle-timeout", "no traffic for " +
                            std::to_string(options_.idle_timeout_ms) +
                            "ms; closing");
  }
  // ~ServerSession drains: every in-flight result line is written before
  // the socket shuts down, so the peer sees complete output, then EOF.
  conn->session.reset();
  ::shutdown(conn->fd.get(), SHUT_RDWR);
  {
    util::MutexLock lock(conn->work_mu);
    conn->torn_down = true;
    conn->scheduled = false;
  }
  connections_active_->Add(-1);
  {
    util::MutexLock lock(ctrl_mu_);
    ctrl_retired_.push_back(conn);
  }
  Wake();
}

}  // namespace server
}  // namespace xpathsat
