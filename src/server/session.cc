#include "src/server/session.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {
namespace server {

namespace {

// Fallback `metrics` render over the engine's registry alone — the --serve
// shape. The socket server injects producers that merge its own reactor and
// queue metrics into the same render.
obs::MetricsRenderInput EngineRenderInput(SatEngine* engine) {
  obs::MetricsRenderInput in;
  in.registries = {&engine->metrics()};
  in.routes = &engine->routes();
  in.uptime_ms = engine->uptime_ms();
  in.snapshot_seq = engine->NextSnapshotSeq();
  return in;
}

}  // namespace

// Result callbacks run on engine threads and may outlive the session object
// by a few instructions (the callback's notify after its erase); everything
// they touch lives here, behind a shared_ptr they hold.
struct ServerSession::Shared {
  LineSink sink;
  util::Mutex mu;
  util::CondVar cv;
  // Engine ticket id -> ticket, while the result line is still owed. This
  // is the cancellation surface: `cancel ID` resolves against this table.
  std::map<uint64_t, SatTicket> inflight GUARDED_BY(mu);
  // Batch seq -> member results still owed. The callback that decrements a
  // count to zero emits the `ok batch SEQ done` barrier — before erasing
  // its own inflight entry, so Drain() cannot return with a done line still
  // unsent.
  std::map<uint64_t, uint64_t> batch_outstanding GUARDED_BY(mu);
};

ServerSession::ServerSession(SatEngine* engine, SessionOptions options,
                             LineSink sink)
    : engine_(engine),
      options_(std::move(options)),
      shared_(std::make_shared<Shared>()),
      authed_(options_.auth_secret.empty()) {
  shared_->sink = std::move(sink);
  // Unset, `stats` and `health` serve the engine alone (the --serve shape).
  if (!options_.stats_json) {
    options_.stats_json = [engine] {
      return protocol::FormatStatsJson(engine->stats());
    };
  }
}

ServerSession::~ServerSession() { Drain(); }

void ServerSession::EmitError(const std::string& code,
                              const std::string& detail) {
  shared_->sink(protocol::FormatErr(code, detail));
}

void ServerSession::Drain() {
  util::MutexLock lock(shared_->mu);
  while (!shared_->inflight.empty()) shared_->cv.Wait(shared_->mu);
}

bool ServerSession::HandleLine(const std::string& line) {
  return HandleWire(line, /*binary_frame=*/false, /*decode_ns=*/0);
}

bool ServerSession::HandleWire(const std::string& payload, bool binary_frame,
                               uint64_t decode_ns) {
  if (closed_) return false;
  if (binary_frame && !binary_granted_) {
    // A frame before (or without) `hello binary` is a framing violation;
    // close rather than guess where the peer's stream state is.
    EmitError("bad-frame",
              "binary framing not negotiated; send `hello binary` first");
    closed_ = true;
    return false;
  }
  current_decode_ns_ = decode_ns;
  protocol::ParseResult parsed = protocol::ParseCommandLine(payload);
  if (batch_ != nullptr) {
    // Mid-batch, every payload is a member (validated, buffered, never
    // dispatched yet) until all `expected` have been consumed.
    CollectBatchMember(parsed, decode_ns);
    return !closed_;
  }
  switch (parsed.status) {
    case protocol::ParseStatus::kEmpty:
      return true;
    case protocol::ParseStatus::kError:
      shared_->sink(parsed.error_line);
      // An unauthenticated peer gets exactly one malformed line before the
      // session ends — no protocol probing without the secret.
      if (!authed_) closed_ = true;
      return !closed_;
    case protocol::ParseStatus::kCommand:
      HandleCommand(parsed.command);
      return !closed_;
  }
  return true;
}

void ServerSession::OnInputClosed() {
  if (batch_ == nullptr) return;
  EmitError("batch-mismatch",
            "batch " + std::to_string(batch_->seq) + ": input ended after " +
                std::to_string(batch_->received) + " of " +
                std::to_string(batch_->expected) +
                " members; nothing was submitted");
  batch_.reset();
}

void ServerSession::CollectBatchMember(const protocol::ParseResult& parsed,
                                       uint64_t decode_ns) {
  using protocol::ParseStatus;
  using protocol::Verb;
  switch (parsed.status) {
    case ParseStatus::kEmpty:
      // Blank lines and comments are "nothing" everywhere in the protocol;
      // they do not count toward N inside a batch either.
      return;
    case ParseStatus::kError:
      if (!batch_->poisoned) {
        batch_->poisoned = true;
        batch_->error = "member " + std::to_string(batch_->received + 1) +
                        " is malformed (" + parsed.error_line + ")";
      }
      break;
    case ParseStatus::kCommand:
      if (parsed.command.verb != Verb::kQuery) {
        if (!batch_->poisoned) {
          batch_->poisoned = true;
          batch_->error = "member " + std::to_string(batch_->received + 1) +
                          " is '" + protocol::VerbName(parsed.command.verb) +
                          "'; only query/q may appear in a batch";
        }
      } else if (!batch_->poisoned) {
        batch_->members.push_back(parsed.command);
        batch_->member_decode_ns.push_back(decode_ns);
      }
      break;
  }
  ++batch_->received;
  if (batch_->received == batch_->expected) DispatchBatch();
}

void ServerSession::DispatchBatch() {
  std::unique_ptr<PendingBatch> batch = std::move(batch_);
  const std::string seq_text = std::to_string(batch->seq);
  if (!batch->poisoned) {
    // Validate every member's schema before submitting ANY member: a batch
    // either dispatches whole or not at all.
    for (size_t i = 0; i < batch->members.size(); ++i) {
      if (schemas_.find(batch->members[i].name) == schemas_.end()) {
        batch->poisoned = true;
        batch->error = "member " + std::to_string(i + 1) +
                       ": unknown dtd '" + batch->members[i].name + "'";
        break;
      }
    }
  }
  if (batch->poisoned) {
    EmitError("batch-mismatch", "batch " + seq_text + ": " + batch->error +
                                    "; batch discarded, nothing was "
                                    "submitted");
    return;
  }
  const size_t n = batch->members.size();
  {
    // One cap-wait up front for the whole batch (kBatch rejected any N over
    // the cap). Waiting here is safe: earlier submissions' completion
    // callbacks are already attached and will free slots. Between the wait
    // and the last Submit there is no further blocking, so the
    // attach-callbacks-after-ack step below cannot deadlock.
    const size_t cap = options_.max_inflight < 1 ? 1 : options_.max_inflight;
    util::MutexLock lock(shared_->mu);
    while (shared_->inflight.size() + n > cap) {
      shared_->cv.Wait(shared_->mu);
    }
  }
  std::vector<SatTicket> tickets;
  std::vector<uint64_t> ids;
  tickets.reserve(n);
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const protocol::Command& member = batch->members[i];
    SatRequest request;
    request.query = member.arg;
    request.dtd = schemas_.find(member.name)->second;
    request.deadline_ms = options_.deadline_ms;
    // Service traffic wants verdicts, not witness trees.
    request.options.compute_witness = false;
    request.wire_decode_ns = batch->member_decode_ns[i];
    tickets.push_back(engine_->Submit(std::move(request)));
    ids.push_back(tickets.back().id());
    ++queries_submitted_;
  }
  {
    util::MutexLock lock(shared_->mu);
    for (size_t i = 0; i < n; ++i) {
      shared_->inflight.emplace(ids[i], tickets[i]);
    }
    shared_->batch_outstanding.emplace(batch->seq, n);
  }
  // Ack (with every id) strictly before any result line: callbacks are
  // attached only after the ack is out. A ticket that already completed
  // runs its callback inline right here — still after the ack.
  shared_->sink(protocol::FormatBatchAck(batch->seq, ids));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = ids[i];
    tickets[i].OnComplete([shared = shared_, id, seq = batch->seq,
                           query = batch->members[i].arg](
                              const SatResponse& response) {
      shared->sink(protocol::FormatResultLine(id, query, response));
      bool batch_done = false;
      {
        util::MutexLock lock(shared->mu);
        auto it = shared->batch_outstanding.find(seq);
        if (it != shared->batch_outstanding.end() && --it->second == 0) {
          shared->batch_outstanding.erase(it);
          batch_done = true;
        }
      }
      // The done barrier goes out before this (final) member's inflight
      // erase: every member that decremented earlier already emitted its
      // result line, and Drain() keeps the session alive until the erase
      // below — so `ok batch SEQ done` always follows the last result and
      // always precedes teardown.
      if (batch_done) shared->sink(protocol::FormatBatchDone(seq));
      {
        util::MutexLock lock(shared->mu);
        shared->inflight.erase(id);
      }
      shared->cv.NotifyAll();
    });
  }
}

void ServerSession::HandleCommand(const protocol::Command& command) {
  using protocol::Verb;
  // Auth gate: before the secret is presented, only `auth` and `health`
  // exist. Everything else answers a structured error and ends the session
  // (one strike — an unauthenticated peer cannot keep probing verbs).
  if (!authed_ && command.verb != Verb::kAuth &&
      command.verb != Verb::kHealth) {
    EmitError("auth-required",
              std::string(protocol::VerbName(command.verb)) +
                  " before auth; send `auth SECRET` first");
    closed_ = true;
    return;
  }
  switch (command.verb) {
    case Verb::kAuth:
      // With no secret configured, auth is an idempotent no-op so clients
      // may send it unconditionally. A wrong secret always closes the
      // session — even one that already authenticated.
      if (!options_.auth_secret.empty() &&
          command.arg != options_.auth_secret) {
        EmitError("bad-auth", "secret mismatch");
        closed_ = true;
        return;
      }
      authed_ = true;
      shared_->sink("ok auth");
      return;
    case Verb::kHealth:
      // Deliberately unauthenticated: load balancers and liveness probes
      // hit this without the secret. But pre-auth, when a secret is
      // configured, the payload is a minimal liveness object — the full
      // merged stats would hand cache/memo/store counters to any
      // unauthenticated peer.
      if (!authed_ && !options_.auth_secret.empty()) {
        shared_->sink("health {\"status\": \"ok\", \"uptime_ms\": " +
                      std::to_string(engine_->uptime_ms()) + "}");
        return;
      }
      shared_->sink("health " + options_.stats_json());
      return;
    case Verb::kHello: {
      // Grant exactly what this transport supports, echoing in request
      // order; a feature missing from the reply was declined. Repeat hellos
      // are fine (grants are sticky once given).
      std::string granted;
      std::string rest = command.arg;
      size_t pos = 0;
      while (pos < rest.size()) {
        size_t space = rest.find(' ', pos);
        if (space == std::string::npos) space = rest.size();
        const std::string feature = rest.substr(pos, space - pos);
        pos = space + 1;
        if (feature == "batch") {
          batch_granted_ = true;
        } else if (feature == "binary") {
          if (!options_.binary_frames_supported) continue;
          binary_granted_ = true;
        }
        if (!granted.empty()) granted += ' ';
        granted += feature;
      }
      shared_->sink(protocol::FormatHelloAck(granted));
      return;
    }
    case Verb::kBatch: {
      if (!batch_granted_) {
        EmitError("batch-mismatch",
                  "batch framing not negotiated; send `hello batch` first");
        return;
      }
      const size_t cap = options_.max_inflight < 1 ? 1 : options_.max_inflight;
      if (command.batch_count > cap) {
        // A batch larger than the in-flight cap could never dispatch whole
        // without blocking between submits; refuse it up front.
        EmitError("batch-mismatch",
                  "batch " + std::to_string(command.batch_count) +
                      " exceeds this session's in-flight cap (" +
                      std::to_string(cap) + ")");
        return;
      }
      batch_.reset(new PendingBatch);
      batch_->seq = next_batch_seq_++;
      batch_->expected = command.batch_count;
      // No ack yet: the ack carries the member ticket ids, so it can only
      // go out after all members arrived, validated, and were submitted.
      return;
    }
    case Verb::kDtd: {
      std::ifstream in(command.arg);
      if (!in) {
        EmitError("io", "dtd " + command.name + ": cannot open " +
                            command.arg);
        return;
      }
      std::ostringstream text;
      text << in.rdbuf();
      Result<DtdHandle> handle = engine_->RegisterDtdText(text.str());
      if (!handle.ok()) {
        EmitError("dtd-parse", command.name + ": " + handle.error());
        return;
      }
      // Re-registering a name swaps the handle; in-flight requests keep
      // their own pins on the old artifacts.
      schemas_[command.name] = std::move(handle).value();
      shared_->sink(protocol::FormatDtdAck(
          command.name, schemas_[command.name].fingerprint()));
      return;
    }
    case Verb::kQuery: {
      auto it = schemas_.find(command.name);
      if (it == schemas_.end()) {
        EmitError("unknown-dtd", "'" + command.name + "'");
        return;
      }
      {
        // Bound this session's outstanding work: block (back-pressuring
        // the connection) until a completion frees a slot. Every ticket
        // resolves — computed, cancelled, or expired — so this always
        // makes progress.
        const size_t cap =
            options_.max_inflight < 1 ? 1 : options_.max_inflight;
        util::MutexLock lock(shared_->mu);
        while (shared_->inflight.size() >= cap) {
          shared_->cv.Wait(shared_->mu);
        }
      }
      SatRequest request;
      request.query = command.arg;
      request.dtd = it->second;
      request.deadline_ms = options_.deadline_ms;
      // Service traffic wants verdicts, not witness trees.
      request.options.compute_witness = false;
      request.wire_decode_ns = current_decode_ns_;
      SatTicket ticket = engine_->Submit(std::move(request));
      const uint64_t id = ticket.id();
      ++queries_submitted_;
      {
        util::MutexLock lock(shared_->mu);
        shared_->inflight.emplace(id, ticket);
      }
      // Ack first so the client learns the cancellable id before (never
      // after) the result line can possibly arrive.
      shared_->sink(protocol::FormatQueryAck(id));
      ticket.OnComplete([shared = shared_, id,
                         query = command.arg](const SatResponse& response) {
        shared->sink(protocol::FormatResultLine(id, query, response));
        {
          util::MutexLock lock(shared->mu);
          shared->inflight.erase(id);
        }
        shared->cv.NotifyAll();
      });
      return;
    }
    case Verb::kDrop:
      if (schemas_.erase(command.name) > 0) {
        shared_->sink("ok drop " + command.name);
      } else {
        EmitError("unknown-dtd", "'" + command.name + "'");
      }
      return;
    case Verb::kCancel: {
      SatTicket ticket;
      {
        util::MutexLock lock(shared_->mu);
        auto it = shared_->inflight.find(command.ticket_id);
        if (it != shared_->inflight.end()) ticket = it->second;
      }
      if (!ticket.valid()) {
        EmitError("unknown-ticket",
                  std::to_string(command.ticket_id) +
                      " (never acked here, or already completed)");
        return;
      }
      if (engine_->TryCancel(ticket)) {
        // The cancelled ticket still resolves: its result line (algorithm
        // "cancelled") was emitted by the completion callback just now.
        shared_->sink("ok cancel " + std::to_string(command.ticket_id));
      } else {
        EmitError("not-cancellable",
                  std::to_string(command.ticket_id) +
                      " already started or finished");
      }
      return;
    }
    case Verb::kFlush:
      Drain();
      shared_->sink("ok flush");
      return;
    case Verb::kStats:
      shared_->sink("stats " + options_.stats_json());
      return;
    case Verb::kMetrics: {
      if (command.arg == "prom") {
        // The exposition is inherently multi-line; the sink contract is one
        // line per call, so split here. The producer guarantees a trailing
        // "# EOF" line, which is the client's end-of-reply marker.
        const std::string text =
            options_.metrics_prom
                ? options_.metrics_prom()
                : obs::RenderMetricsProm(EngineRenderInput(engine_));
        // Every line is forwarded, including blank ones: the wire
        // exposition must match the producer's rendering byte-for-byte
        // (modulo line framing), or scrapers see different content through
        // the socket than through --serve.
        size_t start = 0;
        while (start < text.size()) {
          size_t nl = text.find('\n', start);
          if (nl == std::string::npos) nl = text.size();
          shared_->sink(text.substr(start, nl - start));
          start = nl + 1;
        }
      } else {
        shared_->sink("metrics " +
                      (options_.metrics_json
                           ? options_.metrics_json()
                           : obs::RenderMetricsJson(
                                 EngineRenderInput(engine_))));
      }
      return;
    }
    case Verb::kSlow:
      // Draining is destructive and engine-global (the log is shared across
      // sessions, like the stats): whichever operator session asks first
      // gets the records.
      shared_->sink("slow " + obs::RenderSlowJson(engine_->DrainSlowLog()));
      return;
    case Verb::kSave: {
      // Drain first so verdicts this session already submitted are in the
      // memo before the walk (other sessions' in-flight work is captured
      // best-effort — the caches are engine-global).
      Drain();
      SnapshotSaveResult saved = engine_->SaveSnapshot(command.arg);
      if (!saved.status.ok()) {
        EmitError("io", "save: " + saved.status.message());
        return;
      }
      shared_->sink("ok save dtds=" + std::to_string(saved.dtds_saved) +
                    " memos=" + std::to_string(saved.memos_saved));
      return;
    }
    case Verb::kLoad: {
      SnapshotLoadResult loaded = engine_->LoadSnapshot(command.arg);
      if (!loaded.status.ok()) {
        switch (loaded.error_kind) {
          case SnapshotLoadResult::ErrorKind::kVersion:
            EmitError("store-version", "load: " + loaded.status.message());
            return;
          case SnapshotLoadResult::ErrorKind::kCorrupt:
            EmitError("store-corrupt", "load: " + loaded.status.message());
            return;
          default:
            EmitError("io", "load: " + loaded.status.message());
            return;
        }
      }
      shared_->sink(
          "ok load dtds=" + std::to_string(loaded.dtds_loaded) +
          " memos=" + std::to_string(loaded.memos_loaded) + " skipped=" +
          std::to_string(loaded.corrupt_records + loaded.rejected_records));
      return;
    }
    case Verb::kQuit:
      Drain();
      shared_->sink("ok quit");
      closed_ = true;
      return;
  }
}

}  // namespace server
}  // namespace xpathsat
