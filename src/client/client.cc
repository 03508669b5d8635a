#include "src/client/client.h"

#include <sys/socket.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

namespace xpathsat {
namespace client {

// Kept in lockstep with the server by the `client-sync` linter rule: every
// verb in protocol.cc's VerbName table and every err slug emitted under
// src/server/ must appear here, so a protocol addition that forgets the
// client fails CI instead of failing a customer.
const char* const kKnownVerbs[] = {
    "auth", "health", "hello", "dtd",  "query",   "batch", "drop", "cancel",
    "flush", "stats", "metrics", "slow", "save", "load", "quit",
};
const size_t kKnownVerbCount = sizeof(kKnownVerbs) / sizeof(kKnownVerbs[0]);

const char* const kKnownErrSlugs[] = {
    "unknown-verb",    "bad-args",       "oversized-line", "unknown-dtd",
    "unknown-ticket",  "not-cancellable", "dtd-parse",     "io",
    "auth-required",   "bad-auth",       "busy",           "throttled",
    "idle-timeout",    "store-corrupt",  "store-version",  "batch-mismatch",
    "bad-frame",
};
const size_t kKnownErrSlugCount =
    sizeof(kKnownErrSlugs) / sizeof(kKnownErrSlugs[0]);

namespace {

Result<net::ScopedFd> Dial(const std::string& target) {
  if (target.rfind("unix:", 0) == 0) {
    return net::ConnectUnix(target.substr(5));
  }
  size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    return Result<net::ScopedFd>::Error("bad target '" + target +
                                        "' (expected unix:PATH or HOST:PORT)");
  }
  errno = 0;
  char* end = nullptr;
  long port = std::strtol(target.c_str() + colon + 1, &end, 10);
  if (errno != 0 || *end != '\0' || end == target.c_str() + colon + 1 ||
      port < 1 || port > 65535) {
    return Result<net::ScopedFd>::Error("bad port in '" + target + "'");
  }
  std::string host = target.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  return net::ConnectTcp(host, static_cast<int>(port));
}

/// Parses the leading decimal of a result line ("ID [verdict] ..."); 0 when
/// the line does not start with digits.
uint64_t LeadingTicketId(const std::string& line) {
  if (line.empty() || !std::isdigit(static_cast<unsigned char>(line[0]))) {
    return 0;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long id = std::strtoull(line.c_str(), &end, 10);
  if (errno != 0 || end == line.c_str() || (*end != ' ' && *end != '\0')) {
    return 0;
  }
  return id;
}

/// "[sat    ]" -> "sat" (first bracketed token of a result line).
std::string ResultVerdict(const std::string& line) {
  size_t open = line.find('[');
  if (open == std::string::npos) return std::string();
  size_t close = line.find(']', open);
  if (close == std::string::npos) return std::string();
  std::string verdict = line.substr(open + 1, close - open - 1);
  while (!verdict.empty() && verdict.back() == ' ') verdict.pop_back();
  return verdict;
}

/// For "ok batch SEQ ids ..." / "ok batch SEQ done": parses SEQ and points
/// `*rest` past it (at " ids ..." / " done"). Returns 0 on shape mismatch
/// (seqs start at 1).
uint64_t ParseBatchSeq(const std::string& line, size_t* rest) {
  static const char kPrefix[] = "ok batch ";
  if (line.rfind(kPrefix, 0) != 0) return 0;
  errno = 0;
  char* end = nullptr;
  const char* seq_start = line.c_str() + sizeof(kPrefix) - 1;
  unsigned long long seq = std::strtoull(seq_start, &end, 10);
  if (errno != 0 || end == seq_start || seq == 0) return 0;
  *rest = static_cast<size_t>(end - line.c_str());
  return seq;
}

}  // namespace

/// One awaited control reply. All fields are accessed under the owning
/// client's mu_ (the struct has no mutex of its own so waiters and the
/// reader share the client's lock/condvar).
struct Client::Expectation {
  enum class Kind {
    kLine,      // one reply line
    kPromBlock, // lines through the "# EOF" marker, newline-joined
    kQueryAck,  // "ok query ID": installs query_cb under the id
    kBatchAck,  // "ok batch SEQ ids ...": installs member cbs + barrier
  };
  explicit Expectation(Kind k) : kind(k) {}

  const Kind kind;
  bool done = false;
  Status status;      // transport failure, when not ok
  std::string reply;  // the reply line(s), verbatim

  // kQueryAck / kBatchAck payload, moved out by the reader on the ack.
  QueryCallback query_cb;
  size_t batch_size = 0;
  BatchDoneCallback batch_done;
};

Result<std::unique_ptr<Client>> Client::Connect(const ClientOptions& options) {
  Result<net::ScopedFd> fd = Dial(options.target);
  if (!fd.ok()) return Result<std::unique_ptr<Client>>::Error(fd.error());
  std::unique_ptr<Client> client(new Client(options));
  client->fd_ = std::move(fd).value();
  client->reader_ = std::thread([raw = client.get()] { raw->ReaderLoop(); });

  if (!options.auth_secret.empty()) {
    Result<std::string> reply = client->Call("auth " + options.auth_secret);
    if (!reply.ok()) {
      return Result<std::unique_ptr<Client>>::Error(reply.error());
    }
    if (reply.value() != "ok auth") {
      return Result<std::unique_ptr<Client>>::Error("auth rejected: " +
                                                    reply.value());
    }
  }
  if (options.negotiate_batch || options.negotiate_binary) {
    std::string hello = "hello";
    if (options.negotiate_batch) hello += " batch";
    if (options.negotiate_binary) hello += " binary";
    Result<std::string> reply = client->Call(hello);
    if (!reply.ok()) {
      return Result<std::unique_ptr<Client>>::Error(reply.error());
    }
    if (reply.value().rfind("ok hello", 0) != 0) {
      return Result<std::unique_ptr<Client>>::Error("hello rejected: " +
                                                    reply.value());
    }
    const std::string granted = reply.value().substr(8);
    client->batch_granted_ = granted.find(" batch") != std::string::npos;
    client->binary_granted_ = granted.find(" binary") != std::string::npos;
  }
  return client;
}

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() {
  // Wake the reader (EOF) and fail anything still pending, then join.
  ::shutdown(fd_.get(), SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
}

void Client::set_line_tap(LineTap tap) {
  util::MutexLock lock(mu_);
  tap_ = std::move(tap);
}

Status Client::transport_status() const {
  util::MutexLock lock(mu_);
  return transport_;
}

void Client::ShutdownWrites() { ::shutdown(fd_.get(), SHUT_WR); }

void Client::WaitForServerEof() {
  util::MutexLock lock(mu_);
  while (!reader_done_) cv_.Wait(mu_);
}

std::string Client::EncodePayload(const std::string& line) const {
  return binary_granted_ ? protocol::EncodeFrame(line) : line + "\n";
}

Status Client::SendWithExpectation(const std::string& wire_bytes,
                                   const std::shared_ptr<Expectation>& exp) {
  util::MutexLock write_lock(write_mu_);
  {
    util::MutexLock lock(mu_);
    if (!transport_.ok()) return transport_;
    expectations_.push_back(exp);
  }
  Status written = net::WriteAll(fd_.get(), wire_bytes);
  if (!written.ok()) {
    FailEverything("write failed: " + written.message());
  }
  return written;
}

Result<std::string> Client::WaitFor(const std::shared_ptr<Expectation>& exp) {
  util::MutexLock lock(mu_);
  while (!exp->done) cv_.Wait(mu_);
  if (!exp->status.ok()) {
    return Result<std::string>::Error(exp->status.message());
  }
  return exp->reply;
}

Result<std::string> Client::Call(const std::string& line) {
  const bool prom = line == "metrics prom";
  auto exp = std::make_shared<Expectation>(prom ? Expectation::Kind::kPromBlock
                                               : Expectation::Kind::kLine);
  Status sent = SendWithExpectation(EncodePayload(line), exp);
  if (!sent.ok()) return Result<std::string>::Error(sent.message());
  return WaitFor(exp);
}

Status Client::Flush() {
  Result<std::string> reply = Call("flush");
  if (!reply.ok()) return Status::Error(reply.error());
  if (reply.value() != "ok flush") {
    return Status::Error("flush rejected: " + reply.value());
  }
  return Status::Ok();
}

Status Client::SendRaw(const std::string& line) {
  util::MutexLock write_lock(write_mu_);
  {
    util::MutexLock lock(mu_);
    if (!transport_.ok()) return transport_;
  }
  Status written = net::WriteAll(fd_.get(), line + "\n");
  if (!written.ok()) FailEverything("write failed: " + written.message());
  return written;
}

Result<uint64_t> Client::SubmitQuery(const std::string& schema,
                                     const std::string& query,
                                     QueryCallback cb) {
  auto exp = std::make_shared<Expectation>(Expectation::Kind::kQueryAck);
  exp->query_cb = std::move(cb);
  Status sent =
      SendWithExpectation(EncodePayload("query " + schema + " " + query), exp);
  if (!sent.ok()) return Result<uint64_t>::Error(sent.message());
  Result<std::string> reply = WaitFor(exp);
  if (!reply.ok()) return Result<uint64_t>::Error(reply.error());
  const std::string& ack = reply.value();
  if (ack.rfind("ok query ", 0) != 0) {
    return Result<uint64_t>::Error(ack);  // an err line: cb was not kept
  }
  return static_cast<uint64_t>(
      std::strtoull(ack.c_str() + 9, nullptr, 10));
}

Result<Client::BatchHandle> Client::SubmitBatch(
    const std::string& schema, const std::vector<std::string>& queries,
    QueryCallback per_item, BatchDoneCallback done) {
  BatchHandle handle;
  if (queries.empty()) {
    if (done) done(Status::Ok());
    return handle;
  }
  if (!batch_granted_) {
    // Degraded mode: per-query submits with a countdown standing in for the
    // server-side barrier.
    auto remaining = std::make_shared<std::atomic<size_t>>(queries.size());
    auto done_shared = std::make_shared<BatchDoneCallback>(std::move(done));
    for (const std::string& query : queries) {
      Result<uint64_t> id = SubmitQuery(
          schema, query,
          [per_item, remaining, done_shared](const Status& status,
                                             const QueryOutcome& outcome) {
            if (per_item) per_item(status, outcome);
            if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
                *done_shared) {
              (*done_shared)(Status::Ok());
            }
          });
      if (!id.ok()) return Result<BatchHandle>::Error(id.error());
      handle.ids.push_back(id.value());
    }
    return handle;
  }

  // One wire unit: the batch header plus every member, one write.
  std::string wire = EncodePayload("batch " + std::to_string(queries.size()));
  for (const std::string& query : queries) {
    wire += EncodePayload("query " + schema + " " + query);
  }
  auto exp = std::make_shared<Expectation>(Expectation::Kind::kBatchAck);
  exp->query_cb = std::move(per_item);
  exp->batch_size = queries.size();
  exp->batch_done = std::move(done);
  Status sent = SendWithExpectation(wire, exp);
  if (!sent.ok()) return Result<BatchHandle>::Error(sent.message());
  Result<std::string> reply = WaitFor(exp);
  if (!reply.ok()) return Result<BatchHandle>::Error(reply.error());
  const std::string& ack = reply.value();
  size_t rest = 0;
  const uint64_t seq = ParseBatchSeq(ack, &rest);
  if (seq == 0 || ack.compare(rest, 5, " ids ") != 0) {
    return Result<BatchHandle>::Error(ack);  // an err line (batch-mismatch…)
  }
  handle.seq = seq;
  const char* cursor = ack.c_str() + rest + 5;
  while (*cursor != '\0') {
    char* end = nullptr;
    unsigned long long id = std::strtoull(cursor, &end, 10);
    if (end == cursor) break;
    handle.ids.push_back(id);
    cursor = *end == ' ' ? end + 1 : end;
  }
  return handle;
}

void Client::ReaderLoop() {
  net::LineReader reader(fd_.get(), protocol::kMaxLineBytes);
  std::string line;
  std::string error;
  for (;;) {
    switch (reader.ReadLine(&line, &error)) {
      case net::LineReader::Event::kLine:
        OnReplyLine(line);
        continue;
      case net::LineReader::Event::kOversized:
        continue;  // server lines are capped; tolerate and keep draining
      case net::LineReader::Event::kEof:
        FailEverything("connection closed by server");
        return;
      case net::LineReader::Event::kError:
        FailEverything("read failed: " + error);
        return;
    }
  }
}

void Client::OnReplyLine(const std::string& line) {
  {
    LineTap tap;
    {
      util::MutexLock lock(mu_);
      tap = tap_;
    }
    if (tap) tap(line);
  }

  // Result line ("ID [verdict] ..."): dispatch by ticket id.
  const uint64_t ticket_id = LeadingTicketId(line);
  if (ticket_id != 0) {
    QueryCallback cb;
    {
      util::MutexLock lock(mu_);
      auto it = inflight_.find(ticket_id);
      if (it != inflight_.end()) {
        cb = std::move(it->second);
        inflight_.erase(it);
      }
    }
    if (cb) {
      QueryOutcome outcome;
      outcome.ticket_id = ticket_id;
      outcome.verdict = ResultVerdict(line);
      outcome.line = line;
      cb(Status::Ok(), outcome);
    }
    return;  // raw mode reaches here with no cb installed: tap saw it
  }

  // The batch barrier is the one control line that arrives out of FIFO
  // order: match it by seq, not by queue position.
  {
    size_t rest = 0;
    const uint64_t seq = ParseBatchSeq(line, &rest);
    if (seq != 0 && line.compare(rest, std::string::npos, " done") == 0) {
      BatchDoneCallback done;
      {
        util::MutexLock lock(mu_);
        auto it = barriers_.find(seq);
        if (it != barriers_.end()) {
          done = std::move(it->second);
          barriers_.erase(it);
        }
      }
      if (done) done(Status::Ok());
      return;
    }
  }

  // Everything else is a FIFO control reply.
  std::shared_ptr<Expectation> exp;
  {
    util::MutexLock lock(mu_);
    if (expectations_.empty()) return;  // unsolicited (raw mode, idle-timeout)
    exp = expectations_.front();
    if (exp->kind == Expectation::Kind::kPromBlock) {
      exp->reply += exp->reply.empty() ? line : "\n" + line;
      if (line != "# EOF" && line.rfind("err ", 0) != 0) return;
      if (line.rfind("err ", 0) == 0) exp->reply = line;  // err, not a block
      expectations_.pop_front();
      exp->done = true;
      cv_.NotifyAll();
      return;
    }
    expectations_.pop_front();
    exp->reply = line;
    if (exp->kind == Expectation::Kind::kQueryAck &&
        line.rfind("ok query ", 0) == 0) {
      const uint64_t id = static_cast<uint64_t>(
          std::strtoull(line.c_str() + 9, nullptr, 10));
      if (id != 0) inflight_.emplace(id, std::move(exp->query_cb));
    } else if (exp->kind == Expectation::Kind::kBatchAck) {
      size_t rest = 0;
      const uint64_t seq = ParseBatchSeq(line, &rest);
      if (seq != 0 && line.compare(rest, 5, " ids ") == 0) {
        const char* cursor = line.c_str() + rest + 5;
        size_t installed = 0;
        while (*cursor != '\0' && installed < exp->batch_size) {
          char* end = nullptr;
          unsigned long long id = std::strtoull(cursor, &end, 10);
          if (end == cursor) break;
          inflight_.emplace(id, exp->query_cb);  // shared across members
          ++installed;
          cursor = *end == ' ' ? end + 1 : end;
        }
        if (exp->batch_done) {
          barriers_.emplace(seq, std::move(exp->batch_done));
        }
      }
    }
    exp->done = true;
    cv_.NotifyAll();
  }
}

void Client::FailEverything(const std::string& reason) {
  std::deque<std::shared_ptr<Expectation>> expectations;
  std::map<uint64_t, QueryCallback> inflight;
  std::map<uint64_t, BatchDoneCallback> barriers;
  const Status failure = Status::Error(reason);
  {
    util::MutexLock lock(mu_);
    if (transport_.ok()) transport_ = failure;
    expectations.swap(expectations_);
    inflight.swap(inflight_);
    barriers.swap(barriers_);
    for (const std::shared_ptr<Expectation>& exp : expectations) {
      exp->status = failure;
      exp->done = true;
    }
    reader_done_ = true;
    cv_.NotifyAll();
  }
  for (auto& entry : inflight) {
    QueryOutcome outcome;
    outcome.ticket_id = entry.first;
    if (entry.second) entry.second(failure, outcome);
  }
  for (auto& entry : barriers) {
    if (entry.second) entry.second(failure);
  }
}

}  // namespace client
}  // namespace xpathsat
