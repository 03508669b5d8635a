#include "perfbench/wire.h"

#include <cctype>
#include <chrono>
#include <cstdlib>

#include "src/server/protocol.h"

namespace perfbench {

struct WireConn::Sent {
  const Op* op = nullptr;
  int64_t origin_ns = 0;
  Phase* phase = nullptr;
  int outstanding = 0;  // reply lines still owed
  int results = 0;      // result lines received
  int64_t ack_ns = 0;
  int64_t last_ns = 0;
  bool failed = false;
  bool done = false;
};

WireConn::WireConn(const Config& cfg, const Stream& stream,
                   const std::string& target, bool binary, size_t index,
                   Outcomes* outcomes)
    : cfg_(cfg), s_(stream), index_(index), outcomes_(outcomes) {
  xpathsat::client::ClientOptions options;
  options.target = target;
  options.negotiate_batch = true;
  options.negotiate_binary = binary;
  auto client = xpathsat::client::Client::Connect(options);
  if (!client.ok()) Fail(cfg_, "connect " + target + ": " + client.error());
  client_ = std::move(client).value();
  if (!client_->batch_granted() || client_->binary_granted() != binary) {
    Fail(cfg_, "server did not grant the requested framing");
  }
  binary_ = binary;
  client_->set_line_tap([this](const std::string& line) { OnLine(line); });
}

WireConn::~WireConn() { client_.reset(); }

std::string WireConn::Payload(const std::string& line) const {
  return binary_ ? xpathsat::protocol::EncodeFrame(line) : line + "\n";
}

std::string WireConn::Control(const std::string& line, int64_t* reply_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  fifo_.push_back(Expect{Expect::kControl, nullptr});
  control_done_ = false;
  lock.unlock();
  // SendRaw appends the newline; after a binary frame it is a blank line,
  // which the protocol ignores.
  xpathsat::Status sent =
      client_->SendRaw(binary_ ? xpathsat::protocol::EncodeFrame(line) : line);
  if (!sent.ok()) Fail(cfg_, "send failed: " + sent.message());
  lock.lock();
  if (!cv_.wait_for(lock, std::chrono::seconds(60),
                    [&] { return control_done_; })) {
    Fail(cfg_, "no reply to '" + line + "' within 60 s");
  }
  if (reply_ns != nullptr) *reply_ns = control_reply_ns_;
  return control_reply_;
}

void WireConn::Register(const Schema& schema) {
  const std::string reply = Control("dtd " + schema.name + " " + schema.path);
  if (reply.rfind("ok dtd ", 0) != 0) {
    Fail(cfg_, "registering " + schema.name + ": " + reply);
  }
}

void WireConn::Send(const Op* op, int64_t origin_ns, Phase* phase,
                    bool corrupt) {
  const Schema& schema = s_.schemas[static_cast<size_t>(op->schema)];
  const std::string member_schema = corrupt ? "nosuchschema" : schema.name;
  const int n = static_cast<int>(op->requests.size());
  std::string wire;
  if (op->job) wire += Payload("dtd " + schema.name + " " + schema.path);
  wire += Payload("batch " + std::to_string(n));
  for (int ri : op->requests) {
    wire += Payload("query " + member_schema + " " +
                    s_.requests[static_cast<size_t>(ri)].query);
  }
  if (op->job) wire += Payload("drop " + schema.name);
  if (!binary_) wire.pop_back();  // SendRaw adds the last newline

  {
    std::lock_guard<std::mutex> lock(mu_);
    Sent* sent = &sent_.emplace_back();
    sent->op = op;
    sent->origin_ns = origin_ns;
    sent->phase = phase;
    // The batch ack, every result, the barrier, and a job's dtd/drop acks.
    sent->outstanding = n + 2 + (op->job ? 2 : 0);
    if (op->job) fifo_.push_back(Expect{Expect::kDtd, sent});
    fifo_.push_back(Expect{Expect::kBatch, sent});
    if (op->job) fifo_.push_back(Expect{Expect::kDrop, sent});
    ++inflight_;
  }
  xpathsat::Status ok = client_->SendRaw(wire);
  if (!ok.ok()) Fail(cfg_, "send failed: " + ok.message());
}

void WireConn::WaitInflightBelow(int n) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return inflight_ < n; });
}

void WireConn::WaitAllDone() {
  std::unique_lock<std::mutex> lock(mu_);
  if (cv_.wait_for(lock, std::chrono::seconds(30),
                   [&] { return inflight_ == 0; })) {
    return;
  }
  // Never answered: each missing verdict (or the whole job) fails.
  for (Sent& sent : sent_) {
    if (sent.done) continue;
    const int n = static_cast<int>(sent.op->requests.size());
    CountFailed(&sent, sent.op->job ? 1 : n - sent.results, "no reply");
    sent.done = true;
    --inflight_;
  }
}

void WireConn::CountFailed(const Sent* sent, int units,
                           const std::string& why) {
  // Setup traffic (warm-up, donor, the ladder's replays) must not fail.
  if (sent->phase == nullptr) Fail(cfg_, "setup request failed: " + why);
  outcomes_->failed += static_cast<uint64_t>(units);
}

void WireConn::Finish(Sent* sent) {
  sent->done = true;
  --inflight_;
  if (sent->op->job) {
    if (sent->failed) {
      CountFailed(sent, 1, "job failed");
    } else if (sent->phase != nullptr) {
      std::lock_guard<std::mutex> lock(sent->phase->mu);
      sent->phase->latency_us.push_back(
          static_cast<double>(sent->last_ns - sent->origin_ns) / 1e3);
      sent->phase->unit_done_ns.push_back(sent->last_ns);
    }
  }
  if (sent->phase != nullptr && sent->ack_ns != 0) {
    std::lock_guard<std::mutex> lock(sent->phase->mu);
    sent->phase->ack_us.push_back(
        static_cast<double>(sent->ack_ns - sent->origin_ns) / 1e3);
  }
  cv_.notify_all();
}

void WireConn::OnLine(const std::string& line) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Sent* sent = nullptr;
  if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0]))) {
    // "ID [verdict] XPATH -- ...": matched by ticket id.
    auto it = ids_.find(std::strtoull(line.c_str(), nullptr, 10));
    if (it == ids_.end()) return;
    const Slot slot = it->second;
    ids_.erase(it);
    sent = slot.sent;
    if (sent->done) return;
    const size_t open = line.find('[');
    const size_t close = line.find(']', open);
    std::string verdict = open == std::string::npos || close == std::string::npos
                              ? std::string()
                              : line.substr(open + 1, close - open - 1);
    while (!verdict.empty() && verdict.back() == ' ') verdict.pop_back();
    const Request& r = s_.requests[static_cast<size_t>(
        sent->op->requests[static_cast<size_t>(slot.member)])];
    ++sent->results;
    if (sent->phase != nullptr) ++outcomes_->verdicts;
    if (verdict == "error") {
      sent->failed = true;
      if (!sent->op->job) CountFailed(sent, 1, line);
    } else {
      if (verdict == "unknown" && sent->phase != nullptr) ++outcomes_->unknown;
      if (verdict != VerdictToken(r.expected)) {
        std::lock_guard<std::mutex> mlock(outcomes_->mu);
        if (outcomes_->mismatch.empty()) {
          outcomes_->mismatch =
              "wrong verdict for query '" + r.query + "' on schema " +
              s_.schemas[static_cast<size_t>(r.schema)].name + ": expected " +
              VerdictToken(r.expected) + ", server said '" + line + "'";
        }
      }
      if (!sent->op->job && sent->phase != nullptr) {
        std::lock_guard<std::mutex> plock(sent->phase->mu);
        sent->phase->latency_us.push_back(
            static_cast<double>(now - sent->origin_ns) / 1e3);
        sent->phase->unit_done_ns.push_back(now);
      }
    }
  } else if (line.rfind("ok batch ", 0) == 0 &&
             line.size() > 5 && line.compare(line.size() - 5, 5, " done") == 0) {
    // The barrier: out of FIFO order, matched by its sequence number.
    auto it = seqs_.find(std::strtoull(line.c_str() + 9, nullptr, 10));
    if (it == seqs_.end()) return;
    sent = it->second;
    seqs_.erase(it);
    if (sent->done) return;
  } else {
    if (fifo_.empty()) return;  // unsolicited
    const Expect e = fifo_.front();
    fifo_.pop_front();
    if (e.kind == Expect::kControl) {
      control_reply_ = line;
      control_reply_ns_ = now;
      control_done_ = true;
      cv_.notify_all();
      return;
    }
    sent = e.sent;
    if (sent->done) return;
    if (line.rfind("err ", 0) == 0) {
      sent->failed = true;
      if (e.kind == Expect::kBatch) {
        // A refused batch submits nothing: no results, no barrier.
        const int n = static_cast<int>(sent->op->requests.size());
        sent->outstanding -= n + 1;
        if (!sent->op->job) CountFailed(sent, n, line);
      }
    } else if (e.kind == Expect::kBatch) {
      // "ok batch SEQ ids ID...": member i's result carries the i-th id.
      char* cursor = nullptr;
      const uint64_t seq = std::strtoull(line.c_str() + 9, &cursor, 10);
      seqs_[seq] = sent;
      sent->ack_ns = now;
      if (std::string(cursor).rfind(" ids ", 0) == 0) cursor += 5;
      for (int member = 0; *cursor != '\0'; ++member) {
        char* end = nullptr;
        const uint64_t id = std::strtoull(cursor, &end, 10);
        if (end == cursor) break;
        ids_[id] = Slot{sent, member};
        cursor = *end == ' ' ? end + 1 : end;
      }
    }
  }
  sent->last_ns = now;
  if (--sent->outstanding == 0) Finish(sent);
}

}  // namespace perfbench
