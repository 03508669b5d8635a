#include "src/server/protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace xpathsat {
namespace protocol {

namespace {

/// Strips one leading token (non-whitespace run) from `*rest`; returns it.
/// Leading whitespace is skipped first. Empty return means no token left.
std::string TakeToken(std::string* rest) {
  size_t start = rest->find_first_not_of(" \t");
  if (start == std::string::npos) {
    rest->clear();
    return std::string();
  }
  size_t end = rest->find_first_of(" \t", start);
  std::string token = rest->substr(start, end - start);
  *rest = end == std::string::npos ? std::string() : rest->substr(end);
  return token;
}

std::string TrimmedRemainder(const std::string& rest) {
  size_t start = rest.find_first_not_of(" \t");
  if (start == std::string::npos) return std::string();
  size_t end = rest.find_last_not_of(" \t");
  return rest.substr(start, end - start + 1);
}

ParseResult Error(const std::string& code, const std::string& detail) {
  ParseResult r;
  r.status = ParseStatus::kError;
  r.error_line = FormatErr(code, detail);
  return r;
}

ParseResult BadArgs(Verb verb, const char* usage) {
  return Error("bad-args",
               std::string(VerbName(verb)) + ": usage: " + usage);
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kAuth: return "auth";
    case Verb::kHealth: return "health";
    case Verb::kHello: return "hello";
    case Verb::kDtd: return "dtd";
    case Verb::kQuery: return "query";
    case Verb::kBatch: return "batch";
    case Verb::kDrop: return "drop";
    case Verb::kCancel: return "cancel";
    case Verb::kFlush: return "flush";
    case Verb::kStats: return "stats";
    case Verb::kMetrics: return "metrics";
    case Verb::kSlow: return "slow";
    case Verb::kSave: return "save";
    case Verb::kLoad: return "load";
    case Verb::kQuit: return "quit";
  }
  return "?";
}

const char* VerdictName(const SatResponse& response) {
  if (!response.status.ok()) return "error";
  switch (response.report.decision.verdict) {
    case SatVerdict::kSat: return "sat";
    case SatVerdict::kUnsat: return "unsat";
    case SatVerdict::kUnknown: return "unknown";
  }
  return "unknown";
}

ParseResult ParseCommandLine(const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    return Error("oversized-line",
                 std::to_string(line.size()) + " bytes (max " +
                     std::to_string(kMaxLineBytes) + ")");
  }
  std::string rest = line;
  // Tolerate CR-LF input and trailing whitespace.
  while (!rest.empty() && (rest.back() == '\r' || rest.back() == ' ' ||
                           rest.back() == '\t')) {
    rest.pop_back();
  }
  std::string verb_text = TakeToken(&rest);
  if (verb_text.empty() || verb_text[0] == '#') {
    ParseResult r;
    r.status = ParseStatus::kEmpty;
    return r;
  }

  ParseResult r;
  r.status = ParseStatus::kCommand;
  Command& cmd = r.command;
  if (verb_text == "auth") {
    cmd.verb = Verb::kAuth;
    // The secret is the whole remainder, so secrets may contain spaces;
    // empty is malformed (an auth-less server wants no auth line at all).
    cmd.arg = TrimmedRemainder(rest);
    if (cmd.arg.empty()) {
      return BadArgs(Verb::kAuth, "auth SECRET");
    }
  } else if (verb_text == "health") {
    cmd.verb = Verb::kHealth;
    if (!TrimmedRemainder(rest).empty()) {
      return BadArgs(Verb::kHealth, "health");
    }
  } else if (verb_text == "hello") {
    cmd.verb = Verb::kHello;
    // Zero or more feature tokens, each `batch` or `binary`, no repeats.
    // The canonical form preserves request order (`hello binary batch`
    // round-trips as-is).
    bool saw_batch = false;
    bool saw_binary = false;
    for (;;) {
      std::string token = TakeToken(&rest);
      if (token.empty()) break;
      bool duplicate = (token == "batch" && saw_batch) ||
                       (token == "binary" && saw_binary);
      if ((token != "batch" && token != "binary") || duplicate) {
        return BadArgs(Verb::kHello, "hello [batch] [binary]");
      }
      if (token == "batch") saw_batch = true;
      if (token == "binary") saw_binary = true;
      if (!cmd.arg.empty()) cmd.arg += ' ';
      cmd.arg += token;
    }
  } else if (verb_text == "dtd") {
    cmd.verb = Verb::kDtd;
    cmd.name = TakeToken(&rest);
    cmd.arg = TrimmedRemainder(rest);
    if (cmd.name.empty() || cmd.arg.empty()) {
      return BadArgs(Verb::kDtd, "dtd NAME PATH");
    }
  } else if (verb_text == "query" || verb_text == "q") {
    cmd.verb = Verb::kQuery;
    cmd.name = TakeToken(&rest);
    cmd.arg = TrimmedRemainder(rest);
    if (cmd.name.empty() || cmd.arg.empty()) {
      return BadArgs(Verb::kQuery, "query NAME XPATH");
    }
  } else if (verb_text == "drop") {
    cmd.verb = Verb::kDrop;
    cmd.name = TakeToken(&rest);
    if (cmd.name.empty() || !TrimmedRemainder(rest).empty()) {
      return BadArgs(Verb::kDrop, "drop NAME");
    }
  } else if (verb_text == "cancel") {
    cmd.verb = Verb::kCancel;
    std::string id_text = TakeToken(&rest);
    if (id_text.empty() || !TrimmedRemainder(rest).empty()) {
      return BadArgs(Verb::kCancel, "cancel TICKET-ID");
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long id = std::strtoull(id_text.c_str(), &end, 10);
    if (errno != 0 || end == id_text.c_str() || *end != '\0' ||
        id_text[0] == '-' || id_text[0] == '+' || id == 0) {
      return Error("bad-args", "cancel: '" + id_text +
                                   "' is not a positive ticket id");
    }
    cmd.ticket_id = id;
  } else if (verb_text == "batch") {
    cmd.verb = Verb::kBatch;
    std::string count_text = TakeToken(&rest);
    if (count_text.empty() || !TrimmedRemainder(rest).empty()) {
      return BadArgs(Verb::kBatch, "batch N");
    }
    errno = 0;
    char* end = nullptr;
    unsigned long long count = std::strtoull(count_text.c_str(), &end, 10);
    if (errno != 0 || end == count_text.c_str() || *end != '\0' ||
        count_text[0] == '-' || count_text[0] == '+' || count == 0) {
      return Error("bad-args", "batch: '" + count_text +
                                   "' is not a positive request count");
    }
    if (count > kMaxBatchRequests) {
      return Error("bad-args",
                   "batch: " + count_text + " requests (max " +
                       std::to_string(kMaxBatchRequests) + ")");
    }
    cmd.batch_count = count;
  } else if (verb_text == "metrics") {
    cmd.verb = Verb::kMetrics;
    // Bare `metrics` answers one JSON line; the only recognised mode
    // argument is `prom` (the multi-line text exposition).
    cmd.arg = TrimmedRemainder(rest);
    if (!cmd.arg.empty() && cmd.arg != "prom") {
      return BadArgs(Verb::kMetrics, "metrics [prom]");
    }
  } else if (verb_text == "save" || verb_text == "load") {
    cmd.verb = verb_text == "save" ? Verb::kSave : Verb::kLoad;
    // The path is the whole remainder (paths may contain spaces).
    cmd.arg = TrimmedRemainder(rest);
    if (cmd.arg.empty()) {
      return BadArgs(cmd.verb,
                     cmd.verb == Verb::kSave ? "save PATH" : "load PATH");
    }
  } else if (verb_text == "flush" || verb_text == "stats" ||
             verb_text == "slow" || verb_text == "quit") {
    cmd.verb = verb_text == "flush"
                   ? Verb::kFlush
                   : (verb_text == "stats"
                          ? Verb::kStats
                          : (verb_text == "slow" ? Verb::kSlow : Verb::kQuit));
    if (!TrimmedRemainder(rest).empty()) {
      return BadArgs(cmd.verb, verb_text.c_str());
    }
  } else {
    return Error("unknown-verb", "'" + verb_text + "'");
  }
  return r;
}

std::string FormatCommand(const Command& command) {
  switch (command.verb) {
    case Verb::kAuth:
      return "auth " + command.arg;
    case Verb::kHealth:
      return "health";
    case Verb::kHello:
      return command.arg.empty() ? "hello" : "hello " + command.arg;
    case Verb::kDtd:
      return "dtd " + command.name + " " + command.arg;
    case Verb::kQuery:
      return "query " + command.name + " " + command.arg;
    case Verb::kBatch:
      return "batch " + std::to_string(command.batch_count);
    case Verb::kDrop:
      return "drop " + command.name;
    case Verb::kCancel:
      return "cancel " + std::to_string(command.ticket_id);
    case Verb::kFlush:
      return "flush";
    case Verb::kStats:
      return "stats";
    case Verb::kMetrics:
      return command.arg.empty() ? "metrics" : "metrics " + command.arg;
    case Verb::kSlow:
      return "slow";
    case Verb::kSave:
      return "save " + command.arg;
    case Verb::kLoad:
      return "load " + command.arg;
    case Verb::kQuit:
      return "quit";
  }
  return std::string();
}

std::string FormatErr(const std::string& code, const std::string& detail) {
  return "err " + code + " " + detail;
}

std::string FormatDtdAck(const std::string& name, uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return "ok dtd " + name + " fp=" + buf;
}

std::string FormatQueryAck(uint64_t ticket_id) {
  return "ok query " + std::to_string(ticket_id);
}

std::string FormatHelloAck(const std::string& granted) {
  return granted.empty() ? "ok hello" : "ok hello " + granted;
}

std::string FormatBatchAck(uint64_t seq, const std::vector<uint64_t>& ids) {
  std::string line = "ok batch " + std::to_string(seq) + " ids";
  for (uint64_t id : ids) {
    line += ' ';
    line += std::to_string(id);
  }
  return line;
}

std::string FormatBatchDone(uint64_t seq) {
  return "ok batch " + std::to_string(seq) + " done";
}

std::string EncodeFrame(const std::string& payload) {
  std::string frame;
  frame.reserve(payload.size() + 5);
  frame.push_back('\0');
  const uint32_t n = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame += payload;
  return frame;
}

std::string FormatResultLine(uint64_t ticket_id, const std::string& query,
                             const SatResponse& response) {
  char head[32];
  std::snprintf(head, sizeof(head), "%llu [%-7s] ",
                static_cast<unsigned long long>(ticket_id),
                VerdictName(response));
  if (!response.status.ok()) {
    return head + query + " -- " + response.status.message();
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), " %.1fus", response.elapsed_us);
  return head + query + " -- " + response.report.algorithm + tail +
         (response.query_cache_hit ? " q-cached" : "") +
         (response.memo_hit ? " memo" : "");
}

std::string FormatStatsJson(const SatEngineStats& stats) {
  std::ostringstream out;
  const char* sep = "{";
  for (const SatEngineCounter& counter : kSatEngineCounters) {
    out << sep << '"' << counter.name << "\": " << stats.*counter.field;
    sep = ", ";
  }
  out << ", \"uptime_ms\": " << stats.uptime_ms
      << ", \"snapshot_seq\": " << stats.snapshot_seq
      << ", \"live_dtd_handles\": " << stats.live_dtd_handles
      << ", \"live_compiled_artifacts\": " << stats.live_compiled_artifacts
      << "}";
  return out.str();
}

std::string FormatStatsLine(const SatEngineStats& stats) {
  return "stats " + FormatStatsJson(stats);
}

}  // namespace protocol
}  // namespace xpathsat
