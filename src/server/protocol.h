// The xpathsat line protocol: one implementation of the request
// parser and reply formatters, shared by `xpathsat_cli --serve` (stdin),
// `xpathsat_server` (unix/TCP sockets), and `xpathsat_cli --connect`.
//
// Requests are single lines, verb first ('#'-comments and blank lines are
// ignored):
//
//   auth SECRET         authenticate (required first, when the server was
//                       started with a shared secret)
//   health              liveness/metrics probe as one JSON line — the one
//                       verb allowed WITHOUT auth (load balancers probe it).
//                       Pre-auth, when a secret is configured, the payload is
//                       redacted to {"status", "uptime_ms"}; the full merged
//                       stats object needs auth (or no secret configured)
//   hello [FEATURE...]  negotiate optional wire features; FEATURE is `batch`
//                       and/or `binary`. The reply names what was granted
//   dtd NAME PATH       register the DTD file at PATH under NAME
//   query NAME XPATH    submit XPATH against NAME (alias: q)
//   batch N             (needs `hello batch`) the next N lines are query/q
//                       requests submitted as one unit: nothing dispatches
//                       until all N arrived and validated, then one ack
//                       carries every ticket id and one barrier line follows
//                       the last result. A non-query member, a malformed
//                       member, or EOF before line N discards the whole
//                       batch with `err batch-mismatch` — never a partial
//                       dispatch
//   drop NAME           release NAME's handle
//   cancel ID           cancel the still-queued ticket ID
//   flush               block until every pending result line is emitted
//   stats               engine statistics as one JSON line
//   metrics [prom]      latency histograms + per-route counters: one JSON
//                       line, or a multi-line Prometheus text exposition
//                       (terminated by "# EOF") with `metrics prom`
//   slow                drain the slow-query log as one JSON line
//   save PATH           write a schema-and-memo snapshot to PATH
//   load PATH           warm the caches from the snapshot at PATH
//   quit                flush and close the session
//
// Replies are single lines, tagged by their first token:
//
//   ok dtd NAME fp=FP          ok query ID        ok drop NAME
//   ok cancel ID               ok flush           ok quit
//   ok auth                    auth accepted
//   ok hello [FEATURE...]      negotiation reply listing exactly the granted
//                              features (`binary` is granted only on
//                              transports that can carry frames — the socket
//                              server, not --serve's stdin)
//   ok batch SEQ ids ID...     batch accepted: all N members submitted; the
//                              N ticket ids, in member order. SEQ is a
//                              per-session batch number
//   ok batch SEQ done          barrier: every member's result line has been
//                              emitted (arrives after the last result, out
//                              of FIFO reply order)
//   ID [verdict] XPATH -- ...  completion line for ticket ID (may arrive
//                              out of submission order; [verdict] is one of
//                              sat/unsat/unknown/error)
//   stats {...}                single-line JSON, same field names as --json
//   health {...}               single-line JSON for probes (engine stats,
//                              plus server connection counters when served
//                              by xpathsat_server)
//   metrics {...}              single-line JSON (histogram summaries with
//                              p50/p90/p99, route counters); `metrics prom`
//                              instead emits the multi-line exposition
//                              ending with a bare "# EOF" line
//   slow {...}                 single-line JSON draining the slow-query log
//   ok save dtds=N memos=M     snapshot written (N schema, M memo records)
//   ok load dtds=N memos=M skipped=K
//                              caches warmed; K records were skipped
//                              (corrupt, truncated, or failed verification)
//   err CODE detail            structured error; CODE is a stable slug
//                              (unknown-verb, bad-args, oversized-line,
//                              unknown-dtd, unknown-ticket, not-cancellable,
//                              dtd-parse, io, auth-required, bad-auth,
//                              busy, throttled, idle-timeout,
//                              store-corrupt, store-version,
//                              batch-mismatch, bad-frame)
//
// Binary framing (negotiated with `hello binary`): a request may arrive as a
// length-prefixed frame [0x00][u32 length, big-endian][payload] instead of a
// newline-terminated line; the payload is one request line without its
// newline. Replies are always text lines. A frame before negotiation, a
// declared length over kMaxLineBytes, or a frame truncated by EOF answers
// `err bad-frame` and closes the connection (a binary stream cannot resync).
//
// Malformed input (unknown verb, missing argument, oversized line) always
// answers with an `err` line and keeps the session alive — nothing is
// silently ignored.
#ifndef XPATHSAT_SERVER_PROTOCOL_H_
#define XPATHSAT_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/sat_engine.h"

namespace xpathsat {
namespace protocol {

/// Hard cap on one request line (bytes, excluding the newline). Lines beyond
/// this answer with `err oversized-line` instead of growing buffers without
/// bound.
constexpr size_t kMaxLineBytes = 64 * 1024;

/// Hard cap on `batch N`. Bounds collect-state memory per session and keeps
/// the worst-case `ok batch SEQ ids ...` ack line (20 digits + space per id)
/// comfortably under kMaxLineBytes.
constexpr uint64_t kMaxBatchRequests = 1024;

enum class Verb {
  kAuth,
  kHealth,
  kHello,
  kDtd,
  kQuery,
  kBatch,
  kDrop,
  kCancel,
  kFlush,
  kStats,
  kMetrics,
  kSlow,
  kSave,
  kLoad,
  kQuit,
};

/// One parsed request line.
struct Command {
  Verb verb = Verb::kFlush;
  std::string name;        // dtd/query/drop: the schema name
  std::string arg;         // dtd: the path; query: the XPath text;
                           // auth: the secret; metrics: "" or "prom";
                           // save/load: the snapshot path; hello: the
                           // requested features, space-joined ("", "batch",
                           // "binary", "batch binary", "binary batch")
  uint64_t ticket_id = 0;  // cancel
  uint64_t batch_count = 0;  // batch: N, in [1, kMaxBatchRequests]
};

enum class ParseStatus {
  kCommand,  // `command` is valid
  kEmpty,    // blank line or comment: nothing to do, nothing to answer
  kError,    // malformed: answer with `error_line`
};

struct ParseResult {
  ParseStatus status = ParseStatus::kEmpty;
  Command command;
  /// For kError: the complete `err CODE detail` reply line.
  std::string error_line;
};

/// Parses one raw request line (without its newline). Enforces kMaxLineBytes
/// and strict per-verb arity; every malformed shape yields a structured
/// `err` line rather than a silent skip.
ParseResult ParseCommandLine(const std::string& line);

/// Prints a command back into its canonical line form.
/// ParseCommandLine(FormatCommand(c)) reproduces `c` for every valid
/// command (the round-trip property test pins this).
std::string FormatCommand(const Command& command);

/// Human verb name ("dtd", "query", ...).
const char* VerbName(Verb verb);

/// Verdict tag used in result lines: sat/unsat/unknown, or "error" for
/// responses whose status is not ok.
const char* VerdictName(const SatResponse& response);

// --- Reply formatters (all return one line, no trailing newline) ---------

/// `err CODE detail`.
std::string FormatErr(const std::string& code, const std::string& detail);

/// `ok dtd NAME fp=%016llx`.
std::string FormatDtdAck(const std::string& name, uint64_t fingerprint);

/// `ok query ID` — submission ack carrying the engine ticket id, which is
/// the id a later `cancel` addresses and the tag on the result line.
std::string FormatQueryAck(uint64_t ticket_id);

/// `ok hello` / `ok hello batch binary` — exactly the granted features, in
/// the order they were requested.
std::string FormatHelloAck(const std::string& granted);

/// `ok batch SEQ ids ID...` — every member's engine ticket id, member order.
std::string FormatBatchAck(uint64_t seq, const std::vector<uint64_t>& ids);

/// `ok batch SEQ done` — the post-last-result barrier line.
std::string FormatBatchDone(uint64_t seq);

/// Wraps one request line into a binary frame:
/// [0x00][u32 length, big-endian][payload]. The shared encoder for clients;
/// the decoder lives in net::LineDecoder. `payload` must not exceed
/// kMaxLineBytes (enforced by the caller; the server answers bad-frame).
std::string EncodeFrame(const std::string& payload);

/// `ID [verdict] XPATH -- algorithm elapsed-us [q-cached] [memo]`, or
/// `ID [error  ] XPATH -- message` when the response failed.
std::string FormatResultLine(uint64_t ticket_id, const std::string& query,
                             const SatResponse& response);

/// The bare stats JSON object (no tag): one key per kSatEngineCounters row
/// (src/engine/sat_engine.h; `requests` first), then the rewrite-cache pair,
/// uptime_ms, snapshot_seq and the live_dtd_handles and
/// live_compiled_artifacts gauges. Shared by the `stats` and `health` reply
/// lines and the CLI's --json output; the counter keys and
/// live_compiled_artifacts are the registry names the `metrics` verb
/// reports.
std::string FormatStatsJson(const SatEngineStats& stats);

/// `stats {json}`: one line, so scripted clients parse instead of scraping.
std::string FormatStatsLine(const SatEngineStats& stats);

}  // namespace protocol
}  // namespace xpathsat

#endif  // XPATHSAT_SERVER_PROTOCOL_H_
