// The traced run: replays the head of the workload's open-loop stream one
// unit at a time (a `dtd` registration, a query, or a `drop`) through a
// ladder of public entry points, outermost first, each on fresh state
// prepared exactly like the timed server's (snapshot, schemas, warm-up):
//
//   L1 socket   client (WireConn over client::Client) -> in-process SocketServer
//   L2 session  ServerSession::HandleWire with an in-memory sink
//   L3 engine   SatEngine::Submit -> OnComplete (RegisterDtdText for `dtd`)
//   L4 xpath/sat  ParsePath + DetectFeatures, DecideSatisfiability over
//               CompiledDtd (only for units the engine did not answer
//               from its memo; parse only where it missed the query cache)
//   L5 xml/sat  Dtd::Parse and CompiledDtd::Compile per registration
//   L6 net/protocol  LineDecoder (lines and frames), ParseCommandLine,
//               FormatResultLine
//   L7 store    SaveSnapshot / LoadSnapshot of the L3 engine
//
// Each layer is its own replay of the same units on its own state, one
// unit in flight. A layer's self time for a unit is its span minus the next
// inner layer's span for the same unit; the two come from different
// executions, so a self time can come out negative. Two spans are nested
// within one execution: the socket replay reads the in-process engine's
// `request_total_ns` histogram after every query (engine time inside the
// socket span), and the engine replay reads each response's parse and
// decide spans. trace.layer_sum_vs_e2e checks the replays against each
// other: the socket self time (socket span minus the engine time nested in
// it), the engine's self time, and the bare parse and decide times of L4,
// summed over the query units and divided by the summed socket spans. It
// is 1 when the isolated replays cost what the same work cost inside the
// socket run. Spans (unit id, layer, start, end) are kept in memory and
// written to a TSV at the end.
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <map>
#include <thread>
#include <tuple>

#include "perfbench/bench.h"
#include "perfbench/wire.h"
#include "src/engine/sat_engine.h"
#include "src/server/protocol.h"
#include "src/server/session.h"
#include "src/server/socket_server.h"
#include "src/util/net.h"
#include "src/xml/dtd.h"
#include "src/xpath/features.h"
#include "src/xpath/parser.h"

namespace perfbench {

namespace {

using xpathsat::SatEngine;
using xpathsat::SatEngineOptions;

struct Unit {
  enum Kind { kDtd, kQuery, kDrop } kind;
  int schema = 0;
  int request = -1;  // kQuery
};

struct Span {
  int unit;
  const char* layer;
  int64_t start;
  int64_t end;
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class Ladder {
 public:
  Ladder(const Config& cfg, const Stream& s) : cfg_(cfg), s_(s) {
    // The head of the open-loop stream, jobs unrolled into their lines.
    int requests = 0;
    for (const Op& op : s.open) {
      if (requests >= cfg.trace_units) break;
      if (op.job) units_.push_back(Unit{Unit::kDtd, op.schema, -1});
      for (int r : op.requests) units_.push_back(Unit{Unit::kQuery, op.schema, r});
      if (op.job) units_.push_back(Unit{Unit::kDrop, op.schema, -1});
      requests += static_cast<int>(op.requests.size());
    }
    for (size_t i = 0; i < units_.size(); ++i) {
      if (units_[i].kind == Unit::kQuery) queries_.push_back(static_cast<int>(i));
    }
    // Every query unit is replayed as a one-member batch.
    singles_.resize(units_.size());
    for (size_t i = 0; i < units_.size(); ++i) {
      singles_[i].schema = units_[i].schema;
      if (units_[i].kind == Unit::kQuery) singles_[i].requests = {units_[i].request};
    }
    span1_.assign(units_.size(), 0);
    span2_.assign(units_.size(), 0);
    span3_.assign(units_.size(), 0);
    nested_engine_ns_.assign(units_.size(), 0);
    ack1_.assign(units_.size(), 0);
    responses_.resize(units_.size());
  }

  Metrics Run(const TimedResult& timed) {
    snapshot_ = timed.snapshot_path;
    // The first replay in the process runs cold (allocator, page cache), so
    // it is discarded; the overhead compares the next two.
    SocketLayer(/*record=*/false);
    const double traced_s = SocketLayer(/*record=*/true);
    const double untraced_s = SocketLayer(/*record=*/false);
    SessionLayer();
    EngineLayer();
    DeciderLayer();
    SchemaLayer();
    WireLayer();
    WriteSpans();

    Metrics m;
    std::vector<double> ack, result, socket_self, session_self, hit, miss_self;
    double e2e_total = 0;
    double query_e2e = 0, layer_sum = 0;
    for (int i : queries_) {
      const size_t u = static_cast<size_t>(i);
      ack.push_back(Us(ack1_[u]));
      result.push_back(Us(span1_[u]));
      socket_self.push_back(Us(span1_[u] - span2_[u]));
      session_self.push_back(Us(span2_[u] - span3_[u]));
      if (responses_[u].memo_hit) {
        hit.push_back(Us(span3_[u]));
      } else {
        miss_self.push_back(Us(span3_[u] - parse_ns_[u] - decide_ns_[u]));
      }
      const xpathsat::obs::RequestTrace& t = responses_[u].trace;
      query_e2e += static_cast<double>(span1_[u]);
      layer_sum += static_cast<double>(span1_[u] - nested_engine_ns_[u]) +
                   static_cast<double>(span3_[u]) -
                   static_cast<double>(t.parse_ns + t.decide_ns) +
                   static_cast<double>(parse_ns_[u] + decide_ns_[u]);
    }
    for (size_t u = 0; u < units_.size(); ++u) e2e_total += static_cast<double>(span1_[u]);
    m["client.ack_p50_us"] = {Percentile(ack, 50), "us"};
    m["client.result_p50_us"] = {Percentile(result, 50), "us"};
    m["server.socket_self_p50_us"] = {Percentile(socket_self, 50), "us"};
    m["server.session_self_p50_us"] = {Percentile(session_self, 50), "us"};
    m["engine.hit_p50_us"] = {Percentile(hit, 50), "us"};
    m["engine.miss_self_p50_us"] = {Percentile(miss_self, 50), "us"};
    auto ratio = [](uint64_t a, uint64_t b) {
      return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
    };
    const xpathsat::SatEngineStats& d = stats_delta_;
    m["engine.memo_hit_ratio"] = {ratio(d.memo_hits, d.memo_misses), "ratio"};
    m["engine.query_cache_hit_ratio"] = {
        ratio(d.query_cache_hits, d.query_cache_misses), "ratio"};
    m["engine.rewrite_hit_ratio"] = {
        ratio(d.rewrite_cache_hits, d.rewrite_cache_misses), "ratio"};
    m["engine.dtd_cache_hit_ratio"] = {
        ratio(d.dtd_cache_hits, d.dtd_cache_misses), "ratio"};

    double decide_total = 0;
    for (int r = 0; r < kRouteCount; ++r) {
      std::vector<double> times;
      for (const auto& [route, us] : decides_) {
        if (route == kRoutes[r]) times.push_back(us);
      }
      for (double t : times) decide_total += t * 1e3;
      const std::string suffix = std::string(".") + kRoutes[r];
      m["sat.decide_p50_us" + suffix] = {Percentile(times, 50), "us"};
      m["sat.decide_p99_us" + suffix] = {Percentile(times, 99), "us"};
      m["sat.decide_count" + suffix] = {static_cast<double>(times.size()), "count"};
    }
    m["sat.rewrite_p50_us"] = {Percentile(rewrite_us_, 50), "us"};
    m["sat.unknown_count"] = {static_cast<double>(unknown_), "count"};
    m["sat.self_share"] = {e2e_total > 0 ? decide_total / e2e_total : 0, "ratio"};
    m["xpath.parse_p50_us"] = {Percentile(parse_us_, 50), "us"};
    m["xpath.parse_count"] = {static_cast<double>(parse_us_.size()), "count"};
    m["sat.compile_p50_us"] = {Percentile(compile_us_, 50), "us"};
    m["sat.compile_count"] = {static_cast<double>(compile_us_.size()), "count"};
    m["xml.dtd_parse_p50_us"] = {Percentile(dtd_parse_us_, 50), "us"};
    m["xml.dtd_parse_count"] = {static_cast<double>(dtd_parse_us_.size()), "count"};
    m["net.decode_ns_per_line"] = {decode_line_ns_, "ns"};
    m["net.decode_ns_per_frame"] = {decode_frame_ns_, "ns"};
    m["protocol.parse_ns"] = {parse_cmd_ns_, "ns"};
    m["protocol.format_ns"] = {format_ns_, "ns"};
    m["store.save_ms"] = {save_ms_, "ms"};
    m["store.load_ms"] = {load_ms_, "ms"};
    m["store.snapshot_kb"] = {snapshot_kb_, "kB"};
    m["store.records_skipped"] = {records_skipped_, "count"};
    m["gen.lag_p99_us"] = {timed.gen_lag_p99_us, "us"};
    m["gen.cpu_frac"] = {timed.gen_cpu_frac, "ratio"};
    m["e2e.ops_per_s_pooled"] = {timed.ops_per_s_pooled, "op/s"};
    m["e2e.op_latency_p99_pooled_us"] = {timed.latency_p99_pooled_us, "us"};
    m["trace.layer_sum_vs_e2e"] = {query_e2e > 0 ? layer_sum / query_e2e : 0, "ratio"};
    m["trace.overhead_pct"] = {(traced_s - untraced_s) / untraced_s * 100, "%"};
    m["failed_ratio"] = {timed.failed_ratio, "ratio"};
    m["unknown_ratio"] = {timed.unknown_ratio, "ratio"};
    std::fprintf(stderr,
                 "traced %s: %zu units (%zu queries), %d registrations\n",
                 cfg_.workload_name.c_str(), units_.size(), queries_.size(),
                 registrations_);
    return m;
  }

 private:
  const Schema& SchemaOf(const Unit& u) const {
    return s_.schemas[static_cast<size_t>(u.schema)];
  }

  SatEngineOptions EngineOptions() const {
    SatEngineOptions o;
    o.num_threads = cfg_.server_threads;
    return o;
  }

  // Brings a fresh engine to the timed server's starting state.
  void Warm(SatEngine* engine) const {
    if (!snapshot_.empty()) engine->LoadSnapshot(snapshot_);
  }

  void Record(int unit, const char* layer, int64_t start, int64_t end) {
    spans_.push_back(Span{unit, layer, start, end});
  }

  // L1. Returns the replay's wall time (the overhead comparison).
  double SocketLayer(bool record) {
    SatEngine engine(EngineOptions());
    Warm(&engine);
    xpathsat::server::SocketServerOptions so;
    so.unix_path = cfg_.work_dir + "/trace.sock";
    xpathsat::server::SocketServer server(&engine, so);
    if (!server.Start().ok()) Fail(cfg_, "in-process server did not start");
    // Sum and count of the engine's Submit-to-fulfilment spans so far.
    auto engine_total = [&engine] {
      const xpathsat::obs::Histogram* h =
          engine.metrics().FindHistogram("request_total_ns");
      if (h == nullptr) return std::make_pair(uint64_t{0}, uint64_t{0});
      const xpathsat::obs::Histogram::Snapshot snap = h->TakeSnapshot();
      return std::make_pair(snap.sum_ns, snap.count);
    };
    Outcomes outcomes;
    const double wall = [&] {
      WireConn conn(cfg_, s_, "unix:" + so.unix_path, false, 0, &outcomes);
      for (const Schema& sc : s_.schemas) {
        if (sc.at_setup) conn.Register(sc);
      }
      for (const Op& op : s_.warmup) {
        conn.Send(&op, NowNs(), nullptr, false);
        conn.WaitAllDone();
      }
      const int64_t start = NowNs();
      for (size_t u = 0; u < units_.size(); ++u) {
        const Unit& unit = units_[u];
        const int64_t t0 = NowNs();
        int64_t t1 = 0;
        if (unit.kind == Unit::kQuery) {
          Phase phase;
          const auto before = record ? engine_total() : std::make_pair(uint64_t{0}, uint64_t{0});
          conn.Send(&singles_[u], t0, record ? &phase : nullptr, false);
          conn.WaitAllDone();
          if (record) {
            t1 = t0 + static_cast<int64_t>(phase.latency_us.at(0) * 1e3);
            ack1_[u] = static_cast<int64_t>(phase.ack_us.at(0) * 1e3);
            // The engine records the span just before it fulfils the
            // ticket; wait until it is counted.
            auto after = engine_total();
            for (int spin = 0; after.second == before.second && spin < 100000; ++spin) {
              std::this_thread::yield();
              after = engine_total();
            }
            if (after.second != before.second + 1) {
              Fail(cfg_, "engine span count moved by " +
                             std::to_string(after.second - before.second) +
                             " for one query");
            }
            nested_engine_ns_[u] = static_cast<int64_t>(after.first - before.first);
            // The histogram gives the nested span's length, not its start;
            // it is recorded as ending with the reply.
            Record(static_cast<int>(u), "socket.engine", t1 - nested_engine_ns_[u], t1);
          }
        } else {
          const std::string verb = unit.kind == Unit::kDtd
                                       ? "dtd " + SchemaOf(unit).name + " " + SchemaOf(unit).path
                                       : "drop " + SchemaOf(unit).name;
          conn.Control(verb, &t1);
        }
        if (record) {
          span1_[u] = t1 - t0;
          Record(static_cast<int>(u), "socket", t0, t1);
        }
      }
      return static_cast<double>(NowNs() - start) / 1e9;
    }();
    server.Stop();
    if (!outcomes.mismatch.empty()) Fail(cfg_, outcomes.mismatch);
    return wall;
  }

  // L2: the session over an in-memory sink.
  void SessionLayer() {
    SatEngine engine(EngineOptions());
    Warm(&engine);
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::pair<int64_t, std::string>> lines;
    xpathsat::server::ServerSession session(
        &engine, xpathsat::server::SessionOptions{},
        [&](const std::string& line) {
          const int64_t now = NowNs();
          std::lock_guard<std::mutex> lock(mu);
          lines.emplace_back(now, line);
          cv.notify_all();
        });
    // Waits for a line matching `pred`; returns its arrival time.
    auto wait_line = [&](auto pred) {
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        for (auto& [t, line] : lines) {
          if (pred(line)) {
            const int64_t at = t;
            const std::string text = line;
            lines.clear();
            lock.unlock();
            return std::make_pair(at, text);
          }
        }
        cv.wait(lock);
      }
    };
    auto is_done = [](const std::string& l) {
      return l.size() > 5 && l.compare(l.size() - 5, 5, " done") == 0;
    };
    auto is_ok = [](const std::string& l) { return l.rfind("ok ", 0) == 0 || l.rfind("err ", 0) == 0; };
    auto query = [&](const Schema& sc, int request) {
      session.HandleWire("batch 1", false, 0);
      session.HandleWire(
          "query " + sc.name + " " + s_.requests[static_cast<size_t>(request)].query,
          false, 0);
    };
    session.HandleWire("hello batch", false, 0);
    wait_line(is_ok);
    for (const Schema& sc : s_.schemas) {
      if (!sc.at_setup) continue;
      session.HandleWire("dtd " + sc.name + " " + sc.path, false, 0);
      wait_line(is_ok);
    }
    for (const Op& op : s_.warmup) {
      const Schema& sc = s_.schemas[static_cast<size_t>(op.schema)];
      if (op.job) {
        session.HandleWire("dtd " + sc.name + " " + sc.path, false, 0);
        wait_line(is_ok);
      }
      for (int r : op.requests) {
        query(sc, r);
        wait_line(is_done);
      }
      if (op.job) {
        session.HandleWire("drop " + sc.name, false, 0);
        wait_line(is_ok);
      }
    }
    for (size_t u = 0; u < units_.size(); ++u) {
      const Unit& unit = units_[u];
      const Schema& sc = SchemaOf(unit);
      const int64_t t0 = NowNs();
      int64_t t1 = 0;
      if (unit.kind == Unit::kQuery) {
        query(sc, unit.request);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          for (auto& [t, line] : lines) {
            if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0]))) {
              t1 = t;
            }
          }
          return t1 != 0;
        });
        lock.unlock();
        wait_line(is_done);
      } else {
        session.HandleWire(unit.kind == Unit::kDtd ? "dtd " + sc.name + " " + sc.path
                                                   : "drop " + sc.name,
                           false, 0);
        t1 = wait_line(is_ok).first;
      }
      span2_[u] = t1 - t0;
      Record(static_cast<int>(u), "session", t0, t1);
    }
    session.Drain();
  }

  // L3: the engine, plus L7 (its snapshot) at the end.
  void EngineLayer() {
    SatEngine engine(EngineOptions());
    Warm(&engine);
    std::map<std::string, xpathsat::DtdHandle> handles;
    auto reg = [&](const Schema& sc) {
      const uint64_t misses = engine.stats().dtd_cache_misses;
      auto h = engine.RegisterDtdText(ReadFile(sc.path));
      if (!h.ok()) Fail(cfg_, "engine rejected schema " + sc.name + ": " + h.error());
      handles[sc.name] = h.value();
      compiled_[sc.name] = h.value().compiled();
      registrations_++;
      compiled_here_.push_back(std::make_pair(sc.path, engine.stats().dtd_cache_misses > misses));
    };
    std::mutex mu;
    std::condition_variable cv;
    auto submit = [&](const Schema& sc, int request, xpathsat::SatResponse* out) {
      xpathsat::SatRequest req;
      req.query = s_.requests[static_cast<size_t>(request)].query;
      req.dtd = handles.at(sc.name);
      req.options.compute_witness = false;
      const int64_t t0 = NowNs();
      int64_t t1 = 0;
      xpathsat::SatTicket ticket = engine.Submit(std::move(req));
      ticket.OnComplete([&](const xpathsat::SatResponse& r) {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(mu);
        t1 = now;
        *out = r;
        cv.notify_all();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return t1 != 0; });
      return std::make_pair(t0, t1);
    };
    for (const Schema& sc : s_.schemas) {
      if (sc.at_setup) reg(sc);
    }
    for (const Op& op : s_.warmup) {
      const Schema& sc = s_.schemas[static_cast<size_t>(op.schema)];
      if (op.job) reg(sc);
      xpathsat::SatResponse r;
      for (int q : op.requests) submit(sc, q, &r);
      if (op.job) handles.erase(sc.name);
    }
    const xpathsat::SatEngineStats before = engine.stats();
    for (size_t u = 0; u < units_.size(); ++u) {
      const Unit& unit = units_[u];
      const Schema& sc = SchemaOf(unit);
      int64_t t0 = NowNs(), t1 = 0;
      if (unit.kind == Unit::kQuery) {
        std::tie(t0, t1) = submit(sc, unit.request, &responses_[u]);
        const Request& r = s_.requests[static_cast<size_t>(unit.request)];
        if (responses_[u].report.decision.verdict != r.expected) {
          Fail(cfg_, "engine verdict differs from the expected one for '" + r.query + "'");
        }
      } else if (unit.kind == Unit::kDtd) {
        reg(sc);
        t1 = NowNs();
      } else {
        handles.erase(sc.name);
        t1 = NowNs();
      }
      span3_[u] = t1 - t0;
      Record(static_cast<int>(u), "engine", t0, t1);
    }
    const xpathsat::SatEngineStats after = engine.stats();
    stats_delta_.memo_hits = after.memo_hits - before.memo_hits;
    stats_delta_.memo_misses = after.memo_misses - before.memo_misses;
    stats_delta_.query_cache_hits = after.query_cache_hits - before.query_cache_hits;
    stats_delta_.query_cache_misses = after.query_cache_misses - before.query_cache_misses;
    stats_delta_.rewrite_cache_hits = after.rewrite_cache_hits - before.rewrite_cache_hits;
    stats_delta_.rewrite_cache_misses = after.rewrite_cache_misses - before.rewrite_cache_misses;
    stats_delta_.dtd_cache_hits = after.dtd_cache_hits - before.dtd_cache_hits;
    stats_delta_.dtd_cache_misses = after.dtd_cache_misses - before.dtd_cache_misses;

    // L7: snapshot the engine as the replay left it, load it cold.
    const std::string snap = cfg_.work_dir + "/trace.snap";
    const int64_t s0 = NowNs();
    xpathsat::SnapshotSaveResult saved = engine.SaveSnapshot(snap);
    const int64_t s1 = NowNs();
    if (!saved.status.ok()) Fail(cfg_, "SaveSnapshot: " + saved.status.message());
    struct stat st{};
    stat(snap.c_str(), &st);
    snapshot_kb_ = static_cast<double>(st.st_size) / 1024.0;
    SatEngine cold(EngineOptions());
    const int64_t l0 = NowNs();
    xpathsat::SnapshotLoadResult loaded = cold.LoadSnapshot(snap);
    const int64_t l1 = NowNs();
    if (!loaded.status.ok()) Fail(cfg_, "LoadSnapshot: " + loaded.status.message());
    save_ms_ = static_cast<double>(s1 - s0) / 1e6;
    load_ms_ = static_cast<double>(l1 - l0) / 1e6;
    records_skipped_ = static_cast<double>(loaded.corrupt_records + loaded.rejected_records);
    Record(-1, "store.save", s0, s1);
    Record(-1, "store.load", l0, l1);
  }

  // L4: what the engine's deciders did, replayed bare.
  void DeciderLayer() {
    xpathsat::RewriteCache rewrites(4096);
    xpathsat::SatOptions options;
    options.compute_witness = false;
    parse_ns_.assign(units_.size(), 0);
    decide_ns_.assign(units_.size(), 0);
    for (int i : queries_) {
      const size_t u = static_cast<size_t>(i);
      if (responses_[u].memo_hit) continue;
      const Unit& unit = units_[u];
      const Request& r = s_.requests[static_cast<size_t>(unit.request)];
      const int64_t p0 = NowNs();
      auto parsed = xpathsat::ParsePath(r.query);
      const xpathsat::Features f = xpathsat::DetectFeatures(*parsed.value());
      const int64_t p1 = NowNs();
      if (!responses_[u].query_cache_hit) {
        parse_ns_[u] = p1 - p0;
        parse_us_.push_back(Us(p1 - p0));
        Record(i, "xpath.parse", p0, p1);
      }
      xpathsat::RewriteCache::TakeThreadRewriteNs();
      const int64_t d0 = NowNs();
      xpathsat::SatReport rep = xpathsat::DecideSatisfiability(
          *parsed.value(), f, *compiled_.at(SchemaOf(unit).name), options, &rewrites);
      const int64_t d1 = NowNs();
      const uint64_t rw = xpathsat::RewriteCache::TakeThreadRewriteNs();
      if (rw > 0) rewrite_us_.push_back(Us(static_cast<int64_t>(rw)));
      decide_ns_[u] = d1 - d0;
      decides_.emplace_back(RouteName(rep.algorithm), Us(d1 - d0));
      if (rep.decision.verdict == xpathsat::SatVerdict::kUnknown) ++unknown_;
      Record(i, "sat.decide", d0, d1);
    }
  }

  // L5: schema parse and compile for every registration the engine made
  // (compile only where the engine's DTD cache missed).
  void SchemaLayer() {
    for (const auto& [path, compiled] : compiled_here_) {
      const std::string text = ReadFile(path);
      const int64_t t0 = NowNs();
      auto dtd = xpathsat::Dtd::Parse(text);
      const int64_t t1 = NowNs();
      dtd_parse_us_.push_back(Us(t1 - t0));
      if (!compiled) continue;
      const int64_t c0 = NowNs();
      auto artifacts = xpathsat::CompiledDtd::Compile(dtd.value());
      const int64_t c1 = NowNs();
      if (artifacts == nullptr) Fail(cfg_, "CompiledDtd::Compile failed");
      compile_us_.push_back(Us(c1 - c0));
    }
  }

  // L6: framing decode, command parse and result formatting, per call.
  void WireLayer() {
    std::vector<std::string> lines;
    for (int i : queries_) {
      const Unit& u = units_[static_cast<size_t>(i)];
      lines.push_back("query " + SchemaOf(u).name + " " +
                      s_.requests[static_cast<size_t>(u.request)].query);
    }
    auto decode = [&](bool frames) {
      xpathsat::net::LineDecoder decoder(xpathsat::protocol::kMaxLineBytes);
      decoder.set_allow_binary(frames);
      std::string out;
      int64_t total = 0;
      for (const std::string& line : lines) {
        const std::string wire =
            frames ? xpathsat::protocol::EncodeFrame(line) : line + "\n";
        const int64_t t0 = NowNs();
        decoder.Feed(wire.data(), wire.size());
        while (decoder.Next(&out) != xpathsat::net::LineDecoder::Event::kNone) {
        }
        total += NowNs() - t0;
      }
      return lines.empty() ? 0.0 : static_cast<double>(total) / lines.size();
    };
    decode_line_ns_ = decode(false);
    decode_frame_ns_ = decode(true);
    int64_t total = 0;
    for (const std::string& line : lines) {
      const int64_t t0 = NowNs();
      xpathsat::protocol::ParseResult parsed = xpathsat::protocol::ParseCommandLine(line);
      total += NowNs() - t0;
      if (parsed.status != xpathsat::protocol::ParseStatus::kCommand) {
        Fail(cfg_, "ParseCommandLine rejected '" + line + "'");
      }
    }
    parse_cmd_ns_ = lines.empty() ? 0.0 : static_cast<double>(total) / lines.size();
    total = 0;
    for (int i : queries_) {
      const size_t u = static_cast<size_t>(i);
      const int64_t t0 = NowNs();
      const std::string line = xpathsat::protocol::FormatResultLine(
          u + 1, s_.requests[static_cast<size_t>(units_[u].request)].query, responses_[u]);
      total += NowNs() - t0;
      if (line.empty()) Fail(cfg_, "FormatResultLine returned nothing");
    }
    format_ns_ = queries_.empty() ? 0.0 : static_cast<double>(total) / queries_.size();
  }

  void WriteSpans() const {
    const std::string path = cfg_.work_dir + "/../" + cfg_.workload_name +
                             "-seed" + std::to_string(cfg_.seed) + ".spans.tsv";
    std::ofstream out(path);
    // `request` is the stream index of a query unit's request (-1 for
    // registrations, drops and whole-engine store spans).
    out << "unit\trequest\tlayer\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      const int request = s.unit < 0 ? -1 : units_[static_cast<size_t>(s.unit)].request;
      out << s.unit << '\t' << request << '\t' << s.layer << '\t' << s.start
          << '\t' << s.end << '\n';
    }
  }

  const Config& cfg_;
  const Stream& s_;
  std::string snapshot_;
  std::vector<Unit> units_;
  std::vector<int> queries_;  // indices of query units
  std::vector<Op> singles_;   // per unit: its one-member batch
  std::vector<int64_t> span1_, span2_, span3_, ack1_, parse_ns_, decide_ns_;
  std::vector<int64_t> nested_engine_ns_;  // L1: engine time inside the socket span
  std::vector<xpathsat::SatResponse> responses_;
  std::map<std::string, std::shared_ptr<const xpathsat::CompiledDtd>> compiled_;
  std::vector<std::pair<std::string, bool>> compiled_here_;  // (path, compiled)
  xpathsat::SatEngineStats stats_delta_;
  std::vector<std::pair<std::string, double>> decides_;  // (route, us)
  std::vector<double> rewrite_us_, parse_us_, compile_us_, dtd_parse_us_;
  int unknown_ = 0;
  int registrations_ = 0;
  double decode_line_ns_ = 0, decode_frame_ns_ = 0, parse_cmd_ns_ = 0, format_ns_ = 0;
  double save_ms_ = 0, load_ms_ = 0, snapshot_kb_ = 0, records_skipped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace

Metrics RunTraced(const Config& cfg, const Stream& stream,
                  const TimedResult& timed) {
  return Ladder(cfg, stream).Run(timed);
}

}  // namespace perfbench
