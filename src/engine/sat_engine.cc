#include "src/engine/sat_engine.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/store/snapshot.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/xpath/parser.h"

namespace xpathsat {

namespace engine_internal {

// The one record of a submitted request, shared by its tickets, its pool
// job and its deadline entry. The phase runs queued -> running -> done under
// `mu`: Claim is the queued -> running step, and whoever takes it — the
// worker about to execute, a TryCancel caller, or the deadline reaper — is
// the one that fulfils. Fulfill is the running -> done step; it stores the
// response and takes the pending callbacks in the same critical section, so
// an OnComplete either lands in that list or sees kDone and runs inline —
// never both, never neither.
struct TicketState {
  enum class Phase { kQueued, kRunning, kDone };
  using Callback = std::function<void(const SatResponse&)>;

  TicketState(uint64_t ticket_id, SatRequest queued)
      : id(ticket_id), request(std::move(queued)) {}

  const uint64_t id;
  util::Mutex mu;
  util::CondVar done_cv;
  Phase phase GUARDED_BY(mu) = Phase::kQueued;
  // Held here while queued and handed to the claimant, so a revoked request
  // releases its DtdHandle pin before its completion is observable.
  SatRequest request GUARDED_BY(mu);
  // Written once, by Fulfill; never changes after phase reads kDone, so a
  // reference taken under `mu` at kDone stays valid without the lock for as
  // long as the record lives.
  SatResponse response GUARDED_BY(mu);
  std::vector<Callback> callbacks GUARDED_BY(mu);

  bool done() const REQUIRES(mu) { return phase == Phase::kDone; }

  // queued -> running. Returns the request iff this call won; every later
  // Claim returns nullopt.
  std::optional<SatRequest> Claim() {
    util::MutexLock lock(mu);
    if (phase != Phase::kQueued) return std::nullopt;
    phase = Phase::kRunning;
    return std::move(request);
  }

  // running -> done: stores the response, wakes the waiters, then runs the
  // callbacks registered so far on this thread, in registration order. They
  // run outside `mu`, so a callback may register another (it runs inline).
  void Fulfill(SatResponse r) {
    std::vector<Callback> ready;
    const SatResponse* stored = nullptr;
    {
      util::MutexLock lock(mu);
      response = std::move(r);
      phase = Phase::kDone;
      ready.swap(callbacks);
      stored = &response;
    }
    done_cv.NotifyAll();
    for (Callback& cb : ready) cb(*stored);
  }
};

// Control block behind a DtdHandle: pins the compiled artifacts and leaves
// the live_dtd_handles gauge when the last handle copy is released. The
// gauge is held through the shared registry, so that release stays safe
// even after the issuing engine is destroyed.
struct DtdPin {
  std::shared_ptr<const CompiledDtd> compiled;
  uint64_t id = 0;
  std::shared_ptr<obs::Gauge> live;
  ~DtdPin() {
    if (live) live->Add(-1);
  }
};

// Owner of one artifact the engine compiled: every shared_ptr the
// engine hands out aliases it, so the artifact dies, and leaves the
// live_compiled_artifacts gauge, with its last user. The gauge is held
// through the shared registry, so that release stays safe even after the
// issuing engine is destroyed.
struct TrackedArtifact {
  std::shared_ptr<const CompiledDtd> compiled;
  std::shared_ptr<obs::Gauge> live;
  ~TrackedArtifact() {
    if (live) live->Add(-1);
  }
};

}  // namespace engine_internal

namespace {

void AppendRawU64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    s->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Memo key: the canonical printing (exact), a separator that cannot appear
// in a printed query, then the raw fingerprint and options-digest bytes.
std::string MemoKey(const std::string& canonical, uint64_t fingerprint,
                    uint64_t options_digest) {
  std::string key;
  key.reserve(canonical.size() + 17);
  key.append(canonical);
  key.push_back('\0');
  AppendRawU64(&key, fingerprint);
  AppendRawU64(&key, options_digest);
  return key;
}

uint64_t ReadRawU64(const std::string& s, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(s[pos + i])) << (8 * i);
  }
  return v;
}

// The fingerprint bytes of a MemoKey.
uint64_t MemoKeyFingerprint(const std::string& key) {
  return ReadRawU64(key, key.size() - 16);
}

SatResponse NotRunResponse(const char* algorithm, const char* why) {
  SatResponse resp;
  resp.status = Status::Ok();
  resp.report.decision = SatDecision::Unknown(why);
  resp.report.algorithm = algorithm;
  resp.trace.route = algorithm;
  return resp;
}

uint64_t ToNs(std::chrono::steady_clock::duration d) {
  if (d.count() < 0) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

uint64_t DtdHandle::id() const { return pin_ ? pin_->id : 0; }

uint64_t DtdHandle::fingerprint() const {
  return pin_ ? pin_->compiled->fingerprint : 0;
}

std::shared_ptr<const CompiledDtd> DtdHandle::compiled() const {
  return pin_ ? pin_->compiled : nullptr;
}

SatResponse SatTicket::Get() const {
  util::MutexLock lock(state_->mu);
  while (!state_->done()) state_->done_cv.Wait(state_->mu);
  return state_->response;
}

bool SatTicket::Ready() const {
  util::MutexLock lock(state_->mu);
  return state_->done();
}

bool SatTicket::WaitFor(int64_t timeout_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  util::MutexLock lock(state_->mu);
  while (!state_->done()) {
    if (!state_->done_cv.WaitUntil(state_->mu, deadline)) return state_->done();
  }
  return true;
}

void SatTicket::OnComplete(std::function<void(const SatResponse&)> cb) const {
  const SatResponse* stored = nullptr;
  {
    util::MutexLock lock(state_->mu);
    if (!state_->done()) {
      state_->callbacks.push_back(std::move(cb));
      return;
    }
    stored = &state_->response;
  }
  cb(*stored);
}

SatEngineOptions SatEngine::Normalize(SatEngineOptions options) {
  if (options.dtd_cache_capacity < 1) options.dtd_cache_capacity = 1;
  return options;
}

// The caches skip their own probe counters (count_probes = false): the
// engine's registry counts each request once, and a second contended
// counter per probe would only serialize the hot path.
SatEngine::SatEngine(const SatEngineOptions& options)
    : options_(Normalize(options)),
      dtd_cache_(options_.dtd_cache_capacity, /*count_probes=*/false),
      query_cache_(kQueryCacheCapacity, /*count_probes=*/false),
      // A disabled memo (capacity 0) is a one-entry cache that the
      // memo_enabled gate in Execute never touches.
      memo_(options_.memo_capacity, /*count_probes=*/false),
      rewrite_cache_(options_.rewrite_cache_capacity > 0
                         ? std::make_unique<RewriteCache>(
                               options_.rewrite_cache_capacity)
                         : nullptr),
      metrics_(std::make_shared<obs::MetricsRegistry>()),
      live_handles_(metrics_, metrics_->gauge("live_dtd_handles")),
      live_artifacts_(metrics_, metrics_->gauge("live_compiled_artifacts")),
      slow_log_(kSlowLogCapacity),
      start_time_(Clock::now()),
      reaper_([this] { ReaperLoop(); }),
      pool_(options_.num_threads) {
  // Resolve the per-phase histograms once; the request path then mutates
  // them lock-free through these pointers. (reaper_ only touches the route
  // counters, which are constructed before it starts.)
  hist_wire_decode_ns_ = metrics_->histogram("request_wire_decode_ns");
  hist_queue_ns_ = metrics_->histogram("request_queue_ns");
  hist_parse_ns_ = metrics_->histogram("request_parse_ns");
  hist_rewrite_ns_ = metrics_->histogram("request_rewrite_ns");
  hist_decide_ns_ = metrics_->histogram("request_decide_ns");
  hist_total_ns_ = metrics_->histogram("request_total_ns");
  hist_dtd_compile_ns_ = metrics_->histogram("dtd_compile_ns");
  hist_store_load_ns_ = metrics_->histogram("artifact_store_load_ns");
  slow_requests_ = metrics_->counter("slow_requests");
  for (size_t i = 0; i < kNumSatEngineCounters; ++i) {
    counters_[i] = metrics_->counter(kSatEngineCounters[i].name);
  }
}

SatEngine::~SatEngine() {
  {
    util::MutexLock lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.NotifyAll();
  if (reaper_.joinable()) reaper_.join();
  // pool_ is destroyed next (it is the last member): queued jobs drain and
  // fulfil their tickets while the caches are still alive. Deadlines no
  // longer fire during the drain — shutdown runs work instead of expiring
  // it.
}

std::shared_ptr<const CompiledDtd> SatEngine::LookupDtd(const Dtd& dtd,
                                                        uint64_t fp,
                                                        bool* hit) {
  // Verify hits: a fingerprint collision (64-bit FNV; constructible by an
  // adversary) must never serve verdicts for the wrong schema.
  std::optional<std::shared_ptr<const CompiledDtd>> cached =
      dtd_cache_.LookupIf(fp, [&](std::shared_ptr<const CompiledDtd>& v) {
        return v->dtd.EquivalentTo(dtd);
      });
  if (cached.has_value()) {
    if (hit) *hit = true;
    return *cached;
  }
  // Compile outside any lock: a slow compilation must not serialize the
  // pool. Two racing threads may compile the same DTD; the first insert
  // wins and both use the winner. Every compile the engine runs
  // (registration, snapshot load) is one dtd_compile_ns record.
  const Clock::time_point compile_start = Clock::now();
  std::shared_ptr<const CompiledDtd> compiled =
      Track(CompiledDtd::Compile(dtd));
  hist_dtd_compile_ns_->Record(ToNs(Clock::now() - compile_start));
  std::vector<std::shared_ptr<const CompiledDtd>> evicted;
  std::shared_ptr<const CompiledDtd> resident =
      dtd_cache_.InsertIfAbsent(fp, compiled, &evicted);
  if (!evicted.empty()) {
    // An evicted artifact no handle holds dies here, and freeing its label
    // graphs and NFAs costs about what a decide does: a worker pays for it,
    // so the registration that evicted it does not wait.
    pool_.Submit([dead = std::move(evicted)]() mutable { dead.clear(); });
  }
  if (resident != compiled) {
    if (resident->dtd.EquivalentTo(dtd)) {
      if (hit) *hit = true;  // raced: someone else filled it first
      return resident;
    }
    // Colliding slot stays with its current owner; serve this registration
    // from the fresh artifacts without caching them.
  }
  if (hit) *hit = false;
  return compiled;
}

std::shared_ptr<const CompiledDtd> SatEngine::Track(
    std::shared_ptr<const CompiledDtd> compiled) const {
  auto owner = std::make_shared<engine_internal::TrackedArtifact>();
  owner->compiled = std::move(compiled);
  owner->live = live_artifacts_;
  live_artifacts_->Add(1);
  const CompiledDtd* artifact = owner->compiled.get();
  return std::shared_ptr<const CompiledDtd>(std::move(owner), artifact);
}

std::shared_ptr<const CompiledDtd> SatEngine::CompileAndCache(const Dtd& dtd) {
  return LookupDtd(dtd, dtd.Fingerprint(), nullptr);
}

DtdHandle SatEngine::RegisterDtd(const Dtd& dtd) {
  bool hit = false;
  std::shared_ptr<const CompiledDtd> compiled =
      LookupDtd(dtd, dtd.Fingerprint(), &hit);
  hit ? Count<&SatEngineStats::dtd_cache_hits>()
      : Count<&SatEngineStats::dtd_cache_misses>();
  auto pin = std::make_shared<engine_internal::DtdPin>();
  pin->compiled = std::move(compiled);
  pin->id = next_handle_id_.fetch_add(1, std::memory_order_relaxed);
  pin->live = live_handles_;
  live_handles_->Add(1);
  return DtdHandle(std::move(pin));
}

Result<DtdHandle> SatEngine::RegisterDtdText(const std::string& dtd_text) {
  Result<Dtd> parsed = Dtd::Parse(dtd_text);
  if (!parsed.ok()) {
    return Result<DtdHandle>::Error("DTD parse error: " + parsed.error());
  }
  return RegisterDtd(parsed.value());
}

std::shared_ptr<const SatEngine::CachedQuery> SatEngine::LookupQuery(
    const std::string& text, bool* hit, std::string* parse_error,
    uint64_t* parse_ns) {
  std::optional<std::shared_ptr<const CachedQuery>> cached =
      query_cache_.Lookup(text);
  if (cached.has_value()) {
    *hit = true;
    return *cached;
  }
  // The parse span covers real parse/canonicalize work only: cache hits
  // leave *parse_ns at 0 (and record nothing), so the parse histogram is a
  // distribution over actual parses, not over requests.
  const Clock::time_point parse_start = Clock::now();
  Result<std::unique_ptr<PathExpr>> parsed = ParsePath(text);
  if (!parsed.ok()) {
    *hit = false;
    *parse_error = parsed.error();
    *parse_ns = ToNs(Clock::now() - parse_start);
    return nullptr;
  }
  auto entry = std::make_shared<CachedQuery>();
  entry->ast = std::shared_ptr<const PathExpr>(std::move(parsed).value());
  entry->features = DetectFeatures(*entry->ast);
  entry->canonical = entry->ast->ToString();

  // Textual variants of one query share the canonical entry (racing parsers
  // of the same canonical form converge on the first insert); the raw text
  // becomes an alias key pointing at the shared entry. The key is copied out
  // first: the value argument moves `entry`, and argument evaluation order
  // is unspecified.
  const std::string canonical = entry->canonical;
  std::shared_ptr<const CachedQuery> result =
      query_cache_.InsertIfAbsent(canonical, std::move(entry));
  if (text != result->canonical) {
    query_cache_.InsertIfAbsent(text, result);
  }
  *hit = false;
  *parse_ns = ToNs(Clock::now() - parse_start);
  return result;
}

void SatEngine::FinishTrace(SatResponse* resp, const SatRequest& request,
                            uint64_t ticket_id, Clock::time_point submitted,
                            Clock::time_point end) {
  obs::RequestTrace& t = resp->trace;
  t.total_ns = ToNs(end - submitted);
  // The wire-decode span is measured by the serving layer before Submit and
  // rides in on the request; in-process callers leave it 0.
  t.wire_decode_ns = request.wire_decode_ns;
  // Phase histograms are distributions over phases that actually ran:
  // queue wait and the total span exist for every executed request, but a
  // zero parse/rewrite/decide span means the phase was skipped (cache hit,
  // memo hit) and is not recorded.
  if (t.wire_decode_ns != 0) hist_wire_decode_ns_->Record(t.wire_decode_ns);
  hist_queue_ns_->Record(t.queue_ns);
  if (t.parse_ns != 0) hist_parse_ns_->Record(t.parse_ns);
  if (t.rewrite_ns != 0) hist_rewrite_ns_->Record(t.rewrite_ns);
  if (t.decide_ns != 0) hist_decide_ns_->Record(t.decide_ns);
  hist_total_ns_->Record(t.total_ns);
  route_counters_.Increment(t.route);
  if (options_.slow_request_ns > 0 &&
      t.total_ns >= static_cast<uint64_t>(options_.slow_request_ns)) {
    slow_requests_->Increment();
    obs::SlowQueryRecord rec;
    rec.ticket_id = ticket_id;
    rec.dtd_fingerprint = resp->dtd_fingerprint;
    rec.query = request.query;
    rec.trace = t;
    slow_log_.Push(std::move(rec));
  }
}

SatResponse SatEngine::Execute(const SatRequest& request,
                               Clock::time_point submitted,
                               uint64_t ticket_id) {
  const Clock::time_point picked_up = Clock::now();
  SatResponse resp;
  resp.trace.queue_ns = ToNs(picked_up - submitted);
  if (!request.dtd.valid()) {
    resp.status = Status::Error("request has no DTD handle");
    resp.trace.route = "invalid-request";
    FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
    return resp;
  }
  if (request.deadline_ms > 0 &&
      picked_up - submitted >=
          std::chrono::milliseconds(request.deadline_ms)) {
    // The reaper normally cancels expired queued work before a worker ever
    // sees it; this check closes the race where a worker picks the job up
    // in the same instant the deadline passes.
    Count<&SatEngineStats::deadline_expirations>();
    resp = NotRunResponse("deadline",
                          "deadline expired before execution started");
    resp.trace.queue_ns = ToNs(picked_up - submitted);
    FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
    return resp;
  }

  bool query_hit = false;
  std::string parse_error;
  std::shared_ptr<const CachedQuery> query =
      LookupQuery(request.query, &query_hit, &parse_error,
                  &resp.trace.parse_ns);
  query_hit ? Count<&SatEngineStats::query_cache_hits>()
            : Count<&SatEngineStats::query_cache_misses>();
  if (query == nullptr) {
    Count<&SatEngineStats::parse_errors>();
    resp.status = Status::Error("query parse error: " + parse_error);
    resp.trace.route = "parse-error";
    FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
    return resp;
  }
  resp.query_cache_hit = query_hit;
  resp.fragment = query->features.FragmentName();

  // The handle pins the artifacts: no per-request fingerprinting, cache
  // probe, or equivalence check — registration already paid for those
  // (and recorded the compile into dtd_compile_ns).
  std::shared_ptr<const CompiledDtd> compiled = request.dtd.compiled();
  resp.dtd_fingerprint = compiled->fingerprint;

  const bool memo_enabled = options_.memo_capacity > 0;
  std::string memo_key;
  if (memo_enabled) {
    memo_key = MemoKey(query->canonical, compiled->fingerprint,
                       request.options.Digest());
    std::shared_ptr<const SatReport> memoized;
    memo_.LookupWith(memo_key, [&](MemoEntry& entry) {
      // Same fingerprint does not imply the same schema (64-bit FNV):
      // serve the memo only for the DTD it was computed against. Pointer
      // equality is the fast path (handles share one CompiledDtd, and so
      // one shared_dtd); the structural check only runs after an
      // eviction+recompile, and then refreshes the pin so subsequent hits
      // take the fast path again — RewriteCache::GetOrRewrite's rule.
      if (entry.dtd != compiled->shared_dtd) {
        if (!entry.dtd->EquivalentTo(compiled->dtd)) return false;
        entry.dtd = compiled->shared_dtd;
      }
      memoized = entry.report;
      return true;
    });
    if (memoized != nullptr) {
      Count<&SatEngineStats::memo_hits>();
      resp.report = *memoized;
      resp.memo_hit = true;
      resp.status = Status::Ok();
      resp.trace.route = "memo-hit";
      FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
      return resp;
    }
    Count<&SatEngineStats::memo_misses>();
  }

  // Reset this thread's rewrite accumulator so the span below is exactly
  // this request's Prop 3.3 work (a sub-span of decide_ns).
  RewriteCache::TakeThreadRewriteNs();
  Clock::time_point start = Clock::now();
  resp.report = DecideSatisfiability(*query->ast, query->features, *compiled,
                                     request.options, rewrite_cache_.get());
  const Clock::time_point decided = Clock::now();
  resp.elapsed_us =
      std::chrono::duration<double, std::micro>(decided - start).count();
  resp.status = Status::Ok();
  resp.trace.decide_ns = ToNs(decided - start);
  resp.trace.rewrite_ns = RewriteCache::TakeThreadRewriteNs();
  resp.trace.route = resp.report.algorithm;

  if (memo_enabled) {
    // On a race (or a key owned by a fingerprint-colliding schema) the
    // incumbent entry keeps the slot; this response was already computed.
    MemoEntry entry;
    entry.dtd = compiled->shared_dtd;
    entry.report = std::make_shared<const SatReport>(resp.report);
    memo_.InsertIfAbsent(memo_key, std::move(entry));
  }
  FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
  return resp;
}

SatTicket SatEngine::Submit(SatRequest request) {
  Count<&SatEngineStats::requests>();
  const int64_t deadline_ms = request.deadline_ms;
  auto state = std::make_shared<engine_internal::TicketState>(
      next_ticket_id_.fetch_add(1, std::memory_order_relaxed),
      std::move(request));

  SatTicket ticket;
  ticket.id_ = state->id;
  ticket.state_ = state;

  const Clock::time_point submitted = Clock::now();
  pool_.Submit([this, state, submitted] {
    std::optional<SatRequest> request = state->Claim();
    if (!request.has_value()) return;  // revoked while queued
    // The ticket is always fulfilled: an exception escaping a pool job
    // would std::terminate the process (and strand every waiter), so
    // decider failures surface as error responses instead.
    SatResponse resp;
    try {
      resp = Execute(*request, submitted, state->id);
    } catch (const std::exception& e) {
      resp = SatResponse();
      resp.status = Status::Error(std::string("internal error: ") + e.what());
    } catch (...) {
      resp = SatResponse();
      resp.status = Status::Error("internal error");
    }
    // Drop the worker's request copy (and its DtdHandle pin) before
    // fulfilment: a caller that observes Get() returning must also observe
    // live_dtd_handles() without this job's pin.
    request.reset();
    state->Fulfill(std::move(resp));
  });
  if (deadline_ms > 0) {
    {
      util::MutexLock lock(reaper_mu_);
      deadlines_.push(DeadlineEntry{
          submitted + std::chrono::milliseconds(deadline_ms), state});
    }
    reaper_cv_.NotifyOne();
  }
  return ticket;
}

bool SatEngine::TryCancel(const SatTicket& ticket) {
  // The claimed request (and its pin) dies with the full expression.
  if (!ticket.valid() || !ticket.state_->Claim().has_value()) return false;
  Count<&SatEngineStats::cancellations>();
  // Never-executed fulfilments bump their route counter but no phase
  // histograms — the request has no spans to speak of.
  route_counters_.Increment("cancelled");
  ticket.state_->Fulfill(
      NotRunResponse("cancelled", "cancelled before execution started"));
  return true;
}

void SatEngine::ReaperLoop() {
  for (;;) {
    std::shared_ptr<engine_internal::TicketState> expired;
    {
      util::MutexLock lock(reaper_mu_);
      for (;;) {
        if (reaper_stop_) return;
        if (deadlines_.empty()) {
          reaper_cv_.Wait(reaper_mu_);
          continue;
        }
        const Clock::time_point when = deadlines_.top().when;
        if (Clock::now() < when) {
          // Woken early by a new (possibly earlier) deadline or by
          // shutdown; loop re-evaluates either way.
          reaper_cv_.WaitUntil(reaper_mu_, when);
          continue;
        }
        expired = deadlines_.top().state.lock();
        deadlines_.pop();
        if (expired == nullptr) continue;  // completed and released long ago
        break;
      }
    }
    // Outside the lock: Submit must never block behind a fulfilment.
    if (expired->Claim().has_value()) {
      Count<&SatEngineStats::deadline_expirations>();
      route_counters_.Increment("deadline");
      expired->Fulfill(NotRunResponse(
          "deadline", "deadline expired before execution started"));
    }
  }
}

std::vector<SatResponse> SatEngine::RunBatch(
    const std::vector<SatRequest>& batch) {
  std::vector<SatTicket> tickets;
  tickets.reserve(batch.size());
  for (const SatRequest& request : batch) tickets.push_back(Submit(request));
  std::vector<SatResponse> responses;
  responses.reserve(tickets.size());
  for (const SatTicket& t : tickets) responses.push_back(t.Get());
  return responses;
}

SatResponse SatEngine::Run(const SatRequest& request) {
  return Submit(request).Get();
}

SnapshotSaveResult SatEngine::SaveSnapshot(const std::string& path) const {
  SnapshotSaveResult result;

  // Phase 1: collect, under each cache's lock in turn, shared_ptr copies
  // only. One schema per fingerprint per file, so a loaded memo is
  // verifiable against a schema from the same file: the DTD cache's
  // sources first, most recently used first (a load admits that prefix),
  // then the Dtds that memo entries pin.
  std::vector<std::pair<uint64_t, std::shared_ptr<const Dtd>>> sources;
  dtd_cache_.ForEach(
      [&](const uint64_t& fp, const std::shared_ptr<const CompiledDtd>& v) {
        sources.emplace_back(fp, v->shared_dtd);
      });
  std::vector<std::pair<std::string, MemoEntry>> memos;
  if (options_.memo_capacity > 0) {
    memos.reserve(memo_.size());
    memo_.ForEach([&](const std::string& key, const MemoEntry& entry) {
      memos.emplace_back(key, entry);
    });
  }

  // Phase 2: serialize and write, outside every lock. A memo whose
  // fingerprint slot is owned by a different, non-equivalent schema (a
  // collision) is dropped.
  std::unordered_map<uint64_t, const Dtd*> seen;
  for (const auto& [fp, dtd] : sources) seen.emplace(fp, dtd.get());
  for (auto& kv : memos) {
    const std::shared_ptr<const Dtd>& dtd = kv.second.dtd;
    const uint64_t fp = MemoKeyFingerprint(kv.first);
    auto [it, fresh] = seen.emplace(fp, dtd.get());
    if (fresh) {
      sources.emplace_back(fp, dtd);
    } else if (it->second != dtd.get() && !it->second->EquivalentTo(*dtd)) {
      kv.second.report = nullptr;  // marks the entry dropped
    }
  }
  store::SnapshotWriter writer;
  result.status = writer.Open(path);
  if (!result.status.ok()) return result;
  for (const auto& [fp, dtd] : sources) {
    result.status = writer.Append(store::RecordTag::kSchema,
                                  store::EncodeSchemaRecord(*dtd, fp));
    if (!result.status.ok()) return result;
    ++result.dtds_saved;
  }
  for (const auto& kv : memos) {
    if (kv.second.report == nullptr) continue;
    // Memo keys are canonical + '\0' + raw fingerprint + raw digest
    // (MemoKey); recover the pieces rather than re-deriving them.
    const std::string& key = kv.first;
    store::MemoRecord record;
    record.canonical_query = key.substr(0, key.size() - 17);
    record.dtd_fingerprint = MemoKeyFingerprint(key);
    record.options_digest = ReadRawU64(key, key.size() - 8);
    const SatReport& report = *kv.second.report;
    record.algorithm = report.algorithm;
    record.verdict = report.decision.verdict;
    record.note = report.decision.note;
    record.has_witness = report.decision.witness.has_value();
    if (record.has_witness) record.witness = *report.decision.witness;
    result.status =
        writer.Append(store::RecordTag::kMemoEntry,
                      store::EncodeMemoRecord(record));
    if (!result.status.ok()) return result;
    ++result.memos_saved;
  }
  result.status = writer.Commit();
  return result;
}

SnapshotLoadResult SatEngine::LoadSnapshot(const std::string& path) {
  const Clock::time_point load_start = Clock::now();
  SnapshotLoadResult result;

  store::SnapshotReader reader;
  store::SnapshotOpenError open_error;
  if (!reader.Open(path, &open_error)) {
    switch (open_error.kind) {
      case store::SnapshotOpenError::Kind::kBadVersion:
        result.error_kind = SnapshotLoadResult::ErrorKind::kVersion;
        result.file_version = open_error.file_version;
        Count<&SatEngineStats::store_version_rejects>();
        break;
      case store::SnapshotOpenError::Kind::kBadMagic:
        result.error_kind = SnapshotLoadResult::ErrorKind::kCorrupt;
        break;
      default:
        result.error_kind = SnapshotLoadResult::ErrorKind::kIo;
        break;
    }
    result.status = Status::Error(open_error.detail);
    return result;
  }

  // Schemas decoded AND verified from this file, by fingerprint. Memo
  // records attach only through this map — never to whatever happens to be
  // resident under their claimed fingerprint — so a forged fingerprint can
  // not graft a memo onto an unrelated schema. Only the source Dtds are
  // kept, so a load pins no more compiled artifacts than the cache holds.
  std::unordered_map<uint64_t, std::shared_ptr<const Dtd>> file_schemas;
  const bool memo_enabled = options_.memo_capacity > 0;

  for (;;) {
    uint8_t tag = 0;
    std::string payload;
    store::SnapshotReader::Outcome outcome = reader.Next(&tag, &payload);
    if (outcome == store::SnapshotReader::Outcome::kEof) break;
    if (outcome == store::SnapshotReader::Outcome::kTruncated) {
      result.truncated = true;
      ++result.corrupt_records;
      continue;  // Next() reports kEof from here on
    }
    if (outcome == store::SnapshotReader::Outcome::kCorrupt) {
      ++result.corrupt_records;
      continue;
    }
    if (tag == static_cast<uint8_t>(store::RecordTag::kSchema)) {
      Result<Dtd> decoded = store::DecodeSchemaRecord(payload);
      if (!decoded.ok()) {
        ++result.rejected_records;
        continue;
      }
      // The first dtd_cache_capacity schemas (a save writes the DTD
      // cache's, most recently used first) are admitted on RegisterDtd's
      // path: an equivalent cached schema is reused; otherwise the schema
      // is compiled here and inserted keep-incumbent. On a collision the
      // fresh compile is not cached and the schema stays file-local —
      // memos from this file still attach to it, but it never displaces
      // live state. Later schemas would only evict earlier ones, so they
      // stay file-local uncompiled Dtds that their memos pin.
      const uint64_t fp = decoded.value().Fingerprint();
      file_schemas[fp] =
          result.dtds_loaded < options_.dtd_cache_capacity
              ? LookupDtd(decoded.value(), fp, nullptr)->shared_dtd
              : std::make_shared<const Dtd>(std::move(decoded).value());
      ++result.dtds_loaded;
      Count<&SatEngineStats::store_dtds_loaded>();
    } else if (tag == static_cast<uint8_t>(store::RecordTag::kMemoEntry)) {
      if (!memo_enabled) continue;  // nothing to warm; not a data problem
      Result<store::MemoRecord> decoded = store::DecodeMemoRecord(payload);
      if (!decoded.ok()) {
        ++result.rejected_records;
        continue;
      }
      store::MemoRecord record = std::move(decoded).value();
      auto it = file_schemas.find(record.dtd_fingerprint);
      if (it == file_schemas.end()) {
        // No schema in this file derives the claimed fingerprint: the memo
        // cannot be verified, so it is never trusted.
        ++result.rejected_records;
        continue;
      }
      MemoEntry entry;
      entry.dtd = it->second;
      auto report = std::make_shared<SatReport>();
      report->algorithm = std::move(record.algorithm);
      report->decision.verdict = record.verdict;
      report->decision.note = std::move(record.note);
      if (record.has_witness) {
        report->decision.witness = std::move(record.witness);
      }
      entry.report = std::move(report);
      memo_.InsertIfAbsent(MemoKey(record.canonical_query,
                                   record.dtd_fingerprint,
                                   record.options_digest),
                           std::move(entry));
      ++result.memos_loaded;
      Count<&SatEngineStats::store_memos_loaded>();
    } else {
      // Unknown record tag within a compatible version: additive kinds from
      // a newer writer. Counted so operators see them, never guessed at.
      ++result.rejected_records;
    }
  }
  Count<&SatEngineStats::store_records_corrupt>(result.corrupt_records);
  Count<&SatEngineStats::store_records_rejected>(result.rejected_records);

  // Stamp the load as a first-class observable phase: histogram + route
  // counter always, and a RequestTrace into the slow-query log when the
  // load crossed the slow threshold (warm restarts show up exactly where
  // slow requests do).
  const uint64_t load_ns = ToNs(Clock::now() - load_start);
  hist_store_load_ns_->Record(load_ns);
  route_counters_.Increment("artifact-store-load");
  if (options_.slow_request_ns > 0 &&
      load_ns >= static_cast<uint64_t>(options_.slow_request_ns)) {
    obs::SlowQueryRecord rec;
    rec.query = "<snapshot:" + path + ">";
    rec.trace.store_load_ns = load_ns;
    rec.trace.total_ns = load_ns;
    rec.trace.route = "artifact-store-load";
    slow_log_.Push(std::move(rec));
  }
  result.status = Status::Ok();
  return result;
}

uint64_t SatEngine::live_dtd_handles() const {
  return static_cast<uint64_t>(live_handles_->value());
}

uint64_t SatEngine::live_compiled_artifacts() const {
  return static_cast<uint64_t>(live_artifacts_->value());
}

SatEngineStats SatEngine::stats() const {
  // Load order is part of the contract (see SatEngineStats): the table is
  // walked backwards, so the per-request *outcome* counters load first and
  // `requests` (row 0) last, all acquire loads against release increments.
  // A request's `requests` bump happens-before its outcome bump (Submit
  // publishes the ticket record before any claimant can reach it), so any
  // outcome this snapshot observes has its request already counted by the
  // later `requests` load — the documented <= invariants hold for every
  // snapshot, mid-flight included.
  SatEngineStats s;
  for (size_t i = kNumSatEngineCounters; i-- > 0;) {
    s.*kSatEngineCounters[i].field = counters_[i]->value();
  }
  if (rewrite_cache_ != nullptr) {
    s.rewrite_cache_hits = rewrite_cache_->hits();
    s.rewrite_cache_misses = rewrite_cache_->misses();
  }
  s.uptime_ms = uptime_ms();
  s.snapshot_seq = NextSnapshotSeq();
  s.live_dtd_handles = live_dtd_handles();
  s.live_compiled_artifacts = live_compiled_artifacts();
  return s;
}

uint64_t SatEngine::uptime_ms() const {
  return ToNs(Clock::now() - start_time_) / 1000000;
}

uint64_t SatEngine::NextSnapshotSeq() const {
  // Sequence numbers start at 1; relaxed is enough — the value only needs
  // to be distinct and increasing across emissions, not ordered against
  // other counters.
  return snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace xpathsat
