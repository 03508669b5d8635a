#include "src/engine/sat_engine.h"

#include <iterator>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "src/store/snapshot.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/xpath/parser.h"

namespace xpathsat {

namespace engine_internal {

// Shared state of one submitted request. The promise is fulfilled exactly
// once, by whichever side wins the job's queued->{running,cancelled} CAS:
// the worker (with the computed response), the deadline reaper, or a
// TryCancel caller. All three go through Fulfill so completion callbacks
// fire on every path.
struct TicketState {
  uint64_t id = 0;
  std::promise<SatResponse> promise;
  std::shared_ptr<CancellableJob> job;
  // The ticket's own view of the promise, so callbacks registered after
  // completion can read the response without holding a SatTicket.
  std::shared_future<SatResponse> future;

  // Completion callbacks. `fulfilled` flips under cb_mu strictly BEFORE
  // set_value (see Fulfill for why); a registration that observes
  // fulfilled == true reads future.get(), blocking at most for the
  // flip->set_value instant. A std::list so WaitAny can deregister its
  // waiters by iterator when it returns — while fulfilled is still false
  // the iterators are owned by this list; after the flip they belong to
  // Fulfill's drained copy and must not be touched.
  util::Mutex cb_mu;
  bool fulfilled GUARDED_BY(cb_mu) = false;
  std::list<std::function<void(const SatResponse&)>> callbacks
      GUARDED_BY(cb_mu);

  // The single fulfilment point: drains the registered callbacks, resolves
  // the promise, then runs the drained callbacks on the calling thread.
  // `fulfilled` flips BEFORE set_value: once a caller has observed the
  // ticket complete (Get/Ready/WaitFor returned), any later OnComplete is
  // guaranteed to see fulfilled == true and run inline — flipping after
  // set_value would leave a window where such a registration lands in the
  // list and runs on this thread instead, racing the caller. A registration
  // that sees fulfilled == true in the flip->set_value window merely blocks
  // in future.get() for the instant until the value lands. Pending
  // callbacks are moved out under cb_mu before running so a callback that
  // registers another callback never deadlocks.
  void Fulfill(SatResponse response) {
    std::list<std::function<void(const SatResponse&)>> ready;
    {
      util::MutexLock lock(cb_mu);
      fulfilled = true;
      ready.splice(ready.begin(), callbacks);
    }
    promise.set_value(std::move(response));
    if (!ready.empty()) {
      const SatResponse& r = future.get();
      for (auto& cb : ready) cb(r);
    }
  }
};

// Control block behind a DtdHandle: pins the compiled artifacts and retires
// the registration (decrements the engine's live-handle gauge) when the last
// handle copy is released. The gauge is held through a shared_ptr so release
// stays safe even after the issuing engine is destroyed.
struct DtdPin {
  std::shared_ptr<const CompiledDtd> compiled;
  uint64_t id = 0;
  std::shared_ptr<std::atomic<uint64_t>> live;
  ~DtdPin() {
    if (live) live->fetch_sub(1, std::memory_order_relaxed);
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

void SatTicket::OnComplete(std::function<void(const SatResponse&)> cb) const {
  {
    util::MutexLock lock(state_->cb_mu);
    if (!state_->fulfilled) {
      state_->callbacks.push_back(std::move(cb));
      return;
    }
  }
  // Already fulfilled (or mid-fulfilment): get() returns the response,
  // blocking at most for the fulfilled->set_value instant.
  cb(future_.get());
}

int SatTicket::WaitAny(const std::vector<SatTicket>& tickets,
                       int64_t timeout_ms) {
  using engine_internal::TicketState;
  struct Waiter {
    util::Mutex mu;
    util::CondVar cv;
    int ready GUARDED_BY(mu) = -1;
  };
  // Registrations are deregistered by iterator on every exit path, so a
  // caller polling WaitAny in a loop over long-queued tickets does not
  // accumulate dead closures in their callback lists (the header promises
  // this). The weak capture covers the unavoidable race where a ticket
  // fulfils between the wait ending and the cleanup below: the drained
  // callback finds an expired waiter and does nothing.
  struct Registration {
    std::shared_ptr<TicketState> state;
    std::list<std::function<void(const SatResponse&)>>::iterator where;
  };
  auto waiter = std::make_shared<Waiter>();
  std::vector<Registration> registrations;
  bool any_valid = false;
  int ready_now = -1;
  for (size_t i = 0; i < tickets.size() && ready_now < 0; ++i) {
    if (!tickets[i].valid()) continue;
    any_valid = true;
    std::shared_ptr<TicketState> state = tickets[i].state_;
    util::MutexLock lock(state->cb_mu);
    if (state->fulfilled) {
      ready_now = static_cast<int>(i);
      break;
    }
    state->callbacks.push_back(
        [weak = std::weak_ptr<Waiter>(waiter), i](const SatResponse&) {
          std::shared_ptr<Waiter> w = weak.lock();
          if (w == nullptr) return;
          {
            util::MutexLock lock(w->mu);
            if (w->ready < 0 || static_cast<size_t>(w->ready) > i) {
              w->ready = static_cast<int>(i);
            }
          }
          w->cv.NotifyAll();
        });
    auto where = std::prev(state->callbacks.end());
    registrations.push_back(Registration{std::move(state), where});
  }
  int result = ready_now;
  if (result < 0 && any_valid) {
    util::MutexLock lock(waiter->mu);
    if (timeout_ms < 0) {
      while (waiter->ready < 0) waiter->cv.Wait(waiter->mu);
    } else {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms);
      // WaitUntil returns false only on deadline expiry, which ends the
      // loop with ready still -1 — the documented timeout result.
      while (waiter->ready < 0 &&
             waiter->cv.WaitUntil(waiter->mu, deadline)) {
      }
    }
    result = waiter->ready;  // -1 on timeout
  }
  for (Registration& registration : registrations) {
    util::MutexLock lock(registration.state->cb_mu);
    // After fulfilment the iterator belongs to Fulfill's drained list.
    if (!registration.state->fulfilled) {
      registration.state->callbacks.erase(registration.where);
    }
  }
  return result;
}

namespace {

// The engine-wide shard target: the cache_shards option (0 = hardware
// default) rounded up to a power of two and clamped to 64, BEFORE any
// per-cache capacity constraint. This is what cache_shards() reports.
size_t ResolveShardTarget(size_t cache_shards_option) {
  size_t requested = cache_shards_option == 0 ? DefaultCacheShards()
                                              : cache_shards_option;
  size_t shards = 1;
  while (shards < requested && shards < 64) shards <<= 1;
  return shards;
}

// Per-cache cap: halve the target until every shard can hold at least the
// cache's entry floor (max_shards = capacity / floor). The query cache
// needs >= 2 per shard (a canonical entry and its raw alias must never
// evict each other), and the DTD cache >= 4 per shard (its capacity is
// small and a per-shard LRU of 1 would recompile-thrash alternating
// registrations that hash together).
size_t CapShards(size_t target, size_t max_shards) {
  while (target > max_shards && target > 1) target >>= 1;
  return target;
}

}  // namespace

SatEngineOptions SatEngine::Normalize(SatEngineOptions options) {
  if (options.dtd_cache_capacity < 1) options.dtd_cache_capacity = 1;
  if (options.query_cache_capacity < 2) options.query_cache_capacity = 2;
  return options;
}

// The engine caches skip the caches' own probe counters (count_probes =
// false): the engine keeps its per-request counters itself, and a second
// contended counter cacheline per probe is exactly the serialization this
// PR removes.
SatEngine::SatEngine(const SatEngineOptions& options)
    : options_(Normalize(options)),
      resolved_shards_(ResolveShardTarget(options_.cache_shards)),
      dtd_cache_(options_.dtd_cache_capacity,
                 CapShards(resolved_shards_, options_.dtd_cache_capacity / 4),
                 /*count_probes=*/false),
      query_cache_(
          options_.query_cache_capacity,
          CapShards(resolved_shards_, options_.query_cache_capacity / 2),
          /*count_probes=*/false),
      // Sized even when disabled (ShardedLruCache has no empty state); the
      // memo_enabled gate in Execute keeps a disabled memo untouched.
      memo_(options_.memo_capacity > 0 ? options_.memo_capacity : 1,
            resolved_shards_, /*count_probes=*/false),
      rewrite_cache_(options_.rewrite_cache_capacity > 0
                         ? std::make_unique<RewriteCache>(
                               options_.rewrite_cache_capacity,
                               resolved_shards_)
                         : nullptr),
      live_handles_(std::make_shared<std::atomic<uint64_t>>(0)),
      slow_log_(options_.slow_log_capacity),
      start_time_(Clock::now()),
      reaper_([this] { ReaperLoop(); }),
      pool_(options_.num_threads) {
  // Resolve the per-phase histograms once; the request path then mutates
  // them lock-free through these pointers. (reaper_ only touches the route
  // counters, which are constructed before it starts.)
  hist_wire_decode_ns_ = metrics_.histogram("request_wire_decode_ns");
  hist_queue_ns_ = metrics_.histogram("request_queue_ns");
  hist_parse_ns_ = metrics_.histogram("request_parse_ns");
  hist_rewrite_ns_ = metrics_.histogram("request_rewrite_ns");
  hist_decide_ns_ = metrics_.histogram("request_decide_ns");
  hist_total_ns_ = metrics_.histogram("request_total_ns");
  hist_dtd_compile_ns_ = metrics_.histogram("dtd_compile_ns");
  hist_store_load_ns_ = metrics_.histogram("artifact_store_load_ns");
  slow_requests_ = metrics_.counter("slow_requests");
  ctr_store_dtds_loaded_ = metrics_.counter("store_dtds_loaded");
  ctr_store_memos_loaded_ = metrics_.counter("store_memos_loaded");
  ctr_store_records_corrupt_ = metrics_.counter("store_records_corrupt");
  ctr_store_records_rejected_ = metrics_.counter("store_records_rejected");
  ctr_store_version_rejects_ = metrics_.counter("store_version_rejects");
}

SatEngine::~SatEngine() {
  {
    util::MutexLock lock(reaper_mu_);
    reaper_stop_ = true;
  }
  reaper_cv_.NotifyAll();
  if (reaper_.joinable()) reaper_.join();
  // pool_ is destroyed next (it is the last member): queued jobs drain and
  // fulfil their promises while the caches are still alive. Deadlines no
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
  // wins and both use the winner.
  std::shared_ptr<const CompiledDtd> compiled = CompiledDtd::Compile(dtd);
  std::shared_ptr<const CompiledDtd> resident =
      dtd_cache_.InsertIfAbsent(fp, compiled);
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

std::shared_ptr<const CompiledDtd> SatEngine::CompileAndCache(const Dtd& dtd) {
  return LookupDtd(dtd, dtd.Fingerprint(), nullptr);
}

DtdHandle SatEngine::RegisterDtd(const Dtd& dtd) {
  bool hit = false;
  const Clock::time_point compile_start = Clock::now();
  std::shared_ptr<const CompiledDtd> compiled =
      LookupDtd(dtd, dtd.Fingerprint(), &hit);
  // DTD compilation happens here, at registration (requests carry pinned
  // artifacts), so the compile histogram lives on this path: one record per
  // actual compilation, none for cache hits.
  if (!hit) hist_dtd_compile_ns_->Record(ToNs(Clock::now() - compile_start));
  (hit ? dtd_cache_hits_ : dtd_cache_misses_)
      .fetch_add(1, std::memory_order_release);
  auto pin = std::make_shared<engine_internal::DtdPin>();
  pin->compiled = std::move(compiled);
  pin->id = next_handle_id_.fetch_add(1, std::memory_order_relaxed);
  pin->live = live_handles_;
  live_handles_->fetch_add(1, std::memory_order_relaxed);
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
    deadline_expirations_.fetch_add(1, std::memory_order_release);
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
  (query_hit ? query_cache_hits_ : query_cache_misses_)
      .fetch_add(1, std::memory_order_release);
  if (query == nullptr) {
    parse_errors_.fetch_add(1, std::memory_order_release);
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
      // equality is the fast path (handles share one CompiledDtd).
      if (entry.compiled != compiled &&
          !entry.compiled->dtd.EquivalentTo(compiled->dtd)) {
        return false;
      }
      // Refresh the pin after an eviction+recompile so subsequent hits
      // for this handle take the pointer fast path, not the structural
      // check under the shard lock.
      entry.compiled = compiled;
      memoized = entry.report;
      return true;
    });
    if (memoized != nullptr) {
      memo_hits_.fetch_add(1, std::memory_order_release);
      resp.report = *memoized;
      resp.memo_hit = true;
      resp.status = Status::Ok();
      resp.trace.route = "memo-hit";
      FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
      return resp;
    }
    memo_misses_.fetch_add(1, std::memory_order_release);
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
    entry.compiled = compiled;
    entry.report = std::make_shared<const SatReport>(resp.report);
    memo_.InsertIfAbsent(memo_key, std::move(entry));
  }
  FinishTrace(&resp, request, ticket_id, submitted, Clock::now());
  return resp;
}

SatTicket SatEngine::Submit(SatRequest request) {
  requests_.fetch_add(1, std::memory_order_release);
  auto state = std::make_shared<engine_internal::TicketState>();
  state->id = next_ticket_id_.fetch_add(1, std::memory_order_relaxed);
  state->job = std::make_shared<CancellableJob>();

  state->future = state->promise.get_future().share();

  SatTicket ticket;
  ticket.id_ = state->id;
  ticket.future_ = state->future;
  ticket.state_ = state;

  const Clock::time_point submitted = Clock::now();
  const int64_t deadline_ms = request.deadline_ms;
  // The control block is fully published in the ticket state before the job
  // can possibly start — Submit, TryCancel, and the reaper all go through
  // the same CAS arbitration.
  pool_.SubmitCancellable(
      state->job, [this, state, request = std::move(request),
                   submitted]() mutable {
        // The promise is always fulfilled: an exception escaping a pool job
        // would std::terminate the process (and break every ticket copy),
        // so decider failures surface as error responses instead.
        SatResponse resp;
        try {
          resp = Execute(request, submitted, state->id);
        } catch (const std::exception& e) {
          resp = SatResponse();
          resp.status =
              Status::Error(std::string("internal error: ") + e.what());
        } catch (...) {
          resp = SatResponse();
          resp.status = Status::Error("internal error");
        }
        // Drop the worker's request copy (and its DtdHandle pin) before
        // fulfilment: a caller that observes Get() returning must also
        // observe live_dtd_handles() without this job's pin, otherwise the
        // gauge transiently overcounts until the pool discards the closure.
        request = SatRequest();
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
  if (!ticket.valid()) return false;
  if (!ticket.state_->job->TryCancel()) return false;
  cancellations_.fetch_add(1, std::memory_order_release);
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
    // Outside the lock: Submit must never block behind promise fulfilment.
    if (expired->job->TryCancel()) {
      deadline_expirations_.fetch_add(1, std::memory_order_release);
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

  // Phase 1: collect, under the shard locks, shared_ptr copies only.
  // ForEach visits one shard at a time, so a save racing live traffic holds
  // no lock for longer than one shard walk and serializes nothing global.
  std::map<uint64_t, std::shared_ptr<const CompiledDtd>> schemas;
  dtd_cache_.ForEach(
      [&](const uint64_t& fp, const std::shared_ptr<const CompiledDtd>& v) {
        schemas.emplace(fp, v);
      });
  std::vector<std::pair<std::string, MemoEntry>> memos;
  if (options_.memo_capacity > 0) {
    memos.reserve(memo_.size());
    memo_.ForEach([&](const std::string& key, const MemoEntry& entry) {
      memos.emplace_back(key, entry);
    });
  }

  // Phase 2: serialize and write, outside every lock. Memo entries whose
  // artifacts were evicted from the DTD cache add them back to the schema
  // set (a loaded memo must be verifiable against a schema from the same
  // file); a memo whose fingerprint slot is owned by a different,
  // non-equivalent schema (a collision where the other schema holds the
  // cache slot) is dropped — one schema per fingerprint per file.
  store::SnapshotWriter writer;
  result.status = writer.Open(path);
  if (!result.status.ok()) return result;

  for (auto& kv : memos) {
    const uint64_t fp = kv.second.compiled->fingerprint;
    auto it = schemas.find(fp);
    if (it == schemas.end()) {
      schemas.emplace(fp, kv.second.compiled);
    } else if (it->second != kv.second.compiled &&
               !it->second->dtd.EquivalentTo(kv.second.compiled->dtd)) {
      kv.second.report = nullptr;  // marks the entry dropped
    }
  }
  for (const auto& kv : schemas) {
    result.status = writer.Append(store::RecordTag::kCompiledDtd,
                                  store::EncodeCompiledDtdRecord(*kv.second));
    if (!result.status.ok()) return result;
    ++result.dtds_saved;
  }
  for (const auto& kv : memos) {
    if (kv.second.report == nullptr) continue;
    // Memo keys are canonical + '\0' + raw fingerprint + raw digest
    // (MemoKey); recover the pieces rather than re-deriving them.
    const std::string& key = kv.first;
    if (key.size() < 17 || key[key.size() - 17] != '\0') continue;
    store::MemoRecord record;
    record.canonical_query = key.substr(0, key.size() - 17);
    record.dtd_fingerprint = kv.second.compiled->fingerprint;
    uint64_t digest = 0;
    for (int i = 0; i < 8; ++i) {
      digest |= static_cast<uint64_t>(
                    static_cast<uint8_t>(key[key.size() - 8 + i]))
                << (8 * i);
    }
    record.options_digest = digest;
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
        store_version_rejects_.fetch_add(1, std::memory_order_release);
        ctr_store_version_rejects_->Increment();
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
  // not graft a memo onto an unrelated schema.
  std::map<uint64_t, std::shared_ptr<const CompiledDtd>> file_schemas;
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
    if (tag == static_cast<uint8_t>(store::RecordTag::kCompiledDtd)) {
      Result<std::shared_ptr<const CompiledDtd>> decoded =
          store::DecodeCompiledDtdRecord(payload);
      if (!decoded.ok()) {
        ++result.rejected_records;
        continue;
      }
      std::shared_ptr<const CompiledDtd> compiled = std::move(decoded).value();
      const uint64_t fp = compiled->fingerprint;
      // Admission runs the exact in-memory hit path: verify an equivalent
      // incumbent (and share its artifacts), otherwise keep-incumbent
      // insert. A non-equivalent incumbent keeps the cache slot and the
      // decoded schema stays file-local — memos from this file still verify
      // against it, but it never displaces live state.
      std::optional<std::shared_ptr<const CompiledDtd>> incumbent =
          dtd_cache_.LookupIf(fp,
                              [&](std::shared_ptr<const CompiledDtd>& v) {
                                return v->dtd.EquivalentTo(compiled->dtd);
                              });
      if (incumbent.has_value()) {
        file_schemas[fp] = *incumbent;
      } else {
        std::shared_ptr<const CompiledDtd> resident =
            dtd_cache_.InsertIfAbsent(fp, compiled);
        file_schemas[fp] = resident->dtd.EquivalentTo(compiled->dtd)
                               ? resident
                               : compiled;
      }
      ++result.dtds_loaded;
      store_dtds_loaded_.fetch_add(1, std::memory_order_release);
      ctr_store_dtds_loaded_->Increment();
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
      entry.compiled = it->second;
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
      store_memos_loaded_.fetch_add(1, std::memory_order_release);
      ctr_store_memos_loaded_->Increment();
    } else {
      // Unknown record tag within a compatible version: additive kinds from
      // a newer writer. Counted so operators see them, never guessed at.
      ++result.rejected_records;
    }
  }
  if (result.corrupt_records > 0) {
    store_records_corrupt_.fetch_add(result.corrupt_records,
                                     std::memory_order_release);
    ctr_store_records_corrupt_->Increment(result.corrupt_records);
  }
  if (result.rejected_records > 0) {
    store_records_rejected_.fetch_add(result.rejected_records,
                                      std::memory_order_release);
    ctr_store_records_rejected_->Increment(result.rejected_records);
  }

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
  return live_handles_->load(std::memory_order_relaxed);
}

SatEngineStats SatEngine::stats() const {
  // Load order is part of the contract (see SatEngineStats): per-request
  // *outcome* counters first, `requests` last, all with acquire ordering
  // against the release increments. A request's `requests` bump
  // happens-before its outcome bump (Submit enqueues through the pool's
  // queue lock before the worker runs), so any outcome this snapshot
  // observes has its request already counted by the later `requests` load —
  // the documented <= invariants hold for every snapshot, mid-flight
  // included.
  SatEngineStats s;
  s.memo_hits = memo_hits_.load(std::memory_order_acquire);
  s.memo_misses = memo_misses_.load(std::memory_order_acquire);
  s.parse_errors = parse_errors_.load(std::memory_order_acquire);
  s.cancellations = cancellations_.load(std::memory_order_acquire);
  s.deadline_expirations =
      deadline_expirations_.load(std::memory_order_acquire);
  s.query_cache_hits = query_cache_hits_.load(std::memory_order_acquire);
  s.query_cache_misses = query_cache_misses_.load(std::memory_order_acquire);
  if (rewrite_cache_ != nullptr) {
    s.rewrite_cache_hits = rewrite_cache_->hits();
    s.rewrite_cache_misses = rewrite_cache_->misses();
  }
  s.dtd_cache_hits = dtd_cache_hits_.load(std::memory_order_acquire);
  s.dtd_cache_misses = dtd_cache_misses_.load(std::memory_order_acquire);
  s.store_dtds_loaded = store_dtds_loaded_.load(std::memory_order_acquire);
  s.store_memos_loaded = store_memos_loaded_.load(std::memory_order_acquire);
  s.store_records_corrupt =
      store_records_corrupt_.load(std::memory_order_acquire);
  s.store_records_rejected =
      store_records_rejected_.load(std::memory_order_acquire);
  s.store_version_rejects =
      store_version_rejects_.load(std::memory_order_acquire);
  s.requests = requests_.load(std::memory_order_acquire);
  s.uptime_ms = uptime_ms();
  s.snapshot_seq = NextSnapshotSeq();
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
