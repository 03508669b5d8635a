// A fixed-size thread pool: a FIFO of void() jobs drained by N workers.
// Submit enqueues and returns; the pool reports nothing back — a job that
// has a result to deliver carries its own channel (the SatEngine's ticket
// record, the socket server's connection state). With one worker, jobs run
// in submission order. Destruction drains the queue (already-submitted jobs
// run to completion) and joins all workers.
//
// The queue and stop flag are GUARDED_BY(mu_): a Clang -Wthread-safety
// build proves every access (including the shutdown path) holds the lock.
//
// The pool is intentionally minimal: no work stealing, no priorities, no
// cancellation. Its users submit coarse-grained jobs (one satisfiability
// decision, one connection's batch of lines), so queue contention is
// negligible next to the work items.
#ifndef XPATHSAT_UTIL_THREAD_POOL_H_
#define XPATHSAT_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace xpathsat {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 fall back to
  /// hardware_concurrency (and to 1 when even that is unknown).
  explicit ThreadPool(int num_threads = 0) {
    if (num_threads < 1) {
      num_threads = static_cast<int>(std::thread::hardware_concurrency());
      if (num_threads < 1) num_threads = 1;
    }
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      util::MutexLock lock(mu_);
      stopping_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& w : workers_) w.join();
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `job`. Safe to call from any thread, including from inside a
  /// pool job (the queue is unbounded, so Submit never blocks on workers).
  void Submit(std::function<void()> job) {
    {
      util::MutexLock lock(mu_);
      queue_.push_back(std::move(job));
    }
    wake_.NotifyOne();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        util::MutexLock lock(mu_);
        while (!stopping_ && queue_.empty()) wake_.Wait(mu_);
        if (queue_.empty()) return;  // stopping_ with a drained queue
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  util::Mutex mu_;
  util::CondVar wake_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace xpathsat

#endif  // XPATHSAT_UTIL_THREAD_POOL_H_
