// The ThreadPool: every void job runs exactly once on a worker thread, the
// workers run jobs side by side, destruction drains the queue, and a single
// worker runs jobs in submission order.
#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/mutex.h"

namespace xpathsat {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, RunsEveryJobExactlyOnce) {
  constexpr int kJobs = 1000;
  std::vector<std::atomic<int>> runs(kJobs);
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < kJobs; ++i) {
      pool.Submit([&runs, i] {
        runs[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // the destructor drains and joins: every job has run
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "job " << i;
  }
}

TEST(ThreadPoolTest, JobsRunOnWorkerThreadsNeverInline) {
  // Submit only enqueues (the socket server submits from its event loop,
  // which must not run a connection's batch itself); the jobs spread over
  // at most num_threads() distinct worker threads.
  const std::thread::id submitter = std::this_thread::get_id();
  util::Mutex mu;
  std::set<std::thread::id> ran_on;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 300; ++i) {
      pool.Submit([&mu, &ran_on] {
        util::MutexLock lock(mu);
        ran_on.insert(std::this_thread::get_id());
      });
    }
  }  // joined: `ran_on` is published to this thread
  EXPECT_GE(ran_on.size(), 1u);
  EXPECT_LE(ran_on.size(), 3u);
  EXPECT_EQ(ran_on.count(submitter), 0u);
}

TEST(ThreadPoolTest, WorkersRunJobsConcurrently) {
  // Four jobs that each wait for all four to have started: only a pool that
  // runs its four workers side by side gets every job past the rendezvous.
  // The wait is bounded, so a pool that serializes fails instead of hanging.
  constexpr int kWorkers = 4;
  util::Mutex mu;
  util::CondVar all_started;
  int started = 0;
  std::atomic<int> met{0};
  {
    ThreadPool pool(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      pool.Submit([&] {
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        util::MutexLock lock(mu);
        ++started;
        all_started.NotifyAll();
        while (started < kWorkers && all_started.WaitUntil(mu, give_up)) {
        }
        if (started == kWorkers) met.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(met.load(), kWorkers);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedJobs) {
  std::atomic<int> count{0};
  {
    // One worker: most jobs are still queued when the destructor runs; all
    // must still execute (shutdown drains, it does not drop).
    ThreadPool pool(1);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, JobsMaySubmitFollowUpJobs) {
  // A job re-submitting from a worker (the socket server's re-enqueue of a
  // connection whose lines arrived mid-batch) never blocks, and the
  // follow-ups run before the destructor returns.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&pool, &count] {
        count.fetch_add(1, std::memory_order_relaxed);
        pool.Submit(
            [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPreservesSubmissionOrder) {
  std::vector<int> order;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
  }  // joined: `order` is published to this thread
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace xpathsat
