// Tests for the sweep engine's execution substrate: FIFO submission with
// futures, exception propagation, and thread-count-independent results.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fdtdmm {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workerCount(), 3u);
}

TEST(ThreadPool, FuturesReturnResultsInSubmissionSlots) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    bad.get();
    FAIL() << "expected the task exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  // The same workload collected through futures must give identical
  // results for any pool size, regardless of execution interleaving.
  auto runWith = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 40; ++i)
      futures.push_back(pool.submit([i] {
        double acc = 0.0;
        for (int k = 1; k <= 200; ++k) acc += 1.0 / (i + k);
        return acc;
      }));
    std::vector<double> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  const auto serial = runWith(1);
  EXPECT_EQ(runWith(2), serial);
  EXPECT_EQ(runWith(4), serial);
  EXPECT_EQ(runWith(8), serial);
}

TEST(ThreadPool, StatsTrackSubmissionsQueueDepthAndPerWorkerCounts) {
  ThreadPool pool(3);

  // Park every worker behind a gate, then pile up a backlog: the
  // high-water mark must see the whole backlog and the queue-wait must be
  // strictly positive once it drains.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 3; ++i)
    blockers.push_back(pool.submit([open] { open.wait(); }));
  while (pool.queued() != 0) std::this_thread::yield();  // blockers dequeued

  std::vector<std::future<int>> work;
  for (int i = 0; i < 10; ++i) work.push_back(pool.submit([i] { return i; }));
  EXPECT_GE(pool.stats().queue_high_water, 10u);

  gate.set_value();
  for (auto& f : blockers) f.get();
  for (std::size_t i = 0; i < work.size(); ++i)
    EXPECT_EQ(work[i].get(), static_cast<int>(i));

  const ThreadPoolStats st = pool.stats();
  EXPECT_EQ(st.submitted, 13);
  ASSERT_EQ(st.tasks_per_worker.size(), 3u);
  long long dispatched = 0;
  for (long long n : st.tasks_per_worker) dispatched += n;
  EXPECT_EQ(dispatched, st.submitted);
  EXPECT_GT(st.queue_wait_seconds, 0.0);  // the backlog sat behind the gate
}

TEST(ThreadPool, StatsAreZeroInitialized) {
  ThreadPool pool(2);
  const ThreadPoolStats st = pool.stats();
  EXPECT_EQ(st.queue_high_water, 0u);
  EXPECT_EQ(st.submitted, 0);
  ASSERT_EQ(st.tasks_per_worker.size(), 2u);
  EXPECT_EQ(st.tasks_per_worker[0], 0);
  EXPECT_EQ(st.tasks_per_worker[1], 0);
  EXPECT_EQ(st.queue_wait_seconds, 0.0);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
      futures.push_back(pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      }));
  }  // ~ThreadPool must finish everything queued, not drop it
  EXPECT_EQ(done.load(), 32);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// A task's run time is in stats().busy_seconds by the time its future is
// ready: a caller that reads stats() right after get() sees every task it
// collected.
TEST(ThreadPool, BusySecondsIncludeEveryCollectedTask) {
  ThreadPool pool(2);
  double busy = 0.0;
  int missed = 0;
  for (int i = 0; i < 2000; ++i) {
    pool.submit([] {
           const auto begin = std::chrono::steady_clock::now();
           while (std::chrono::steady_clock::now() == begin) {
           }
         })
        .get();
    const double now = pool.stats().busy_seconds;
    if (!(now > busy)) ++missed;
    busy = now;
  }
  EXPECT_EQ(missed, 0);
}

}  // namespace
}  // namespace fdtdmm
