#pragma once
/// \file thread_pool.h
/// Fixed-size worker pool with a FIFO task queue and std::future results.
/// This is the execution substrate of the sweep engine: simulation tasks are
/// CPU-bound and independent, so a plain queue + N workers saturates the
/// machine without any work stealing. Exceptions thrown by a task are
/// captured in its future and rethrown at get(), never lost in a worker.
///
/// The pool is self-reporting (stats()): queue-depth high-water mark,
/// per-worker completed-task counts, and the summed enqueue->dequeue wait —
/// the utilization numbers the sweep telemetry export publishes per sweep
/// (is the pool starved? is one worker hogging? how deep does the backlog
/// get?). Bookkeeping happens under the queue mutex the pool already takes,
/// so the instrumentation adds no new synchronization.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/histogram.h"

namespace fdtdmm {

/// Utilization snapshot of a ThreadPool (see stats()).
struct ThreadPoolStats {
  /// Deepest the queue has ever been, sampled right after each enqueue
  /// (i.e. the worst backlog any submitted task ever joined).
  std::size_t queue_high_water = 0;
  /// Total tasks accepted by submit().
  long long submitted = 0;
  /// Completed tasks per worker, indexed by worker id [0, workerCount()).
  /// Sums to `submitted` once every future has been collected.
  std::vector<long long> tasks_per_worker;
  /// Sum over dequeued tasks of (dequeue time - enqueue time): total time
  /// tasks spent waiting behind the queue rather than running.
  double queue_wait_seconds = 0.0;
  /// Sum over completed tasks of their body's wall time: total time the
  /// workers spent *running* rather than idle. busy / (workers * sweep
  /// wall) is the utilization the live progress surface reports.
  double busy_seconds = 0.0;
};

class ThreadPool {
 public:
  /// Starts `workers` threads immediately.
  /// \throws std::invalid_argument if workers == 0.
  explicit ThreadPool(std::size_t workers);

  /// Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workerCount() const { return workers_.size(); }

  /// Enqueues a callable; the returned future yields its result (or
  /// rethrows its exception). Tasks start in FIFO order.
  ///
  /// Notify-under-lock discipline: the notify_one happens while mu_ is
  /// still held. With the predicate re-checked under the same mutex a
  /// post-unlock notify cannot *lose* a wakeup, but it can outlive the
  /// pool: a worker could dequeue the task, the pool be destroyed by
  /// another thread, and the late notify then touch a dead
  /// condition_variable. Keeping the notify inside the critical section
  /// makes enqueue+wake atomic with respect to shutdown and is the
  /// documented invariant here — do not move it out as an "optimization".
  /// \throws std::runtime_error if the pool is shutting down.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // The run time is accounted inside the packaged callable: BusyTimer's
    // destructor runs before the packaged_task stores the value (or the
    // exception) and makes the future ready, so a caller that reads
    // stats() right after get() sees this task's busy time.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(f)]() mutable -> R {
          const BusyTimer timer(*this);
          return fn();
        });
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.push(QueuedTask{[task] { (*task)(); }, Clock::now()});
      ++stats_.submitted;
      if (queue_.size() > stats_.queue_high_water)
        stats_.queue_high_water = queue_.size();
      cv_.notify_one();  // under the lock — see the discipline note above
    }
    return fut;
  }

  /// Number of tasks not yet picked up by a worker.
  std::size_t queued() const;

  /// Snapshot of the utilization counters; safe to call at any time
  /// (values of in-flight tasks keep moving underneath).
  ThreadPoolStats stats() const;

  /// Installs (or clears, with null) a histogram registry into which each
  /// dequeue records its task's queue wait as "pool.queue_wait_seconds" —
  /// the distribution behind stats().queue_wait_seconds' total. The
  /// registry must outlive the pool or be cleared first; recording happens
  /// outside the queue lock, so it adds no contention to submit/dequeue.
  void setQueueWaitRecorder(obs::HistogramRegistry* registry);

 private:
  using Clock = std::chrono::steady_clock;
  /// Adds its lifetime to stats_.busy_seconds.
  class BusyTimer {
   public:
    explicit BusyTimer(ThreadPool& pool) : pool_(pool), begin_(Clock::now()) {}
    ~BusyTimer() {
      const double seconds = std::chrono::duration<double>(Clock::now() - begin_).count();
      std::lock_guard<std::mutex> lock(pool_.mu_);
      pool_.stats_.busy_seconds += seconds;
    }
    BusyTimer(const BusyTimer&) = delete;
    BusyTimer& operator=(const BusyTimer&) = delete;

   private:
    ThreadPool& pool_;
    Clock::time_point begin_;
  };
  struct QueuedTask {
    std::function<void()> fn;
    Clock::time_point enqueued;
  };

  void workerLoop(std::size_t worker_id);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  ThreadPoolStats stats_;  // guarded by mu_
  obs::HistogramRegistry* queue_wait_recorder_ = nullptr;  // guarded by mu_
};

}  // namespace fdtdmm
