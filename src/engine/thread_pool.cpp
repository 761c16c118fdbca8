#include "engine/thread_pool.h"

namespace fdtdmm {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) throw std::invalid_argument("ThreadPool: workers must be > 0");
  stats_.tasks_per_worker.assign(workers, 0);
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this, i] { workerLoop(i); });
  } catch (...) {
    // Thread creation failed partway (e.g. EAGAIN under a pid limit):
    // destroying joinable threads would std::terminate, so shut down the
    // ones that did start before rethrowing.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ThreadPool::setQueueWaitRecorder(obs::HistogramRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_wait_recorder_ = registry;
}

void ThreadPool::workerLoop(std::size_t worker_id) {
  for (;;) {
    std::function<void()> task;
    obs::HistogramRegistry* recorder = nullptr;
    double wait_seconds = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      QueuedTask qt = std::move(queue_.front());
      queue_.pop();
      // Stats update under the lock we already hold: queue-wait is the
      // time this task spent parked, attributed at dequeue; the completed
      // count is per worker (the task body runs outside the lock, so
      // "completed" means "dispatched to this worker" — equal once the
      // future is collected).
      wait_seconds =
          std::chrono::duration<double>(Clock::now() - qt.enqueued).count();
      stats_.queue_wait_seconds += wait_seconds;
      ++stats_.tasks_per_worker[worker_id];
      recorder = queue_wait_recorder_;
      task = std::move(qt.fn);
    }
    // The histogram sample lands outside the queue lock: the registry has
    // its own per-thread sharding, so recording never stalls submitters.
    if (recorder != nullptr)
      recorder->record("pool.queue_wait_seconds", wait_seconds);
    task();  // packaged_task: exceptions land in the future, run time in stats_
  }
}

}  // namespace fdtdmm
