#include "engine/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "engine/thread_pool.h"
#include "obs/histogram.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "signal/bit_pattern.h"

namespace fdtdmm {

SweepRunner::SweepRunner(SweepRunnerOptions opt) : opt_(std::move(opt)) {
  if (!opt_.model_cache) opt_.model_cache = std::make_shared<ModelCache>();
}

SweepResult SweepRunner::run(const SweepSpec& spec) { return run(spec.expand()); }

SweepResult SweepRunner::run(const std::vector<SimulationTask>& tasks) {
  const auto start = std::chrono::steady_clock::now();

  // CSV/JSON rows are keyed by `index`; a duplicate would make the export
  // ambiguous, so reject the batch up front instead of exporting garbage.
  std::set<std::size_t> seen;
  for (const SimulationTask& task : tasks) {
    if (!task.scenario)
      throw std::invalid_argument("SweepRunner: task " +
                                  std::to_string(task.index) + " has no scenario");
    if (!seen.insert(task.index).second)
      throw std::invalid_argument("SweepRunner: duplicate task index " +
                                  std::to_string(task.index));
  }

  std::size_t workers = opt_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  // Resolve every model serially up front: identification runs once per
  // device here instead of stalling (or racing) the workers. Cache counters
  // are cumulative over the cache's lifetime, so snapshot before/after to
  // attribute only this sweep's activity to its telemetry.
  const ModelCacheStats cache_before = opt_.model_cache->stats();
  const SolverStateCacheStats solver_before = solver_cache_.stats();
  opt_.model_cache->preload(tasks);

  SweepResult result;
  result.workers = workers;
  result.runs.resize(tasks.size());

  // Per-task sharing: the scenario's structure key plus the model names the
  // runner resolved (conservative: model identity can never silently
  // collide two classes). An empty key leaves the corner unshared.
  std::vector<SolverSharing> sharing(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SimulationTask& task = tasks[i];
    // Health collection rides the sharing struct into every corner's
    // solver session (independent of whether solver *state* is shared).
    if (opt_.health.collect) sharing[i].health = &opt_.health;
    std::string structure = task.scenario->structureKey();
    if (structure.empty()) continue;
    if (task.scenario->needsDriver()) structure += "|drv=" + task.driver;
    if (task.scenario->needsReceiver()) structure += "|rcv=" + task.receiver;
    sharing[i].provider = &solver_cache_;
    sharing[i].structure_key = std::move(structure);
  }

  // Submission order groups structurally identical corners together
  // (original order otherwise, shareable corners first): the class's
  // builder then runs while its siblings are near the front of the queue,
  // so they block briefly on the in-flight build instead of much later.
  // Collection below is by slot, so this permutation never reaches the
  // exported order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SolverSharing& sa = sharing[a];
    const SolverSharing& sb = sharing[b];
    const bool ea = sa.provider == nullptr;
    const bool eb = sb.provider == nullptr;
    if (ea != eb) return eb;  // shareable corners first
    return sa.structure_key < sb.structure_key;
  });

  // Live progress surface. The stats hook runs at emission time (under the
  // reporter's throttle) and fills the rates the reporter cannot know
  // itself: worker utilization from the pool's busy-seconds counter and
  // the solver-cache hit rate from the same before/after delta the
  // telemetry export uses. The reporter is declared before the pool so it
  // outlives every task; `pool_ptr` is set once the pool exists.
  ThreadPool* pool_ptr = nullptr;
  obs::ProgressReporter progress(
      opt_.progress, tasks.size(),
      [&pool_ptr, workers, this, &solver_before](obs::ProgressSnapshot& s) {
        if (pool_ptr != nullptr && s.elapsed_seconds > 0.0) {
          const ThreadPoolStats ps = pool_ptr->stats();
          s.worker_utilization =
              std::min(1.0, ps.busy_seconds /
                                (static_cast<double>(workers) * s.elapsed_seconds));
        }
        const SolverStateCacheStats sc = solver_cache_.stats();
        const long long hits = sc.symbolic_hits - solver_before.symbolic_hits;
        const long long misses = sc.symbolic_misses - solver_before.symbolic_misses;
        if (hits + misses > 0)
          s.solver_cache_hit_rate =
              static_cast<double>(hits) / static_cast<double>(hits + misses);
      });

  // The histogram registry outlives the pool (declared first, destroyed
  // last): workers record into it until the last future resolves.
  obs::HistogramRegistry hist;
  ThreadPool pool(workers);
  pool_ptr = &pool;
  pool.setQueueWaitRecorder(&hist);
  std::vector<std::future<SweepRunRecord>> futures;
  futures.reserve(order.size());
  for (std::size_t slot : order) {
    const SimulationTask& task = tasks[slot];
    const SolverSharing& task_sharing = sharing[slot];
    futures.push_back(pool.submit([this, &task, &task_sharing, &hist,
                                   &progress]() -> SweepRunRecord {
      // One span per corner, on the worker's thread: in the trace viewer
      // the per-thread tracks show exactly how the pool packed the sweep.
      obs::TraceSpan task_span(std::string("task:") + task.label, "sweep");
      SweepRunRecord rec;
      rec.index = task.index;
      rec.label = task.label;
      try {
        auto driver =
            task.scenario->needsDriver() ? opt_.model_cache->driver(task.driver) : nullptr;
        auto receiver = task.scenario->needsReceiver()
                            ? opt_.model_cache->receiver(task.receiver)
                            : nullptr;
        TaskWaveforms waves = runSimulationTask(task, driver, receiver, task_sharing);
        const BitPattern pattern(task.scenario->pattern(),
                                 task.scenario->bitTime());
        rec.metrics = computeRunMetrics(waves, pattern, opt_.eye);
        rec.wall_seconds = waves.wall_seconds;
        rec.telemetry = waves.telemetry;
        // The engine layer owns the corner wall clock (telemetry.h).
        rec.telemetry.wall_seconds = waves.wall_seconds;
        if (opt_.keep_waveforms) rec.waves = std::move(waves);
        rec.ok = true;
        const obs::TransientPhases& ph = rec.telemetry.phases;
        hist.record("corner_wall_seconds", rec.wall_seconds);
        hist.record("corner_factor_seconds", ph.factor_seconds);
        hist.record("corner_rhs_stamp_seconds", ph.rhs_stamp_seconds);
        hist.record("corner_solve_seconds", ph.solve_seconds);
        hist.record("corner_newton_iterations",
                    static_cast<double>(rec.telemetry.newton_iterations));
      } catch (const std::exception& e) {
        rec.ok = false;
        rec.error = e.what();
      }
      progress.taskDone(rec.ok, rec.telemetry.health.severity);
      return rec;
    }));
  }

  // Collect each future into its task's slot: result order is the task
  // order no matter which worker finished first or how submission was
  // grouped.
  for (std::size_t k = 0; k < futures.size(); ++k)
    result.runs[order[k]] = futures[k].get();

  // Every future has been collected, so the pool counters are final for
  // this batch even though the pool itself is still alive.
  result.pool = pool.stats();
  pool.setQueueWaitRecorder(nullptr);
  result.histograms = hist.snapshot();
  progress.finish();
  const ModelCacheStats cache_after = opt_.model_cache->stats();
  result.model_cache.hits = cache_after.hits - cache_before.hits;
  result.model_cache.misses = cache_after.misses - cache_before.misses;
  result.model_cache.inserts = cache_after.inserts - cache_before.inserts;
  result.model_cache.preload_seconds =
      cache_after.preload_seconds - cache_before.preload_seconds;
  const SolverStateCacheStats solver_after = solver_cache_.stats();
  result.solver_cache.symbolic_hits = solver_after.symbolic_hits - solver_before.symbolic_hits;
  result.solver_cache.symbolic_misses =
      solver_after.symbolic_misses - solver_before.symbolic_misses;
  result.solver_cache.inserts = solver_after.inserts - solver_before.inserts;

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Persist whatever trace events the sweep produced even if the process
  // later exits without shutdownTrace(). Best effort: an unwritable trace
  // file must not discard the computed sweep results.
  if (obs::TraceWriter* tw = obs::TraceWriter::active()) {
    try {
      tw->flush();
    } catch (const std::exception&) {
    }
  }
  return result;
}

}  // namespace fdtdmm
