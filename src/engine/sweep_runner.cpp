#include "engine/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
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
  if (!opt_.solver_cache)
    opt_.solver_cache = std::make_shared<SolverStateCache>();
  if (!opt_.result_cache) opt_.result_cache = std::make_shared<ResultCache>();
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
  const SolverStateCacheStats solver_before = opt_.solver_cache->stats();
  const ResultCacheStats results_before = opt_.result_cache->stats();
  opt_.model_cache->preload(tasks);

  SweepResult result;
  result.workers = workers;
  result.runs.resize(tasks.size());

  // Per-task execution plan: the final sharing key (scenario key + the
  // model names the runner resolved — conservative: model identity can
  // never silently collide two classes) and the result-cache key.
  struct TaskPlan {
    std::size_t slot = 0;  ///< index into tasks / result.runs
    SolverSharing sharing;
    std::string result_key;
    bool done = false;  ///< answered by the result cache pre-pass
  };
  const bool use_results =
      opt_.reuse_results && !opt_.keep_waveforms;  // cached records carry no waves
  std::vector<TaskPlan> plans(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SimulationTask& task = tasks[i];
    TaskPlan& plan = plans[i];
    plan.slot = i;
    // Health collection rides the sharing struct into every corner's
    // solver session (independent of whether solver *state* is shared).
    if (opt_.health.collect) plan.sharing.health = &opt_.health;
    if (opt_.share_solver_state) {
      std::string structure = task.scenario->structureKey();
      if (!structure.empty()) {
        if (task.scenario->needsDriver()) structure += "|drv=" + task.driver;
        if (task.scenario->needsReceiver()) structure += "|rcv=" + task.receiver;
        plan.sharing.provider = opt_.solver_cache.get();
        plan.sharing.structure_key = std::move(structure);
      }
    }
    if (use_results) plan.result_key = resultCacheKey(task, opt_.eye);
  }

  // Live progress surface. The stats hook runs at emission time (under the
  // reporter's throttle) and fills the rate fields the reporter cannot know
  // itself: worker utilization from the pool's busy-seconds counter and
  // cache hit rates from the same before/after deltas the telemetry export
  // uses. `pool_ptr` is null until the pool exists (replay-pre-pass
  // emissions simply omit utilization).
  ThreadPool* pool_ptr = nullptr;
  obs::ProgressReporter progress(
      opt_.progress, tasks.size(),
      [&pool_ptr, workers, use_results, this,
       &solver_before](obs::ProgressSnapshot& s) {
        if (pool_ptr != nullptr && s.elapsed_seconds > 0.0) {
          const ThreadPoolStats ps = pool_ptr->stats();
          s.worker_utilization =
              std::min(1.0, ps.busy_seconds /
                                (static_cast<double>(workers) * s.elapsed_seconds));
        }
        const SolverStateCacheStats sc = opt_.solver_cache->stats();
        const long long hits = sc.symbolic_hits - solver_before.symbolic_hits;
        const long long misses = sc.symbolic_misses - solver_before.symbolic_misses;
        if (hits + misses > 0)
          s.solver_cache_hit_rate =
              static_cast<double>(hits) / static_cast<double>(hits + misses);
        if (use_results && s.total > 0)
          s.result_cache_hit_rate =
              static_cast<double>(s.replayed) / static_cast<double>(s.total);
      });

  // Result-cache pre-pass, serial: a corner already computed (this sweep
  // has a content-identical predecessor, or a shared cache across sweeps)
  // is replayed under the asking task's index without touching the pool.
  if (use_results) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (auto hit = opt_.result_cache->find(plans[i].result_key)) {
        SweepRunRecord rec = *hit;
        rec.index = tasks[i].index;
        rec.label = tasks[i].label;
        // A replayed corner did no solver work in THIS sweep: zero its
        // telemetry/wall clock so the sweep totals (LU counts, phase
        // times) describe only work actually performed. The replay itself
        // is visible as a result_cache hit.
        rec.telemetry = obs::RunTelemetry{};
        rec.wall_seconds = 0.0;
        result.runs[i] = std::move(rec);
        plans[i].done = true;
        // Replays did no numerical work in this sweep, so they carry no
        // health grade (kOk keeps the stream consistent with
        // healthSummary(), which only counts collected corners).
        progress.taskReplayed(obs::HealthSeverity::kOk);
      }
    }
  }

  // Submission order groups structurally identical corners together
  // (original order otherwise, shareable corners first): the class's
  // builder then runs while its siblings are near the front of the queue,
  // so they block briefly on the in-flight build instead of much later.
  // Collection below is by slot, so this permutation never reaches the
  // exported order.
  std::vector<std::size_t> order;
  order.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (!plans[i].done) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SolverSharing& sa = plans[a].sharing;
    const SolverSharing& sb = plans[b].sharing;
    const bool ea = sa.provider == nullptr;
    const bool eb = sb.provider == nullptr;
    if (ea != eb) return eb;  // shareable corners first
    return sa.structure_key < sb.structure_key;
  });

  // The histogram registry outlives the pool (declared first, destroyed
  // last): workers record into it until the last future resolves.
  obs::HistogramRegistry hist;
  obs::HistogramRegistry* hist_ptr = opt_.collect_histograms ? &hist : nullptr;

  ThreadPool pool(workers);
  pool_ptr = &pool;
  if (hist_ptr != nullptr) pool.setQueueWaitRecorder(hist_ptr);
  std::vector<std::future<SweepRunRecord>> futures;
  futures.reserve(order.size());
  for (std::size_t slot : order) {
    const SimulationTask& task = tasks[slot];
    const SolverSharing& sharing = plans[slot].sharing;
    futures.push_back(pool.submit([this, &task, &sharing, hist_ptr,
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
        TaskWaveforms waves = runSimulationTask(task, driver, receiver, sharing);
        const BitPattern pattern(task.scenario->pattern(),
                                 task.scenario->bitTime());
        rec.metrics = computeRunMetrics(waves, pattern, opt_.eye);
        rec.wall_seconds = waves.wall_seconds;
        rec.telemetry = waves.telemetry;
        // The engine layer owns the corner wall clock (telemetry.h).
        rec.telemetry.wall_seconds = waves.wall_seconds;
        if (opt_.keep_waveforms) rec.waves = std::move(waves);
        rec.ok = true;
        if (hist_ptr != nullptr) {
          const obs::TransientPhases& ph = rec.telemetry.phases;
          hist_ptr->record("corner_wall_seconds", rec.wall_seconds);
          hist_ptr->record("corner_factor_seconds", ph.factor_seconds);
          hist_ptr->record("corner_rhs_stamp_seconds", ph.rhs_stamp_seconds);
          hist_ptr->record("corner_solve_seconds", ph.solve_seconds);
          hist_ptr->record("corner_newton_iterations",
                           static_cast<double>(rec.telemetry.newton_iterations));
        }
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

  // Publish freshly computed records for later content-identical corners.
  if (use_results) {
    for (std::size_t slot : order)
      opt_.result_cache->put(plans[slot].result_key, result.runs[slot]);
  }

  // Every future has been collected, so the pool counters are final for
  // this batch even though the pool itself is still alive.
  result.pool = pool.stats();
  pool.setQueueWaitRecorder(nullptr);
  if (hist_ptr != nullptr) result.histograms = hist_ptr->snapshot();
  progress.finish();
  const ModelCacheStats cache_after = opt_.model_cache->stats();
  result.model_cache.hits = cache_after.hits - cache_before.hits;
  result.model_cache.misses = cache_after.misses - cache_before.misses;
  result.model_cache.inserts = cache_after.inserts - cache_before.inserts;
  result.model_cache.preload_seconds =
      cache_after.preload_seconds - cache_before.preload_seconds;
  const SolverStateCacheStats solver_after = opt_.solver_cache->stats();
  result.solver_cache.symbolic_hits = solver_after.symbolic_hits - solver_before.symbolic_hits;
  result.solver_cache.symbolic_misses =
      solver_after.symbolic_misses - solver_before.symbolic_misses;
  result.solver_cache.inserts = solver_after.inserts - solver_before.inserts;
  const ResultCacheStats results_after = opt_.result_cache->stats();
  result.result_cache.hits = results_after.hits - results_before.hits;
  result.result_cache.misses = results_after.misses - results_before.misses;
  result.result_cache.inserts = results_after.inserts - results_before.inserts;

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
