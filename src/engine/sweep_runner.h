#pragma once
/// \file sweep_runner.h
/// Executes a sweep's tasks across a ThreadPool. The contract that makes
/// parallel sweeps trustworthy:
///   - results come back in task-index order, independent of worker count
///     or scheduling (each future is collected into its task's slot);
///   - every model is resolved once through the shared ModelCache before
///     the pool starts (ModelCache::preload), so identification cost is
///     per-device, not per-task;
///   - a task that throws is recorded as ok=false with the exception text
///     in its slot — one bad corner never aborts the sweep;
///   - with identical tasks and models, the exported metrics are
///     byte-identical for any worker count (see sweep_result.h);
///   - corners whose scenarios report the same structure key (and resolve
///     the same model names) share one symbolic analysis through the
///     runner's SolverStateCache, and their metrics are byte-identical to
///     running each task alone with a default SolverSharing.

#include <cstddef>
#include <memory>
#include <vector>

#include "engine/model_cache.h"
#include "engine/solver_state_cache.h"
#include "engine/sweep_result.h"
#include "engine/sweep_spec.h"
#include "obs/health.h"
#include "obs/progress.h"
#include "signal/eye.h"

namespace fdtdmm {

/// The runner's complete configuration: execution knobs and the optional
/// shared model cache in one struct with named, defaulted fields.
struct SweepRunnerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  std::size_t workers = 0;
  /// Retain each run's waveforms in its SweepRunRecord (memory-heavy for
  /// large sweeps; metrics are always computed).
  bool keep_waveforms = false;
  /// Eye-measurement window for the per-run metrics.
  EyeOptions eye;
  /// Numerical-health collection for every corner (obs/health.h; off by
  /// default). When health.collect is set the runner points each corner's
  /// SolverSharing at this struct, the per-corner records land in
  /// SweepRunRecord::telemetry.health, and SweepResult::healthSummary() /
  /// the telemetry JSON report the roll-up. Metric exports are
  /// byte-identical on or off.
  obs::HealthOptions health;
  /// Live progress stream (obs/progress.h; off by default). Corners report
  /// as they finish; the runner fills worker utilization and the
  /// solver-cache hit rate into each snapshot.
  obs::ProgressOptions progress;
  /// Shared model cache. Null means "fresh private instance" (a fresh
  /// ModelCache can still resolve the built-in "default" models). Passing
  /// one instance lets several sweeps (e.g. an amplitude sweep and its
  /// clean-reference sweep) reuse each other's identified models.
  std::shared_ptr<ModelCache> model_cache;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepRunnerOptions opt = {});

  /// Expands the spec and runs every task. \throws std::invalid_argument
  /// from expansion; per-task failures are captured in the result instead.
  SweepResult run(const SweepSpec& spec);

  /// Runs already-expanded tasks (kept in the given order; `index` fields
  /// key the exported CSV/JSON rows). \throws std::invalid_argument on a
  /// task without a scenario or a duplicate index — rows keyed by index
  /// must be unambiguous.
  SweepResult run(const std::vector<SimulationTask>& tasks);

  /// The model cache in use (never null after construction).
  const std::shared_ptr<ModelCache>& cache() const { return opt_.model_cache; }
  /// The runner's own solver-state cache: every corner whose scenario
  /// returns a structure key checks its class out of it, across all of
  /// this runner's sweeps.
  const SolverStateCache& solverCache() const { return solver_cache_; }

 private:
  SweepRunnerOptions opt_;  ///< model_cache filled in by the constructor
  SolverStateCache solver_cache_;
};

}  // namespace fdtdmm
