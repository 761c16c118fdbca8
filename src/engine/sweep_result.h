#pragma once
/// \file sweep_result.h
/// Per-run signal-integrity metrics and structured export for sweeps.
///
/// ## CSV schema (writeSweepCsv)
/// One header line, then one line per task in task-index order:
///
///   index,label,ok,error,eye_height,eye_level_high,eye_level_low,eye_open,
///   v_far_max,v_far_min,overshoot,settling_time,far_end_delay,max_newton_iterations
///
///   - index                 task index from the SweepSpec expansion
///   - label                 quoted task label (embedded quotes doubled)
///   - ok                    1 if the run completed, 0 if it threw
///   - error                 quoted exception text ("" when ok)
///   - eye_height..eye_open  far-end EyeMetrics (empty fields when the eye
///                           could not be measured, e.g. a pattern shorter
///                           than skip_bits + 2)
///   - v_far_max/v_far_min   far-end waveform extrema [V]
///   - overshoot             v_far_max minus the settled HIGH level [V]
///   - settling_time         last time |v_far - v_far(end)| exceeds 5% of
///                           the total swing [s]
///   - far_end_delay         50%-swing crossing delay, near to far end [s];
///                           -1 when either waveform never crosses
///   - max_newton_iterations worst Newton count over the run
///   Numeric fields use printf %.9g, so exports from the same sweep are
///   byte-identical regardless of worker count. Wall-clock timings are
///   deliberately NOT exported (they are in SweepResult for reporting).
///
/// ## JSON schema (writeSweepJson)
/// A single object:
///
///   { "workers": N, "runs": [ { "index": 0, "label": "...", "ok": true,
///       "error": "", "metrics": { "eye_height": ..., "eye_level_high": ...,
///       "eye_level_low": ..., "eye_open": bool, "eye_valid": bool,
///       "v_far_max": ..., "v_far_min": ..., "overshoot": ...,
///       "settling_time": ..., "far_end_delay": ...,
///       "max_newton_iterations": N } }, ... ] }
///
///   Same determinism contract as the CSV; "metrics" is null for failed
///   runs, and eye_* fields are 0 with "eye_valid": false when the eye
///   could not be measured.
///
/// Wall-clock data (per-run wall_seconds, solver telemetry, pool/cache
/// stats) deliberately stays out of both exports — it goes to the separate
/// telemetry document (engine/sweep_telemetry.h, writeSweepTelemetryJson),
/// so these two files stay byte-identical across worker counts and
/// machines.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/sim_task.h"
#include "engine/model_cache.h"
#include "engine/result_cache.h"
#include "engine/solver_state_cache.h"
#include "engine/thread_pool.h"
#include "obs/health.h"
#include "obs/histogram.h"
#include "signal/eye.h"

namespace fdtdmm {

/// Deterministic per-run metrics (no wall-clock content).
struct RunMetrics {
  EyeMetrics eye;        ///< far-end eye vs the transmitted pattern
  bool eye_valid = false;  ///< false when measureEye is not applicable
  double v_far_max = 0.0;
  double v_far_min = 0.0;
  double overshoot = 0.0;       ///< v_far_max - settled HIGH [V]
  double settling_time = 0.0;   ///< [s], see CSV schema
  double far_end_delay = -1.0;  ///< [s], -1 when undefined
  int max_newton_iterations = 0;
};

/// Computes metrics from a finished task run. Pure function of its inputs.
/// \throws std::invalid_argument on an empty far-end waveform.
RunMetrics computeRunMetrics(const TaskWaveforms& waves, const BitPattern& pattern,
                             const EyeOptions& eye_opt = {});

/// Outcome of one task: either metrics (ok) or the captured error text.
struct SweepRunRecord {
  std::size_t index = 0;
  std::string label;
  bool ok = false;
  std::string error;
  RunMetrics metrics;
  TaskWaveforms waves;        ///< populated only with SweepRunnerOptions::keep_waveforms
  double wall_seconds = 0.0;  ///< exported only by writeSweepTelemetryJson
  /// Per-corner solver telemetry (phase timings, LU/Newton counters);
  /// aggregated from the scenario run, exported only by
  /// writeSweepTelemetryJson. Always populated, even without
  /// keep_waveforms.
  obs::RunTelemetry telemetry;
};

/// All runs of a sweep, in task-index order independent of thread count.
struct SweepResult {
  std::vector<SweepRunRecord> runs;
  std::size_t workers = 1;
  double wall_seconds = 0.0;  ///< whole-sweep wall clock (informational)
  /// Pool utilization over this sweep's task batch (queue high-water,
  /// per-worker counts, queue wait). Zero-initialized when the sweep did
  /// not run through runSweep.
  ThreadPoolStats pool;
  /// ModelCache effectiveness delta over this sweep (hits/misses/inserts
  /// attributable to it, including preload).
  ModelCacheStats model_cache;
  /// SolverStateCache effectiveness delta over this sweep (symbolic and
  /// numeric-base sharing; zero when sharing is disabled or no family
  /// opted in). numeric_misses is the number of numeric-base classes this
  /// sweep factored — on a purely linear sweep it equals the total LU
  /// count across all corners.
  SolverStateCacheStats solver_cache;
  /// ResultCache effectiveness delta over this sweep (zero when result
  /// reuse is disabled or waveforms were requested).
  ResultCacheStats result_cache;
  /// Sweep-level latency distributions (per-corner wall/phase times, Newton
  /// iteration counts, pool queue wait), merged across workers after the
  /// sweep drains. Empty when SweepRunnerOptions::collect_histograms is
  /// off. Keys: corner_wall_seconds, corner_solve_seconds,
  /// corner_factor_seconds, corner_rhs_stamp_seconds,
  /// corner_newton_iterations, pool.queue_wait_seconds.
  std::map<std::string, obs::Histogram> histograms;

  std::size_t okCount() const;

  /// Health roll-up over runs[*].telemetry.health (see healthSummary()).
  struct HealthSummary {
    std::size_t collected_corners = 0;  ///< corners that carried health data
    std::size_t warn_corners = 0;
    std::size_t critical_corners = 0;
    /// Corner index with the largest relative residual / condition
    /// estimate; npos when no corner reported one.
    std::size_t worst_residual_corner = static_cast<std::size_t>(-1);
    std::size_t worst_condition_corner = static_cast<std::size_t>(-1);
    double worst_residual = 0.0;
    double worst_condition = 0.0;
    /// Worst per-corner grade seen (kOk when nothing was collected).
    obs::HealthSeverity severity = obs::HealthSeverity::kOk;
  };

  /// Aggregates per-corner numerical health into the sweep-level summary
  /// the telemetry export and progress surface report. Cheap (one pass
  /// over runs); returns an all-zero summary when health collection was
  /// off.
  HealthSummary healthSummary() const;
};

/// The %.9g number formatter and CSV/JSON quoting shared by every sweep
/// exporter (sweep_result, ensemble_stats): one determinism contract, one
/// implementation.
std::string formatMetricNumber(double v);
std::string csvQuote(const std::string& s);
std::string jsonQuote(const std::string& s);

/// Writes the CSV table described above. \throws std::runtime_error if the
/// file cannot be opened.
void writeSweepCsv(const SweepResult& result, const std::string& path);

/// Writes the JSON document described above. \throws std::runtime_error if
/// the file cannot be opened.
void writeSweepJson(const SweepResult& result, const std::string& path);

}  // namespace fdtdmm
