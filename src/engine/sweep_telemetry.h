#pragma once
/// \file sweep_telemetry.h
/// The sweep engine's observability export: everything wall-clock-shaped
/// that writeSweepCsv/writeSweepJson deliberately leave out, in its own
/// JSON document. Keeping it separate is the point — the metric exports
/// stay byte-identical across worker counts and machines while this file
/// answers "where did the time go" per corner.
///
/// ## JSON schema (writeSweepTelemetryJson)
/// A single object:
///
///   { "workers": N,
///     "wall_seconds": <whole-sweep wall clock>,
///     "pool": { "queue_high_water": N, "submitted": N,
///               "tasks_per_worker": [N, ...],
///               "queue_wait_seconds": ..., "busy_seconds": ... },
///     "model_cache": { "hits": N, "misses": N, "inserts": N,
///                      "preload_seconds": ... },
///     "solver_cache": { "symbolic_hits": N, "symbolic_misses": N,
///                       "inserts": N },
///     "health_summary": { "collected_corners": N, "warn_corners": N,
///                         "critical_corners": N, "severity": "ok",
///                         "worst_residual_corner": N, "worst_residual": ...,
///                         "worst_condition_corner": N,
///                         "worst_condition": ... },
///     "histograms": { "<name>": { "count": N, "sum": ..., "min": ...,
///                                 "max": ..., "mean": ..., "p50": ...,
///                                 "p90": ..., "p95": ..., "p99": ... },
///                     ... },
///     "counters": { <canonical countersJson(sweepCounters(result))> },
///     "totals": { <RunTelemetry object: all corners merged> },
///     "corners": [
///       { "index": 0, "label": "...", "ok": true,
///         "wall_seconds": ...,
///         "phases": { "stamp_static_seconds": ..., "factor_seconds": ...,
///                     "rhs_stamp_seconds": ..., "solve_seconds": ...,
///                     "newton_seconds": ... },
///         "lu_factorizations": N, "low_rank_solves": N,
///         "newton_iterations": N,
///         "max_newton_iterations": N, "steps": N, "transient_runs": N,
///         "pattern_realignments": N, "shared_symbolic_builds": N,
///         "shared_symbolic_reuses": N, "pattern_compiles": N,
///         "rcm_orderings": N,
///         "structure": { "unknowns": N, "nonzeros": N, "kl": N, "ku": N },
///         "health": { "collected": bool, "severity": "ok|warn|critical",
///                     "factorizations": N, "min_abs_pivot": ...,
///                     "max_pivot_growth": ..., "condition_estimates": N,
///                     "max_condition_estimate": ..., "residual_checks": N,
///                     "max_relative_residual": ...,
///                     "newton_steps_converged": N,
///                     "newton_steps_stagnated": N,
///                     "newton_steps_diverged": N,
///                     "worst_newton_trajectory": [...] } },
///       ... ] }
///
///   - corners appear in task-index order, failed runs included (ok false,
///     zeroed counters);
///   - "totals" carries the same "health" object with every corner's record
///     merged; the "health_summary" roll-up (SweepResult::healthSummary)
///     adds the worst-corner pointers (-1 when nothing was collected);
///   - "health" objects are all-zero with "collected": false when health
///     collection is off;
///   - field meanings are documented once, in obs/telemetry.h (corners),
///     obs/health.h (health), obs/histogram.h (histograms),
///     engine/thread_pool.h (pool), engine/model_cache.h (model_cache)
///     and engine/solver_state_cache.h (solver_cache);
///   - numbers use printf %.9g like the metric exports, but no determinism
///     is promised: every timing here is wall clock by design. Non-finite
///     values (a singular system's infinite condition estimate) are
///     clamped to +/-1e308 (NaN to 0) so the document always parses.
///
/// The full schema, including the examples' stats footers, is documented
/// in docs/telemetry_schema.md (enforced by tests/test_sweep_telemetry).

#include <string>

#include "engine/sweep_result.h"
#include "obs/counters.h"

namespace fdtdmm {

/// Folds a SweepResult's engine-level statistics into the canonical
/// Counters slots shared by the telemetry JSON ("counters"), the bench
/// telemetryJson summaries, and the examples' stats footers:
///
///   corners.ok / corners.failed   (counts)
///   pool.tasks          count = submitted, seconds = queue wait
///   pool.busy           seconds workers spent running task bodies
///   model_cache.hits / .misses / .inserts / .preload (seconds)
///   solver_cache.symbolic_hits / .symbolic_misses / .inserts
///   solver.pattern_compiles   CSR pattern compiles summed over corners
///   health.warn_corners / health.critical_corners
///
/// Render with obs::countersJson for the one true footer format.
obs::Counters sweepCounters(const SweepResult& result);

/// Serializes the telemetry document described above.
std::string sweepTelemetryJson(const SweepResult& result);

/// Writes sweepTelemetryJson(result) to `path`. \throws std::runtime_error
/// if the file cannot be opened or written.
void writeSweepTelemetryJson(const SweepResult& result, const std::string& path);

}  // namespace fdtdmm
