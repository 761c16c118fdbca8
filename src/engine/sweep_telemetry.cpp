#include "engine/sweep_telemetry.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace fdtdmm {

namespace {

std::string num(double v) {
  // Clamp non-finite values (a singular corner's condition estimate can be
  // inf) so the document always parses: %.9g would print "inf"/"nan".
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0.0 ? 1e308 : -1e308;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// jsonQuote comes from engine/sweep_result.h (shared export helper).

/// The NumericalHealth object (with braces) embedded in "totals" and each
/// corner. Always emitted, all-zero with "collected": false when health
/// collection was off, so consumers never need an existence check.
std::string healthJson(const obs::NumericalHealth& h) {
  std::string out = "{";
  out += std::string("\"collected\": ") + (h.collected ? "true" : "false");
  out += std::string(", \"severity\": \"") + obs::healthSeverityName(h.severity) + "\"";
  out += ", \"factorizations\": " + std::to_string(h.factorizations);
  out += ", \"min_abs_pivot\": " + num(h.min_abs_pivot);
  out += ", \"max_pivot_growth\": " + num(h.max_pivot_growth);
  out += ", \"condition_estimates\": " + std::to_string(h.condition_estimates);
  out += ", \"max_condition_estimate\": " + num(h.max_condition_estimate);
  out += ", \"residual_checks\": " + std::to_string(h.residual_checks);
  out += ", \"max_relative_residual\": " + num(h.max_relative_residual);
  out += ", \"newton_steps_converged\": " + std::to_string(h.newton_steps_converged);
  out += ", \"newton_steps_stagnated\": " + std::to_string(h.newton_steps_stagnated);
  out += ", \"newton_steps_diverged\": " + std::to_string(h.newton_steps_diverged);
  out += ", \"worst_newton_trajectory\": [";
  for (std::size_t i = 0; i < h.worst_newton_trajectory.size(); ++i)
    out += (i ? ", " : "") + num(h.worst_newton_trajectory[i]);
  out += "]}";
  return out;
}

/// One histogram's summary object (with braces).
std::string histogramJson(const obs::Histogram& h) {
  std::string out = "{";
  out += "\"count\": " + std::to_string(h.count());
  out += ", \"sum\": " + num(h.sum());
  out += ", \"min\": " + num(h.min());
  out += ", \"max\": " + num(h.max());
  out += ", \"mean\": " + num(h.mean());
  out += ", \"p50\": " + num(h.percentile(0.50));
  out += ", \"p90\": " + num(h.percentile(0.90));
  out += ", \"p95\": " + num(h.percentile(0.95));
  out += ", \"p99\": " + num(h.percentile(0.99)) + "}";
  return out;
}

/// The RunTelemetry body shared by "totals" and each corner (brace-less;
/// the caller supplies the enclosing object and any extra keys).
std::string telemetryBody(const obs::RunTelemetry& t) {
  const obs::TransientPhases& p = t.phases;
  std::string out;
  out += "\"phases\": {\"stamp_static_seconds\": " + num(p.stamp_static_seconds);
  out += ", \"factor_seconds\": " + num(p.factor_seconds);
  out += ", \"rhs_stamp_seconds\": " + num(p.rhs_stamp_seconds);
  out += ", \"solve_seconds\": " + num(p.solve_seconds);
  out += ", \"newton_seconds\": " + num(p.newton_seconds) + "}";
  out += ", \"lu_factorizations\": " + std::to_string(t.lu_factorizations);
  out += ", \"low_rank_solves\": " + std::to_string(t.low_rank_solves);
  out += ", \"newton_iterations\": " + std::to_string(t.newton_iterations);
  out += ", \"max_newton_iterations\": " + std::to_string(t.max_newton_iterations);
  out += ", \"steps\": " + std::to_string(t.steps);
  out += ", \"transient_runs\": " + std::to_string(t.transient_runs);
  out += ", \"pattern_realignments\": " + std::to_string(t.pattern_realignments);
  out += ", \"shared_symbolic_builds\": " + std::to_string(t.shared_symbolic_builds);
  out += ", \"shared_symbolic_reuses\": " + std::to_string(t.shared_symbolic_reuses);
  out += ", \"pattern_compiles\": " + std::to_string(t.pattern_compiles);
  out += ", \"rcm_orderings\": " + std::to_string(t.rcm_orderings);
  const obs::StructureSize& z = t.structure;
  out += ", \"structure\": {\"unknowns\": " + std::to_string(z.unknowns);
  out += ", \"nonzeros\": " + std::to_string(z.nonzeros);
  out += ", \"kl\": " + std::to_string(z.kl);
  out += ", \"ku\": " + std::to_string(z.ku) + "}";
  out += ", \"health\": " + healthJson(t.health);
  return out;
}

}  // namespace

obs::Counters sweepCounters(const SweepResult& result) {
  obs::Counters c;
  const SweepResult::HealthSummary hs = result.healthSummary();
  const std::size_t ok = result.okCount();
  c.add("corners.ok", static_cast<long long>(ok));
  c.add("corners.failed", static_cast<long long>(result.runs.size() - ok));
  c.addSeconds("pool.tasks", result.pool.queue_wait_seconds, result.pool.submitted);
  c.addSeconds("pool.busy", result.pool.busy_seconds, 0);
  c.add("model_cache.hits", result.model_cache.hits);
  c.add("model_cache.misses", result.model_cache.misses);
  c.add("model_cache.inserts", result.model_cache.inserts);
  c.addSeconds("model_cache.preload", result.model_cache.preload_seconds, 0);
  c.add("solver_cache.symbolic_hits", result.solver_cache.symbolic_hits);
  c.add("solver_cache.symbolic_misses", result.solver_cache.symbolic_misses);
  c.add("solver_cache.inserts", result.solver_cache.inserts);
  long long compiles = 0;
  for (const SweepRunRecord& r : result.runs) compiles += r.telemetry.pattern_compiles;
  c.add("solver.pattern_compiles", compiles);
  c.add("health.warn_corners", static_cast<long long>(hs.warn_corners));
  c.add("health.critical_corners", static_cast<long long>(hs.critical_corners));
  return c;
}

std::string sweepTelemetryJson(const SweepResult& result) {
  obs::RunTelemetry totals;
  for (const SweepRunRecord& r : result.runs) totals.merge(r.telemetry);

  std::string out = "{\n";
  out += "  \"workers\": " + std::to_string(result.workers) + ",\n";
  out += "  \"wall_seconds\": " + num(result.wall_seconds) + ",\n";

  const ThreadPoolStats& pool = result.pool;
  out += "  \"pool\": {\"queue_high_water\": " +
         std::to_string(pool.queue_high_water);
  out += ", \"submitted\": " + std::to_string(pool.submitted);
  out += ", \"tasks_per_worker\": [";
  for (std::size_t i = 0; i < pool.tasks_per_worker.size(); ++i)
    out += (i ? ", " : "") + std::to_string(pool.tasks_per_worker[i]);
  out += "], \"queue_wait_seconds\": " + num(pool.queue_wait_seconds);
  out += ", \"busy_seconds\": " + num(pool.busy_seconds) + "},\n";

  const ModelCacheStats& mc = result.model_cache;
  out += "  \"model_cache\": {\"hits\": " + std::to_string(mc.hits);
  out += ", \"misses\": " + std::to_string(mc.misses);
  out += ", \"inserts\": " + std::to_string(mc.inserts);
  out += ", \"preload_seconds\": " + num(mc.preload_seconds) + "},\n";

  const SolverStateCacheStats& sc = result.solver_cache;
  out += "  \"solver_cache\": {\"symbolic_hits\": " + std::to_string(sc.symbolic_hits);
  out += ", \"symbolic_misses\": " + std::to_string(sc.symbolic_misses);
  out += ", \"inserts\": " + std::to_string(sc.inserts) + "},\n";

  const SweepResult::HealthSummary hs = result.healthSummary();
  const auto corner_index = [](std::size_t i) {
    return i == static_cast<std::size_t>(-1) ? std::string("-1") : std::to_string(i);
  };
  out += "  \"health_summary\": {\"collected_corners\": " +
         std::to_string(hs.collected_corners);
  out += ", \"warn_corners\": " + std::to_string(hs.warn_corners);
  out += ", \"critical_corners\": " + std::to_string(hs.critical_corners);
  out += std::string(", \"severity\": \"") + obs::healthSeverityName(hs.severity) + "\"";
  out += ", \"worst_residual_corner\": " + corner_index(hs.worst_residual_corner);
  out += ", \"worst_residual\": " + num(hs.worst_residual);
  out += ", \"worst_condition_corner\": " + corner_index(hs.worst_condition_corner);
  out += ", \"worst_condition\": " + num(hs.worst_condition) + "},\n";

  out += "  \"histograms\": {";
  bool first_hist = true;
  for (const auto& [name, hist] : result.histograms) {
    out += (first_hist ? "" : ", ");
    first_hist = false;
    out += jsonQuote(name) + ": " + histogramJson(hist);
  }
  out += "},\n";

  out += "  \"counters\": " + obs::countersJson(sweepCounters(result)) + ",\n";

  out += "  \"totals\": {" + telemetryBody(totals) +
         ", \"wall_seconds\": " + num(totals.wall_seconds) + "},\n";

  out += "  \"corners\": [";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const SweepRunRecord& r = result.runs[i];
    out += (i ? ",\n" : "\n");
    out += "    {\"index\": " + std::to_string(r.index);
    out += ", \"label\": " + jsonQuote(r.label);
    out += std::string(", \"ok\": ") + (r.ok ? "true" : "false");
    out += ", \"wall_seconds\": " + num(r.telemetry.wall_seconds);
    out += ", " + telemetryBody(r.telemetry) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void writeSweepTelemetryJson(const SweepResult& result, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("writeSweepTelemetryJson: cannot open " + path);
  f << sweepTelemetryJson(result);
  if (!f)
    throw std::runtime_error("writeSweepTelemetryJson: write failed for " + path);
}

}  // namespace fdtdmm
