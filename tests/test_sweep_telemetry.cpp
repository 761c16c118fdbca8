// Tests for the sweep telemetry export and the observability determinism
// contract: enabling telemetry/tracing must not perturb a single exported
// metric byte, while the separate telemetry JSON reports real per-corner
// phase timings, solver counters, cache effectiveness, and pool stats.
#include "engine/sweep_telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/sweep_runner.h"
#include "json_lint.h"
#include "obs/trace.h"

namespace fdtdmm {
namespace {

SweepSpec smallCrosstalkSpec() {
  SweepSpec spec;
  spec.scenario = "crosstalk";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 1e-9);
  spec.set("t_stop", 3e-9);
  spec.set("segments", 8.0);
  spec.axis("coupling", {0.05, 0.2});
  spec.axis("victim_r_far", {25.0, 100.0});
  return spec;
}

SweepSpec smallEmcSpec() {
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("drive", std::string("none"));
  spec.set("t_stop", 3e-9);
  spec.set("segments", 8.0);
  spec.set("pulse_t0", 1e-9);
  spec.axis("amplitude", {500.0, 1000.0});
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct Exports {
  std::string csv;
  std::string json;
};

Exports exportMetrics(const SweepResult& result) {
  const std::string csv_path = "test_sweep_tel.csv";
  const std::string json_path = "test_sweep_tel.json";
  writeSweepCsv(result, csv_path);
  writeSweepJson(result, json_path);
  Exports e{slurp(csv_path), slurp(json_path)};
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
  return e;
}

TEST(SweepTelemetry, MetricsBytesIdenticalAcrossWorkersAndTracing) {
  const SweepSpec spec = smallCrosstalkSpec();

  auto runWith = [&](std::size_t workers, bool traced) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    SweepRunner runner(opt);
    if (!traced) return exportMetrics(runner.run(spec));
    obs::TraceWriter tw("");  // in-memory: exercise the spans, no file
    obs::TraceWriter::setActive(&tw);
    const SweepResult result = runner.run(spec);
    obs::TraceWriter::setActive(nullptr);
    EXPECT_GT(tw.eventCount(), 0u);
    return exportMetrics(result);
  };

  // The JSON header records the worker count by design; everything after
  // it (the runs array) must be byte-identical.
  auto stripHeader = [](const std::string& json) {
    const std::size_t runs = json.find("\"runs\"");
    EXPECT_NE(runs, std::string::npos);
    return json.substr(runs);
  };

  const Exports base = runWith(1, false);
  EXPECT_FALSE(base.csv.empty());
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (bool traced : {false, true}) {
      const Exports e = runWith(workers, traced);
      EXPECT_EQ(e.csv, base.csv) << "workers=" << workers << " traced=" << traced;
      EXPECT_EQ(stripHeader(e.json), stripHeader(base.json))
          << "workers=" << workers << " traced=" << traced;
    }
  }
}

TEST(SweepTelemetry, WaveformsBitIdenticalWithTelemetryAttached) {
  // The solver records waveforms identically whether or not the phase
  // timers run; compare a traced against an untraced sweep sample-level.
  const SweepSpec spec = smallCrosstalkSpec();
  SweepRunnerOptions opt;
  opt.workers = 1;
  opt.keep_waveforms = true;

  SweepRunner plain(opt);
  const SweepResult a = plain.run(spec);

  obs::TraceWriter tw("");
  obs::TraceWriter::setActive(&tw);
  SweepRunner traced(opt);
  const SweepResult b = traced.run(spec);
  obs::TraceWriter::setActive(nullptr);

  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    ASSERT_TRUE(a.runs[i].ok) << a.runs[i].error;
    const Waveform& wa = a.runs[i].waves.v_far;
    const Waveform& wb = b.runs[i].waves.v_far;
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t k = 0; k < wa.size(); ++k) EXPECT_EQ(wa[k], wb[k]);
  }
}

TEST(SweepTelemetry, CrosstalkCornersReportSolverCounters) {
  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(smallCrosstalkSpec());
  ASSERT_EQ(result.okCount(), result.runs.size());

  for (const SweepRunRecord& r : result.runs) {
    // Crosstalk corners are nonlinear, but their one nonlinear element is
    // the RBF driver port to ground: every Newton iteration is a port solve
    // on the corner's single base factorization.
    EXPECT_EQ(r.telemetry.lu_factorizations, 1) << r.label;
    EXPECT_EQ(r.telemetry.low_rank_solves, r.telemetry.newton_iterations) << r.label;
    EXPECT_GT(r.telemetry.phases.factor_seconds, 0.0) << r.label;
    EXPECT_EQ(r.telemetry.transient_runs, 1) << r.label;
    EXPECT_GT(r.telemetry.steps, 0) << r.label;
    EXPECT_GT(r.telemetry.newton_iterations, 0) << r.label;
    // The corner computes the class's RCM ordering once or checks it out
    // for its base factorization.
    EXPECT_EQ(r.telemetry.rcm_orderings + r.telemetry.shared_symbolic_reuses, 1)
        << r.label;
    EXPECT_EQ(r.telemetry.rcm_orderings, r.telemetry.shared_symbolic_builds) << r.label;
    // Structural size of the factored system: two 8-segment ladders.
    const obs::StructureSize& z = r.telemetry.structure;
    EXPECT_GT(z.unknowns, 32) << r.label;
    EXPECT_GT(z.nonzeros, z.unknowns) << r.label;
    EXPECT_GT(z.kl + z.ku, 0) << r.label;
    EXPECT_LT(z.kl + z.ku, z.unknowns) << r.label;
    EXPECT_GT(r.telemetry.wall_seconds, 0.0) << r.label;
    const obs::TransientPhases& p = r.telemetry.phases;
    EXPECT_GT(p.stamp_static_seconds, 0.0) << r.label;
    EXPECT_GT(p.rhs_stamp_seconds, 0.0) << r.label;
    EXPECT_GT(p.solve_seconds, 0.0) << r.label;
    EXPECT_GT(p.newton_seconds, 0.0) << r.label;
    // The Newton loop contains the per-iteration phases.
    EXPECT_GE(p.newton_seconds, p.solve_seconds) << r.label;
  }

  // Pool and cache stats describe this sweep's batch.
  EXPECT_EQ(result.pool.submitted,
            static_cast<long long>(result.runs.size()));
  EXPECT_EQ(result.pool.tasks_per_worker.size(), result.workers);
  long long dispatched = 0;
  for (long long n : result.pool.tasks_per_worker) dispatched += n;
  EXPECT_EQ(dispatched, result.pool.submitted);
  // One driver model resolved once at preload, then hit by every corner.
  EXPECT_EQ(result.model_cache.misses, 1);
  EXPECT_EQ(result.model_cache.inserts, 1);
  EXPECT_GE(result.model_cache.hits,
            static_cast<long long>(result.runs.size()));
  EXPECT_GT(result.model_cache.preload_seconds, 0.0);
}

TEST(SweepTelemetry, EmcSweepTelemetryAndJsonExport) {
  SweepRunnerOptions opt;
  opt.workers = 2;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(smallEmcSpec());
  ASSERT_EQ(result.okCount(), result.runs.size());

  obs::RunTelemetry totals;
  for (const SweepRunRecord& r : result.runs) {
    // A linear corner factors its own base exactly once.
    EXPECT_EQ(r.telemetry.lu_factorizations, 1) << r.label;
    EXPECT_GT(r.telemetry.steps, 0) << r.label;
    totals.merge(r.telemetry);
  }
  // Amplitude is RHS-only, so the 2-amplitude sweep is one structure
  // class: both corners factor on one shared RCM ordering.
  EXPECT_EQ(totals.lu_factorizations, 2);
  EXPECT_EQ(totals.rcm_orderings, 1);
  EXPECT_EQ(totals.pattern_compiles, 1);
  EXPECT_EQ(result.solver_cache.symbolic_misses, 1);
  EXPECT_EQ(result.solver_cache.symbolic_hits, 1);
  // Quiescent EMC corners need no macromodels at all.
  EXPECT_EQ(result.model_cache.misses, 0);
  EXPECT_EQ(result.model_cache.hits, 0);

  const std::string json = sweepTelemetryJson(result);
  std::string err;
  ASSERT_TRUE(jsonlint::valid(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"corners\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"pool\""), std::string::npos);
  EXPECT_NE(json.find("\"model_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"steps\": " + std::to_string(totals.steps)),
            std::string::npos);
  // Per-corner structural size: an 8-segment quiescent line.
  EXPECT_NE(json.find("\"structure\": {\"unknowns\": " +
                      std::to_string(totals.structure.unknowns)),
            std::string::npos);
  EXPECT_GT(totals.structure.unknowns, 8);

  const std::string path = "test_emc_telemetry.json";
  writeSweepTelemetryJson(result, path);
  EXPECT_EQ(slurp(path), json);
  std::remove(path.c_str());
}

TEST(SweepTelemetry, MetricsBytesIdenticalWithObservabilityOnVsOff) {
  // The second-generation observability contract: numerical health and
  // live progress ride the telemetry channel (next to the always-collected
  // latency histograms) — neither may perturb a single exported metric
  // byte.
  const SweepSpec spec = smallCrosstalkSpec();

  auto runWith = [&](bool observed) {
    SweepRunnerOptions opt;
    opt.workers = 2;
    if (observed) {
      opt.health.collect = true;
      opt.progress.enabled = true;
      opt.progress.min_interval_seconds = 0.0;  // emit on every corner
      opt.progress.sink = [](const obs::ProgressSnapshot&) {};  // keep quiet
    }
    SweepRunner runner(opt);
    return exportMetrics(runner.run(spec));
  };

  const Exports off = runWith(false);
  const Exports on = runWith(true);
  EXPECT_FALSE(off.csv.empty());
  EXPECT_EQ(on.csv, off.csv);
  EXPECT_EQ(on.json, off.json);
}

// The live progress stream's solver-cache rate counts symbolic lookups: an
// N-frequency "ac" sweep is one structure class, so the final snapshot
// reads (N-1)/N.
TEST(SweepTelemetry, ProgressSolverCacheRateCountsSymbolicLookups) {
  const std::vector<double> frequencies = {1e6, 1e7, 1e8, 5e8, 1e9};
  SweepSpec spec;
  spec.scenario = "ac";
  spec.axis("frequency", frequencies);

  std::vector<obs::ProgressSnapshot> snaps;
  SweepRunnerOptions opt;
  opt.workers = 1;
  opt.progress.enabled = true;
  opt.progress.sink = [&snaps](const obs::ProgressSnapshot& s) { snaps.push_back(s); };
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);
  ASSERT_EQ(result.okCount(), frequencies.size());

  ASSERT_FALSE(snaps.empty());
  EXPECT_TRUE(snaps.back().final);
  const double n = static_cast<double>(frequencies.size());
  EXPECT_DOUBLE_EQ(snaps.back().solver_cache_hit_rate, (n - 1.0) / n);
}

// A 1-worker AC sweep runs every corner on its one pool thread, so each
// corner after the first takes the workspace the previous one kept:
// N corners report N - 1 reuses, per corner, in the totals and in the
// counter slot.
TEST(SweepTelemetry, AcSweepReportsWorkspaceReuses) {
  const std::vector<double> frequencies = {1e6, 1e7, 1e8, 5e8, 1e9};
  SweepSpec spec;
  spec.scenario = "ac";
  spec.axis("frequency", frequencies);
  SweepRunnerOptions opt;
  opt.workers = 1;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);
  ASSERT_EQ(result.okCount(), frequencies.size());

  const long long n = static_cast<long long>(frequencies.size());
  for (const SweepRunRecord& r : result.runs)
    EXPECT_EQ(r.telemetry.workspace_reuses, r.index == 0 ? 0 : 1) << r.label;
  EXPECT_EQ(sweepCounters(result).count("solver.workspace_reuses"), n - 1);
  const std::string json = sweepTelemetryJson(result);
  std::string err;
  ASSERT_TRUE(jsonlint::valid(json, &err)) << err;
  const std::size_t totals = json.find("\"totals\": {");
  ASSERT_NE(totals, std::string::npos);
  EXPECT_EQ(json.find("\"workspace_reuses\": ", totals),
            json.find("\"workspace_reuses\": " + std::to_string(n - 1), totals));
}

TEST(SweepTelemetry, HealthAndHistogramsFlowIntoTelemetryJson) {
  SweepRunnerOptions opt;
  opt.workers = 2;
  opt.health.collect = true;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(smallEmcSpec());
  ASSERT_EQ(result.okCount(), result.runs.size());

  // Every corner carried a graded health record...
  for (const SweepRunRecord& r : result.runs) {
    const obs::NumericalHealth& h = r.telemetry.health;
    EXPECT_TRUE(h.collected) << r.label;
    EXPECT_EQ(h.residual_checks, 1) << r.label;
    EXPECT_LT(h.max_relative_residual, 1e-8) << r.label;
    EXPECT_EQ(h.severity, obs::HealthSeverity::kOk) << r.label;
  }
  // ...which the summary aggregates with worst-corner pointers.
  const SweepResult::HealthSummary summary = result.healthSummary();
  EXPECT_EQ(summary.collected_corners, result.runs.size());
  EXPECT_EQ(summary.warn_corners, 0u);
  EXPECT_EQ(summary.critical_corners, 0u);
  EXPECT_EQ(summary.severity, obs::HealthSeverity::kOk);
  EXPECT_LT(summary.worst_residual_corner, result.runs.size());
  EXPECT_GT(summary.worst_residual, 0.0);

  // Latency histograms recorded one sample per corner (always collected).
  ASSERT_EQ(result.histograms.count("corner_wall_seconds"), 1u);
  EXPECT_EQ(result.histograms.at("corner_wall_seconds").count(),
            result.runs.size());
  EXPECT_EQ(result.histograms.at("corner_newton_iterations").count(),
            result.runs.size());
  EXPECT_GT(result.histograms.at("corner_wall_seconds").percentile(0.5), 0.0);
  // Pool busy time is the utilization numerator: bounded by wall * workers.
  EXPECT_GT(result.pool.busy_seconds, 0.0);

  // The telemetry JSON carries every new section and still lints.
  const std::string json = sweepTelemetryJson(result);
  std::string err;
  ASSERT_TRUE(jsonlint::valid(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"health_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"corner_wall_seconds\""), std::string::npos);

  // The canonical counter document agrees with the result's own stats —
  // the same slots the examples' footers and BENCH_*.json print.
  const obs::Counters counters = sweepCounters(result);
  EXPECT_EQ(counters.count("corners.ok"),
            static_cast<long long>(result.okCount()));
  EXPECT_EQ(counters.count("corners.failed"), 0);
  EXPECT_EQ(counters.count("solver_cache.symbolic_misses"),
            result.solver_cache.symbolic_misses);
  long long compiles = 0;
  for (const SweepRunRecord& r : result.runs) compiles += r.telemetry.pattern_compiles;
  EXPECT_EQ(counters.count("solver.pattern_compiles"), compiles);
  EXPECT_GT(compiles, 0);
  EXPECT_EQ(counters.count("pool.tasks"), result.pool.submitted);
  EXPECT_EQ(counters.count("health.warn_corners"), 0);
  EXPECT_EQ(counters.count("health.critical_corners"), 0);
}

TEST(SweepTelemetry, HealthOffLeavesSummaryEmptyAndJsonValid) {
  SweepRunnerOptions opt;
  opt.workers = 1;
  SweepRunner runner(opt);
  const SweepResult result = runner.run(smallEmcSpec());
  ASSERT_EQ(result.okCount(), result.runs.size());

  for (const SweepRunRecord& r : result.runs)
    EXPECT_FALSE(r.telemetry.health.collected) << r.label;
  const SweepResult::HealthSummary summary = result.healthSummary();
  EXPECT_EQ(summary.collected_corners, 0u);
  EXPECT_EQ(summary.worst_residual_corner, static_cast<std::size_t>(-1));

  // The schema is stable: the health sections are still present (zeroed),
  // the document still lints, and worst-corner pointers are -1.
  const std::string json = sweepTelemetryJson(result);
  std::string err;
  ASSERT_TRUE(jsonlint::valid(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"health_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"collected\": false"), std::string::npos);
  EXPECT_NE(json.find("\"worst_residual_corner\": -1"), std::string::npos);
}

// docs/telemetry_schema.md must name every key of the RunTelemetry body
// the export emits (the health object has its own table and is skipped).
TEST(SweepTelemetry, SchemaDocumentNamesEveryRunTelemetryKey) {
  SweepRunnerOptions opt;
  opt.workers = 1;
  SweepRunner runner(opt);
  const std::string json = sweepTelemetryJson(runner.run(smallEmcSpec()));
  const std::size_t begin = json.find("\"totals\": {");
  const std::size_t end = json.find("\"corners\": [");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  std::string body = json.substr(begin, end - begin);
  const std::size_t health = body.find("\"health\": {");
  ASSERT_NE(health, std::string::npos);
  const std::size_t open = body.find('{', health);
  body.erase(open, body.find('}', open) - open + 1);  // the health object

  std::string doc_path = __FILE__;
  doc_path = doc_path.substr(0, doc_path.rfind("tests/")) + "docs/telemetry_schema.md";
  const std::string doc = slurp(doc_path);
  ASSERT_FALSE(doc.empty()) << doc_path;

  std::set<std::string> keys;
  const std::regex key_re("\"([a-z_]+)\": ");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), key_re);
       it != std::sregex_iterator(); ++it)
    keys.insert((*it)[1]);
  EXPECT_GT(keys.size(), 20u);
  EXPECT_EQ(keys.count("pattern_compiles"), 1u);
  for (const std::string& key : keys)
    EXPECT_NE(doc.find("`" + key + "`"), std::string::npos) << key;
}

TEST(SweepTelemetry, FailedCornerGetsZeroedTelemetry) {
  SweepResult result;
  result.workers = 1;
  SweepRunRecord bad;
  bad.index = 0;
  bad.label = "broken \"corner\"";
  bad.ok = false;
  bad.error = "boom";
  result.runs.push_back(bad);
  const std::string json = sweepTelemetryJson(result);
  std::string err;
  ASSERT_TRUE(jsonlint::valid(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

}  // namespace
}  // namespace fdtdmm
