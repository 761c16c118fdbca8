// Tests for the stochastic (Monte Carlo) sweep subsystem: seeded
// distribution axes (sweep_spec.h), the determinism/reproducibility
// contract (same seed => bit-identical exports at any worker count, equal
// to every task run alone), Latin-hypercube stratification, common random
// numbers, solver-state sharing across an illumination ensemble, and the
// ensemble statistics layer (ensemble_stats.h).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/ensemble_stats.h"
#include "engine/sweep_runner.h"
#include "json_lint.h"
#include "sweep_reference.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

using testmodels::slurp;
using testmodels::tinyCache;

/// A fast deterministic t-line base (tiny macromodels, 24-cell 1D FDTD).
SweepSpec tinyTlineSpec() {
  SweepSpec spec;
  spec.scenario = "tline";
  spec.set("engine", std::string("fdtd1d"));
  spec.set("t_stop", 2e-9);
  spec.set("strip_len", 24.0);
  spec.driver = "tinydrv";
  spec.receiver = "tinyrcv";
  return spec;
}

/// Manufacturing-tolerance axis: impedance and far-end RC jointly drawn.
StochasticAxis toleranceAxis(std::size_t samples, std::uint64_t seed,
                             McSampling sampling = McSampling::kIid,
                             bool crn = false) {
  StochasticAxis mc;
  mc.name = "tol";
  mc.params = {truncatedNormalParam("zc", 100.0, 5.0, 80.0, 120.0),
               uniformParam("load_r", 400.0, 600.0),
               uniformParam("load_c", 0.5e-12, 2e-12)};
  mc.samples = samples;
  mc.seed = seed;
  mc.sampling = sampling;
  mc.common_random_numbers = crn;
  return mc;
}

double sampledValue(const TaskProvenance& prov, const std::string& param) {
  for (const ParamBinding& b : prov.sampled)
    if (b.param == param) return std::get<double>(b.value);
  throw std::runtime_error("no sampled binding for " + param);
}

// --- Expansion shape, labels, provenance ---------------------------------

TEST(McSweep, CountAndExpandAgreeOnStochasticGrids) {
  SweepSpec spec = tinyTlineSpec();
  spec.axisStrings("pattern", {"010", "0110"});
  spec.stochasticAxis(toleranceAxis(5, 42));
  EXPECT_EQ(spec.count(), 10u);  // 2 patterns x 5 samples
  const ExpandedSweep ex = spec.expandDetailed();
  EXPECT_EQ(ex.tasks.size(), 10u);
  EXPECT_EQ(ex.provenance.size(), 10u);
  EXPECT_EQ(ex.group_count, 2u);
  // expand() must be exactly expandDetailed().tasks.
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), ex.tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].label, ex.tasks[i].label);
  }
}

TEST(McSweep, StochasticAxisWithZeroSamplesKeepsBaseValues) {
  SweepSpec spec = tinyTlineSpec();
  StochasticAxis mc;  // samples stays 0
  spec.stochasticAxis(mc);
  EXPECT_EQ(spec.count(), 1u);
  const ExpandedSweep ex = spec.expandDetailed();
  ASSERT_EQ(ex.tasks.size(), 1u);
  EXPECT_TRUE(ex.provenance[0].draws.empty());
}

TEST(McSweep, LabelsCarrySeedAndDrawIndex) {
  SweepSpec spec = tinyTlineSpec();
  spec.stochasticAxis(toleranceAxis(3, 42));
  const ExpandedSweep ex = spec.expandDetailed();
  ASSERT_EQ(ex.tasks.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string tag = " | tol#" + std::to_string(s) + "@42";
    EXPECT_NE(ex.tasks[s].label.find(tag), std::string::npos)
        << ex.tasks[s].label;
    ASSERT_EQ(ex.provenance[s].draws.size(), 1u);
    EXPECT_EQ(ex.provenance[s].draws[0].draw, s);
    EXPECT_EQ(ex.provenance[s].draws[0].seed, 42u);
    EXPECT_EQ(ex.provenance[s].group, 0u);
    EXPECT_EQ(ex.provenance[s].group_label, "base");
  }
}

TEST(McSweep, SampledValuesLandOnTheConfiguredScenario) {
  SweepSpec spec = tinyTlineSpec();
  spec.stochasticAxis(toleranceAxis(4, 7));
  const ExpandedSweep ex = spec.expandDetailed();
  for (std::size_t i = 0; i < ex.tasks.size(); ++i) {
    const double zc = sampledValue(ex.provenance[i], "zc");
    EXPECT_GE(zc, 80.0);
    EXPECT_LE(zc, 120.0);
    // The drawn value must be what the scenario actually runs with.
    EXPECT_EQ(std::get<double>(ex.tasks[i].scenario->get("zc")), zc);
    const double r = sampledValue(ex.provenance[i], "load_r");
    EXPECT_GE(r, 400.0);
    EXPECT_LT(r, 600.0);
  }
}

// --- Seeded reproducibility ----------------------------------------------

TEST(McSweep, SameSeedReproducesDrawsDifferentSeedChangesThem) {
  SweepSpec spec = tinyTlineSpec();
  spec.stochasticAxis(toleranceAxis(6, 42));
  const ExpandedSweep a = spec.expandDetailed();
  const ExpandedSweep b = spec.expandDetailed();
  SweepSpec other = tinyTlineSpec();
  other.stochasticAxis(toleranceAxis(6, 43));
  const ExpandedSweep c = other.expandDetailed();
  ASSERT_EQ(a.tasks.size(), 6u);
  bool any_differs = false;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.tasks[i].label, b.tasks[i].label);
    EXPECT_EQ(sampledValue(a.provenance[i], "zc"),
              sampledValue(b.provenance[i], "zc"));
    if (sampledValue(a.provenance[i], "zc") !=
        sampledValue(c.provenance[i], "zc"))
      any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "seed 43 reproduced seed 42's draws";
}

// The runner's exports at 1 and 4 workers equal those of running every
// task alone with a default SolverSharing. The MNA engine makes the ten
// RC-load corners one structure class, so the runner really shares.
TEST(McSweep, ExportsAreByteIdenticalAcrossWorkersAndSharing) {
  SweepSpec spec = tinyTlineSpec();
  spec.set("engine", std::string("spice-rbf"));
  spec.axis("zc", {100.0, 131.0});
  StochasticAxis mc;
  mc.name = "mc";
  mc.params = {uniformParam("load_r", 400.0, 600.0),
               uniformParam("load_c", 0.5e-12, 2e-12)};
  mc.samples = 5;
  mc.seed = 42;
  spec.stochasticAxis(mc);

  const std::string dir = testing::TempDir();
  auto exportsOf = [&dir](const SweepResult& result) {
    const std::string csv_path = dir + "mc_repro.csv";
    const std::string json_path = dir + "mc_repro.json";
    writeSweepCsv(result, csv_path);
    writeSweepJson(result, json_path);
    const std::string csv = slurp(csv_path);
    // The JSON header records the worker count by schema; the run
    // records must match byte for byte, so compare from "runs" on.
    const std::string json = slurp(json_path);
    std::filesystem::remove(csv_path);
    std::filesystem::remove(json_path);
    return std::make_pair(csv, json.substr(json.find("\"runs\"")));
  };

  const auto ref = exportsOf(testmodels::sharingFreeSweep(spec.expand(), *tinyCache()));
  for (std::size_t workers : {1u, 4u}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.model_cache = tinyCache();
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.okCount(), result.runs.size());
    EXPECT_EQ(result.solver_cache.symbolic_misses, 1) << "workers=" << workers;
    const auto got = exportsOf(result);
    EXPECT_EQ(got.first, ref.first) << "workers=" << workers;
    EXPECT_EQ(got.second, ref.second) << "workers=" << workers;
  }
}

TEST(McSweep, ThousandSampleEnsembleIsBitReproducibleAcrossWorkerCounts) {
  // The acceptance-criterion ensemble: 1000 seeded samples, run at 1 and 4
  // workers, byte-compared through the CSV export.
  SweepSpec spec = tinyTlineSpec();
  spec.set("t_stop", 1e-9);
  spec.stochasticAxis(toleranceAxis(1000, 2026, McSampling::kLatinHypercube));
  const std::string dir = testing::TempDir();
  std::string ref;
  for (std::size_t workers : {1u, 4u}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.model_cache = tinyCache();
    SweepRunner runner(opt);
    const SweepResult result = runner.run(spec);
    ASSERT_EQ(result.runs.size(), 1000u);
    ASSERT_EQ(result.okCount(), 1000u);
    const std::string path = dir + "mc_1000.csv";
    writeSweepCsv(result, path);
    const std::string csv = slurp(path);
    std::filesystem::remove(path);
    if (ref.empty())
      ref = csv;
    else
      EXPECT_EQ(csv, ref);
  }
}

// --- Latin-hypercube stratification --------------------------------------

TEST(McSweep, LatinHypercubeHitsEveryStratumOfEveryMarginal) {
  SweepSpec spec = tinyTlineSpec();
  StochasticAxis mc;
  mc.name = "mc";
  mc.params = {uniformParam("zc", 50.0, 150.0),
               uniformParam("load_r", 100.0, 900.0)};
  mc.samples = 16;
  mc.seed = 9;
  mc.sampling = McSampling::kLatinHypercube;
  spec.stochasticAxis(mc);
  const ExpandedSweep ex = spec.expandDetailed();
  ASSERT_EQ(ex.tasks.size(), 16u);
  for (const auto& param : {std::make_pair(std::string("zc"), 50.0),
                            std::make_pair(std::string("load_r"), 100.0)}) {
    const double lo = param.second;
    const double width = (param.first == "zc" ? 100.0 : 800.0) / 16.0;
    std::set<std::size_t> strata;
    for (const TaskProvenance& prov : ex.provenance) {
      const double v = sampledValue(prov, param.first);
      strata.insert(static_cast<std::size_t>((v - lo) / width));
    }
    EXPECT_EQ(strata.size(), 16u) << param.first;  // one draw per stratum
  }
}

TEST(McSweep, IidSamplingDoesNotStratify) {
  // Sanity check that the LHS test above is actually detecting
  // stratification: 16 i.i.d. draws essentially never cover 16 strata.
  SweepSpec spec = tinyTlineSpec();
  StochasticAxis mc;
  mc.name = "mc";
  mc.params = {uniformParam("zc", 50.0, 150.0)};
  mc.samples = 16;
  mc.seed = 9;
  spec.stochasticAxis(mc);
  const ExpandedSweep ex = spec.expandDetailed();
  std::set<std::size_t> strata;
  for (const TaskProvenance& prov : ex.provenance)
    strata.insert(
        static_cast<std::size_t>((sampledValue(prov, "zc") - 50.0) / 6.25));
  EXPECT_LT(strata.size(), 16u);
}

// --- Common random numbers -----------------------------------------------

TEST(McSweep, CommonRandomNumbersReuseDrawsAcrossCorners) {
  SweepSpec crn = tinyTlineSpec();
  crn.axis("zc", {100.0, 131.0});
  StochasticAxis mc;
  mc.name = "mc";
  mc.params = {uniformParam("load_r", 400.0, 600.0)};
  mc.samples = 4;
  mc.seed = 11;
  mc.common_random_numbers = true;
  crn.stochasticAxis(mc);
  const ExpandedSweep with = crn.expandDetailed();
  ASSERT_EQ(with.tasks.size(), 8u);
  ASSERT_EQ(with.group_count, 2u);
  for (std::size_t s = 0; s < 4; ++s) {
    // Task layout: corner-major (group 0 samples 0..3, then group 1).
    EXPECT_EQ(sampledValue(with.provenance[s], "load_r"),
              sampledValue(with.provenance[4 + s], "load_r"));
  }

  SweepSpec iid = crn;
  iid.stochastic[0].common_random_numbers = false;
  const ExpandedSweep without = iid.expandDetailed();
  bool any_differs = false;
  for (std::size_t s = 0; s < 4; ++s)
    if (sampledValue(without.provenance[s], "load_r") !=
        sampledValue(without.provenance[4 + s], "load_r"))
      any_differs = true;
  EXPECT_TRUE(any_differs) << "i.i.d. corners drew identical values";
}

// --- Validation ----------------------------------------------------------

TEST(McSweep, RejectsMalformedStochasticAxes) {
  {  // non-double parameter
    SweepSpec spec = tinyTlineSpec();
    StochasticAxis mc;
    mc.params = {uniformParam("pattern", 0.0, 1.0)};
    mc.samples = 2;
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
  }
  {  // unknown parameter
    SweepSpec spec = tinyTlineSpec();
    StochasticAxis mc;
    mc.params = {uniformParam("zed", 0.0, 1.0)};
    mc.samples = 2;
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
  }
  {  // empty bounds / bad distribution shapes
    SweepSpec spec = tinyTlineSpec();
    StochasticAxis mc;
    mc.params = {uniformParam("zc", 120.0, 80.0)};
    mc.samples = 2;
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
    spec.stochastic[0].params = {normalParam("zc", 100.0, 0.0)};
    EXPECT_THROW(spec.count(), std::invalid_argument);
    spec.stochastic[0].params =
        {truncatedNormalParam("zc", 100.0, 5.0, 120.0, 80.0)};
    EXPECT_THROW(spec.count(), std::invalid_argument);
    spec.stochastic[0].params =
        {truncatedNormalParam("zc", 0.0, 1.0, 500.0, 501.0)};
    EXPECT_THROW(spec.count(), std::invalid_argument);  // no mass
  }
  {  // samples without parameters
    SweepSpec spec = tinyTlineSpec();
    StochasticAxis mc;
    mc.samples = 2;
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
  }
  {  // nameless axis
    SweepSpec spec = tinyTlineSpec();
    StochasticAxis mc = toleranceAxis(2, 1);
    mc.name.clear();
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
  }
  {  // parameter shared with a deterministic axis
    SweepSpec spec = tinyTlineSpec();
    spec.axis("zc", {100.0, 131.0});
    StochasticAxis mc;
    mc.params = {uniformParam("zc", 80.0, 120.0)};
    mc.samples = 2;
    spec.stochasticAxis(mc);
    EXPECT_THROW(spec.count(), std::invalid_argument);
  }
}

TEST(McSweep, OutOfRangeDrawsFailWithGuidance) {
  // A normal perturbation of a positive-only parameter will eventually
  // draw a negative value; the error must point at the stochastic axis.
  SweepSpec spec = tinyTlineSpec();
  StochasticAxis mc;
  mc.params = {uniformParam("zc", -50.0, 10.0)};
  mc.samples = 8;
  mc.seed = 1;
  spec.stochasticAxis(mc);
  try {
    spec.expand();
    FAIL() << "expansion accepted out-of-range draws";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stochastic"), std::string::npos)
        << e.what();
  }
}

// --- Solver-state sharing across an illumination ensemble ----------------

TEST(McSweep, EmcIlluminationEnsembleSharesOneOrdering) {
  // The incident field enters the MNA system through RHS sources only, so
  // a whole random-illumination ensemble on one quiescent link is one
  // structure class, and each linear corner factors exactly once.
  SweepSpec spec;
  spec.scenario = "emc";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 0.5e-9);
  spec.set("t_stop", 2e-9);
  spec.set("dt", 10e-12);
  spec.set("segments", 8.0);
  spec.set("line_length", 0.05);
  spec.set("pulse_t0", 0.8e-9);
  spec.set("bandwidth", 3e9);
  spec.set("drive", std::string("none"));  // quiescent-line susceptibility
  StochasticAxis field;
  field.name = "field";
  field.params = {uniformParam("theta", 30.0, 150.0),
                  uniformParam("phi", 0.0, 360.0),
                  uniformParam("pol_theta", 0.1, 1.0),
                  truncatedNormalParam("amplitude", 2e3, 400.0, 500.0, 4e3)};
  field.samples = 6;
  field.seed = 3;
  field.sampling = McSampling::kLatinHypercube;
  spec.stochasticAxis(field);

  SweepRunnerOptions opt;
  opt.workers = 2;
  opt.model_cache = tinyCache();
  SweepRunner runner(opt);
  const SweepResult result = runner.run(spec);
  ASSERT_EQ(result.okCount(), 6u);
  for (const SweepRunRecord& r : result.runs)
    EXPECT_EQ(r.telemetry.lu_factorizations, 1) << r.label;
  // ...on one RCM ordering of its CSR pattern.
  EXPECT_EQ(result.solver_cache.symbolic_misses, 1);
  EXPECT_EQ(result.solver_cache.symbolic_hits, 5);
}

// --- Ensemble statistics -------------------------------------------------

SweepRunRecord okRecord(double v_far_max, bool eye_valid = false) {
  SweepRunRecord r;
  r.ok = true;
  r.metrics.v_far_max = v_far_max;
  r.metrics.eye_valid = eye_valid;
  r.metrics.eye.eye_height = v_far_max * 0.5;
  return r;
}

TEST(EnsembleStats, AggregatesPerGroupWithQuantilesAndExceedance) {
  ExpandedSweep ex;
  ex.group_count = 2;
  SweepResult result;
  // Group 0: samples {1, 2, 3}; group 1: {10, 20} plus one failed run.
  for (double v : {1.0, 2.0, 3.0}) {
    result.runs.push_back(okRecord(v));
    TaskProvenance p;
    p.group = 0;
    p.group_label = "zc=100";
    ex.provenance.push_back(p);
  }
  for (double v : {10.0, 20.0}) {
    result.runs.push_back(okRecord(v));
    TaskProvenance p;
    p.group = 1;
    p.group_label = "zc=131";
    ex.provenance.push_back(p);
  }
  SweepRunRecord bad;
  bad.ok = false;
  bad.error = "boom";
  result.runs.push_back(bad);
  TaskProvenance p;
  p.group = 1;
  p.group_label = "zc=131";
  ex.provenance.push_back(p);
  ex.tasks.resize(result.runs.size());

  EnsembleOptions opt;
  opt.metrics = {"v_far_max", "eye_height"};
  opt.quantiles = {0.0, 0.5, 1.0};
  opt.exceedances = {{"v_far_max", 2.0, /*above=*/true},
                     {"v_far_max", 2.0, /*above=*/false}};
  const EnsembleStats stats = computeEnsembleStats(result, ex, opt);
  ASSERT_EQ(stats.groups.size(), 2u);

  const GroupEnsemble& g0 = stats.groups[0];
  EXPECT_EQ(g0.label, "zc=100");
  EXPECT_EQ(g0.samples, 3u);
  EXPECT_EQ(g0.failed, 0u);
  ASSERT_EQ(g0.metrics.size(), 2u);
  EXPECT_EQ(g0.metrics[0].count, 3u);
  EXPECT_DOUBLE_EQ(g0.metrics[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(g0.metrics[0].stddev, 1.0);
  EXPECT_DOUBLE_EQ(g0.metrics[0].min, 1.0);
  EXPECT_DOUBLE_EQ(g0.metrics[0].max, 3.0);
  ASSERT_EQ(g0.metrics[0].quantile_values.size(), 3u);
  EXPECT_DOUBLE_EQ(g0.metrics[0].quantile_values[1], 2.0);
  // eye_valid=false on every record: eye_height has no defined samples.
  EXPECT_EQ(g0.metrics[1].count, 0u);
  ASSERT_EQ(g0.exceedances.size(), 2u);
  EXPECT_DOUBLE_EQ(g0.exceedances[0].probability, 1.0 / 3.0);  // P[v > 2]
  EXPECT_DOUBLE_EQ(g0.exceedances[1].probability, 1.0 / 3.0);  // P[v < 2]

  const GroupEnsemble& g1 = stats.groups[1];
  EXPECT_EQ(g1.samples, 3u);
  EXPECT_EQ(g1.failed, 1u);  // the failed run is counted but not aggregated
  EXPECT_EQ(g1.metrics[0].count, 2u);
  EXPECT_DOUBLE_EQ(g1.metrics[0].mean, 15.0);
}

TEST(EnsembleStats, RejectsBadInputs) {
  ExpandedSweep ex;
  ex.group_count = 1;
  SweepResult result;
  result.runs.push_back(okRecord(1.0));
  // Size mismatch: no provenance for the run.
  EXPECT_THROW(computeEnsembleStats(result, ex), std::invalid_argument);
  ex.provenance.emplace_back();
  EnsembleOptions opt;
  opt.metrics = {"no_such_metric"};
  EXPECT_THROW(computeEnsembleStats(result, ex, opt), std::invalid_argument);
  opt.metrics = {"v_far_max"};
  opt.quantiles = {1.5};
  EXPECT_THROW(computeEnsembleStats(result, ex, opt), std::invalid_argument);
}

TEST(EnsembleStats, EndToEndExportsAreWellFormedAndReproducible) {
  SweepSpec spec = tinyTlineSpec();
  spec.axis("zc", {100.0, 131.0});
  StochasticAxis tol;
  tol.name = "tol";
  tol.params = {uniformParam("load_r", 400.0, 600.0),
                uniformParam("load_c", 0.5e-12, 2e-12)};
  tol.samples = 8;
  tol.seed = 5;
  tol.sampling = McSampling::kLatinHypercube;
  spec.stochasticAxis(tol);
  const ExpandedSweep ex = spec.expandDetailed();

  EnsembleOptions eopt;
  eopt.metrics = {"v_far_min", "settling_time"};
  eopt.exceedances = {{"v_far_min", -0.1, /*above=*/false}};

  const std::string dir = testing::TempDir();
  std::string ref_csv, ref_json;
  for (std::size_t workers : {1u, 3u}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.model_cache = tinyCache();
    SweepRunner runner(opt);
    const SweepResult result = runner.run(ex.tasks);
    ASSERT_EQ(result.okCount(), 16u);
    const EnsembleStats stats = computeEnsembleStats(result, ex, eopt);
    ASSERT_EQ(stats.groups.size(), 2u);
    EXPECT_EQ(stats.groups[0].samples, 8u);
    EXPECT_NE(stats.groups[0].label, stats.groups[1].label);

    const std::string csv_path = dir + "ensemble.csv";
    const std::string json_path = dir + "ensemble.json";
    writeEnsembleCsv(stats, csv_path);
    writeEnsembleJson(stats, json_path);
    const std::string csv = slurp(csv_path), json = slurp(json_path);
    std::filesystem::remove(csv_path);
    std::filesystem::remove(json_path);

    EXPECT_NE(csv.find("group,label,samples,failed,kind,name,count,mean,"
                       "stddev,min,max,q0.05,q0.5,q0.95"),
              std::string::npos);
    EXPECT_NE(csv.find("exceedance"), std::string::npos);
    std::string err;
    EXPECT_TRUE(jsonlint::Checker(json).run(&err)) << err;
    if (ref_csv.empty()) {
      ref_csv = csv;
      ref_json = json;
    } else {
      EXPECT_EQ(csv, ref_csv);
      EXPECT_EQ(json, ref_json);
    }
  }
}

}  // namespace
}  // namespace fdtdmm
