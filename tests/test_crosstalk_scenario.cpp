// Tests for the coupled two-line crosstalk family: circuit-level builder,
// physical sanity (no coupling -> no victim response, more coupling ->
// more crosstalk), determinism, and the registry/sweep integration that
// the closed pre-redesign API could not express.
#include "core/crosstalk_scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/sweep_runner.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

using testmodels::tinyDriver;

/// Small, fast configuration: 8-segment lines, 2 ns window.
CrosstalkScenario tinyConfig() {
  CrosstalkScenario cfg;
  cfg.pattern = "010";
  cfg.bit_time = 0.5e-9;
  cfg.t_stop = 2e-9;
  cfg.dt = 10e-12;
  cfg.line.segments = 8;
  cfg.line.length = 0.05;  // Td = 0.25 ns
  return cfg;
}

double peakAbs(const Waveform& w) {
  double peak = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k)
    peak = std::max(peak, std::abs(w[k]));
  return peak;
}

TEST(CrosstalkScenario, ValidationRejectsBadOptions) {
  CrosstalkScenario cfg = tinyConfig();
  EXPECT_NO_THROW(validateCrosstalkScenario(cfg));
  cfg.pattern.clear();
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.coupling = 1.5;
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.coupling = -0.1;
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.victim_r_far = 0.0;
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.line.segments = 0;
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.dt = 0.0;
  EXPECT_THROW(validateCrosstalkScenario(cfg), std::invalid_argument);
  EXPECT_THROW(runCrosstalkScenario(tinyConfig(), nullptr), std::invalid_argument);
}

TEST(CrosstalkScenario, NoCouplingMeansNoVictimResponse) {
  CrosstalkScenario cfg = tinyConfig();
  cfg.coupling = 0.0;
  const auto waves = runCrosstalkScenario(cfg, tinyDriver());
  ASSERT_FALSE(waves.v_far.empty());
  ASSERT_EQ(waves.victims.size(), 2u);
  // The aggressor switches...
  EXPECT_GT(peakAbs(waves.v_near), 1e-3);
  // ...but an uncoupled victim stays quiet (far end = v_far, near end =
  // victims[0]).
  EXPECT_LT(peakAbs(waves.v_far), 1e-9);
  EXPECT_LT(peakAbs(waves.victims[0]), 1e-9);
}

TEST(CrosstalkScenario, CouplingInducesMonotoneCrosstalk) {
  double prev_peak = 0.0;
  for (double k : {0.05, 0.2, 0.5}) {
    CrosstalkScenario cfg = tinyConfig();
    cfg.coupling = k;
    const auto waves = runCrosstalkScenario(cfg, tinyDriver());
    const double peak = peakAbs(waves.v_far);
    EXPECT_GT(peak, prev_peak);  // stronger coupling, more far-end crosstalk
    prev_peak = peak;
    // Near-end crosstalk exists too.
    ASSERT_EQ(waves.victims.size(), 2u);
    EXPECT_GT(peakAbs(waves.victims[0]), 0.0);
    // The aggressor far end still carries the main signal.
    EXPECT_GT(peakAbs(waves.victims[1]), peak);
  }
}

TEST(CrosstalkScenario, RunsAreBitwiseDeterministic) {
  const CrosstalkScenario cfg = tinyConfig();
  auto driver = tinyDriver();
  const auto a = runCrosstalkScenario(cfg, driver);
  const auto b = runCrosstalkScenario(cfg, driver);
  ASSERT_EQ(a.v_far.size(), b.v_far.size());
  for (std::size_t k = 0; k < a.v_far.size(); ++k) {
    EXPECT_EQ(a.v_far[k], b.v_far[k]);
    EXPECT_EQ(a.v_near[k], b.v_near[k]);
  }
}

TEST(CrosstalkFamily, RegistryParamsAndMetadata) {
  auto s = ScenarioRegistry::global().create("crosstalk");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->family(), "crosstalk");
  EXPECT_TRUE(s->needsDriver());
  EXPECT_FALSE(s->needsReceiver());  // victim ends are resistive

  s->set("coupling", 0.35);
  s->set("victim_r_far", 75.0);
  EXPECT_EQ(std::get<double>(s->get("coupling")), 0.35);
  auto* family = dynamic_cast<CrosstalkFamily*>(s.get());
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->config().victim_r_far, 75.0);
  EXPECT_NE(s->label().find("k=0.35"), std::string::npos);

  EXPECT_THROW(s->set("coupling", 1.5), std::invalid_argument);  // range
  EXPECT_THROW(s->set("segments", 2.5), std::invalid_argument);  // integrality
  // One transient solver path: there is no solver-mode parameter to bind.
  EXPECT_EQ(s->findParam("solver"), nullptr);
  EXPECT_THROW(s->set("solver", std::string("sparse")), std::invalid_argument);
}

// The tentpole proof: a crosstalk family swept over coupling strength and
// victim termination, expanded from (name, parameter axes) alone, run
// through the standard SweepRunner, exporting victim-eye/crosstalk metrics
// through the existing SweepResult path — with deterministic,
// worker-count-independent results.
TEST(CrosstalkFamily, SweepsOverCouplingAndTerminationDeterministically) {
  SweepSpec spec;
  spec.scenario = "crosstalk";
  spec.driver = "tinydrv";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 0.5e-9);
  spec.set("t_stop", 2e-9);
  spec.set("dt", 10e-12);
  spec.set("segments", 8.0);
  spec.set("line_length", 0.05);
  spec.axis("coupling", {0.1, 0.3});
  spec.axis("victim_r_far", {25.0, 50.0, 100.0});
  EXPECT_EQ(spec.count(), 6u);

  std::vector<SweepResult> results;
  for (std::size_t workers : {1u, 4u}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    auto cache = std::make_shared<ModelCache>();
    cache->putDriver("tinydrv", tinyDriver());
    opt.model_cache = cache;
    SweepRunner runner(opt);
    results.push_back(runner.run(spec));
    EXPECT_EQ(results.back().okCount(), 6u);
  }
  for (std::size_t i = 0; i < results[0].runs.size(); ++i) {
    const auto& a = results[0].runs[i];
    const auto& b = results[1].runs[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.label, b.label);
    // Bitwise metric equality across worker counts.
    EXPECT_EQ(a.metrics.v_far_max, b.metrics.v_far_max);
    EXPECT_EQ(a.metrics.v_far_min, b.metrics.v_far_min);
    EXPECT_EQ(a.metrics.settling_time, b.metrics.settling_time);
    EXPECT_EQ(a.metrics.far_end_delay, b.metrics.far_end_delay);
  }
  // Coupling is the outer axis: tasks 0-2 are k=0.1, tasks 3-5 k=0.3. At
  // the matched victim termination (50 ohm, tasks 1 and 4) stronger
  // coupling raises the exported far-end crosstalk peak; mismatched
  // corners superpose reflections and are only required to be nonzero.
  const auto peak = [&](std::size_t i) {
    return std::max(std::abs(results[0].runs[i].metrics.v_far_max),
                    std::abs(results[0].runs[i].metrics.v_far_min));
  };
  EXPECT_GT(peak(4), peak(1));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_GT(peak(i), 0.0);
}

// The ROADMAP's mutual-inductance follow-up: the crosstalk family sweeps
// Lm/L through the coupling_l parameter (K-coupled inductors per segment).
// Inductive coupling changes the far-end crosstalk, and matching the
// capacitive fraction cancels it to first order.
TEST(CrosstalkFamily, SweepsOverInductiveCouplingFraction) {
  SweepSpec spec;
  spec.scenario = "crosstalk";
  spec.driver = "tinydrv";
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 0.5e-9);
  spec.set("t_stop", 2e-9);
  spec.set("dt", 10e-12);
  spec.set("segments", 8.0);
  spec.set("line_length", 0.05);
  spec.set("coupling", 0.2);
  spec.axis("coupling_l", {0.0, 0.2, 0.5});
  EXPECT_EQ(spec.count(), 3u);

  auto cache = std::make_shared<ModelCache>();
  cache->putDriver("tinydrv", tinyDriver());
  SweepRunnerOptions opt;
  opt.workers = 1;
  opt.model_cache = cache;
  SweepRunner runner(opt);
  const auto result = runner.run(spec);
  ASSERT_EQ(result.okCount(), 3u);
  EXPECT_NE(result.runs[1].label.find("kl=0.2"), std::string::npos);

  const auto peak = [&](std::size_t i) {
    return std::max(std::abs(result.runs[i].metrics.v_far_max),
                    std::abs(result.runs[i].metrics.v_far_min));
  };
  // Matched fractions (kl = k = 0.2) cancel the forward-coupled component
  // of the far-end crosstalk; the residual (NEXT-type coupling of the
  // aggressor's load reflection, which adds as Cm/C + Lm/L) keeps the
  // metric nonzero, so only the ordering is asserted: matched < capacitive-
  // only, and overcompensating (kl = 0.5) brings the peak back up.
  EXPECT_LT(peak(1), peak(0));
  EXPECT_GT(peak(2), peak(1));

  // coupling_l = 1 would be a degenerate k = 1 pair: the descriptor range
  // is [0, 1) exclusive, so a bad axis value fails at set/expand time with
  // the range error instead of aborting a sweep mid-expansion.
  auto s = ScenarioRegistry::global().create("crosstalk");
  EXPECT_THROW(s->set("coupling_l", 1.0), std::invalid_argument);
  EXPECT_NO_THROW(s->set("coupling_l", 0.999));
}

}  // namespace
}  // namespace fdtdmm
