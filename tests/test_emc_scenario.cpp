// Tests for the "emc" scenario family: registry metadata, parameter
// validation, the sweepable axes of the susceptibility grid (amplitude,
// theta, phi, termination), worker-count-independent determinism, and the
// clean/disturbed susceptibility metrics.
#include "emc/emc_scenario.h"

#include <gtest/gtest.h>

#include <cmath>

#include "emc/susceptibility.h"
#include "engine/sweep_runner.h"
#include "tiny_models.h"

namespace fdtdmm {
namespace {

using testmodels::tinyCache;
using testmodels::tinyDriver;

double peakAbs(const Waveform& w) {
  double peak = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k)
    peak = std::max(peak, std::abs(w[k]));
  return peak;
}

/// Small, fast configuration: 8-segment, 5 cm line, 2 ns window.
EmcScenario tinyConfig() {
  EmcScenario cfg;
  cfg.pattern = "010";
  cfg.bit_time = 0.5e-9;
  cfg.t_stop = 2e-9;
  cfg.dt = 10e-12;
  cfg.line.segments = 8;
  cfg.line.length = 0.05;
  cfg.pulse_t0 = 0.8e-9;
  cfg.bandwidth = 3e9;
  return cfg;
}

/// Applies tinyConfig's fast-run base overrides to a sweep spec.
void applyTinyBase(SweepSpec& spec) {
  spec.set("pattern", std::string("010"));
  spec.set("bit_time", 0.5e-9);
  spec.set("t_stop", 2e-9);
  spec.set("dt", 10e-12);
  spec.set("segments", 8.0);
  spec.set("line_length", 0.05);
  spec.set("pulse_t0", 0.8e-9);
  spec.set("bandwidth", 3e9);
}

TEST(EmcScenario, ValidationRejectsBadOptions) {
  EmcScenario cfg = tinyConfig();
  EXPECT_NO_THROW(validateEmcScenario(cfg));
  cfg.pattern.clear();
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.amplitude = -1.0;
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.theta_deg = 200.0;
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.pol_theta = 0.0;
  cfg.pol_phi = 0.0;
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.drive = "thevenin";
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.termination = "open";
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);
  cfg = tinyConfig();
  cfg.height = 0.0;
  EXPECT_THROW(validateEmcScenario(cfg), std::invalid_argument);

  // Missing models for the configured ends.
  cfg = tinyConfig();
  EXPECT_THROW(runEmcScenario(cfg, nullptr, nullptr), std::invalid_argument);
  cfg.drive = "none";
  cfg.termination = "receiver";
  EXPECT_THROW(runEmcScenario(cfg, nullptr, nullptr), std::invalid_argument);
}

TEST(EmcFamily, RegistryParamsAndMetadata) {
  ASSERT_TRUE(ScenarioRegistry::global().has("emc"));
  auto s = ScenarioRegistry::global().create("emc");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->family(), "emc");
  // Model needs follow the configured ends.
  EXPECT_TRUE(s->needsDriver());
  EXPECT_FALSE(s->needsReceiver());
  s->set("drive", std::string("none"));
  s->set("termination", std::string("receiver"));
  EXPECT_FALSE(s->needsDriver());
  EXPECT_TRUE(s->needsReceiver());

  s->set("amplitude", 1500.0);
  s->set("theta", 45.0);
  EXPECT_EQ(std::get<double>(s->get("amplitude")), 1500.0);
  auto* family = dynamic_cast<EmcFamily*>(s.get());
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->config().theta_deg, 45.0);
  EXPECT_NE(s->label().find("A=1500"), std::string::npos);
  EXPECT_NE(s->label().find("th=45"), std::string::npos);

  EXPECT_THROW(s->set("theta", 181.0), std::invalid_argument);
  EXPECT_THROW(s->set("drive", std::string("x")), std::invalid_argument);
  EXPECT_THROW(s->set("segments", 1.5), std::invalid_argument);
  EXPECT_EQ(s->findParam("solver"), nullptr);  // one transient solver path
}

// The tentpole proof: the paper's immunity analysis as a declarative sweep
// over the emc family's axes — amplitude x theta x phi x termination,
// expanded from the registry by name, run by the standard parallel engine
// with worker-count-independent metrics.
TEST(EmcFamily, SweepsImmunityGridDeterministically) {
  SweepSpec spec;
  spec.scenario = "emc";
  spec.driver = "tinydrv";
  spec.receiver = "tinyrcv";
  applyTinyBase(spec);
  spec.axis("amplitude", {0.0, 200.0});
  spec.axis("theta", {40.0, 90.0});
  spec.axis("phi", {120.0, 180.0});
  spec.axisStrings("termination", {"resistive", "receiver"});
  EXPECT_EQ(spec.count(), 16u);

  std::vector<SweepResult> results;
  for (std::size_t workers : {1u, 4u}) {
    SweepRunnerOptions opt;
    opt.workers = workers;
    opt.model_cache = tinyCache();
    SweepRunner runner(opt);
    results.push_back(runner.run(spec));
    EXPECT_EQ(results.back().okCount(), 16u);
  }
  for (std::size_t i = 0; i < results[0].runs.size(); ++i) {
    const auto& a = results[0].runs[i];
    const auto& b = results[1].runs[i];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.metrics.v_far_max, b.metrics.v_far_max);
    EXPECT_EQ(a.metrics.v_far_min, b.metrics.v_far_min);
    EXPECT_EQ(a.metrics.far_end_delay, b.metrics.far_end_delay);
  }

  // Field-on corners differ from their clean siblings (same inner index
  // offset by the amplitude stride of 8).
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& clean = results[0].runs[i].metrics;
    const auto& field = results[0].runs[i + 8].metrics;
    EXPECT_GT(std::abs(field.v_far_max - clean.v_far_max) +
                  std::abs(field.v_far_min - clean.v_far_min),
              1e-6);
  }
}

TEST(EmcScenario, SusceptibilityMetricsFromCleanDisturbedPair) {
  EmcScenario cfg = tinyConfig();
  cfg.pattern = "0101";
  cfg.t_stop = 2e-9;
  auto driver = tinyDriver();

  // Immunity-study field levels: the induced noise must stay a fraction
  // of the logic swing (tens of volts would drive the behavioral port far
  // outside its identified range).
  cfg.amplitude = 0.0;
  const auto clean = runEmcScenario(cfg, driver, nullptr);
  cfg.amplitude = 25.0;
  const auto mild = runEmcScenario(cfg, driver, nullptr);
  cfg.amplitude = 100.0;
  const auto harsh = runEmcScenario(cfg, driver, nullptr);

  const BitPattern pattern(cfg.pattern, cfg.bit_time);
  SusceptibilityOptions sopt;
  sopt.noise_margin = 0.05;
  const auto m_mild = computeSusceptibility(clean.v_far, mild.v_far, pattern, sopt);
  const auto m_harsh =
      computeSusceptibility(clean.v_far, harsh.v_far, pattern, sopt);

  EXPECT_GT(m_mild.peak_noise, 0.0);
  // Induced noise scales with the field (linear coupling into the same
  // driver-loaded line; 4x the amplitude at least triples the peak).
  EXPECT_GT(m_harsh.peak_noise, 3.0 * m_mild.peak_noise);
  EXPECT_GE(m_harsh.violation_duration, m_mild.violation_duration);
  // The eye metric responds to the disturbance (its sign depends on where
  // the bipolar pulse lands inside the sampling window, so only a nonzero
  // effect is asserted).
  EXPECT_TRUE(m_mild.eye_valid);
  EXPECT_TRUE(m_harsh.eye_valid);
  EXPECT_NE(m_harsh.eye_degradation, 0.0);

  // Identical waveforms: no noise, no violations.
  const auto none = computeSusceptibility(clean.v_far, clean.v_far, pattern, sopt);
  EXPECT_LT(none.peak_noise, 1e-15);  // interpolation rounding only
  EXPECT_EQ(none.violation_duration, 0.0);
  EXPECT_NEAR(none.eye_degradation, 0.0, 1e-12);

  EXPECT_THROW(computeSusceptibility(Waveform(), clean.v_far, pattern, sopt),
               std::invalid_argument);
}

TEST(EmcScenario, QuiescentDriveNeedsNoModels) {
  EmcScenario cfg = tinyConfig();
  cfg.drive = "none";
  cfg.amplitude = 2e3;
  const auto waves = runEmcScenario(cfg, nullptr, nullptr);
  EXPECT_GT(peakAbs(waves.v_far), 0.0);
  EXPECT_GT(peakAbs(waves.v_near), 0.0);
}

}  // namespace
}  // namespace fdtdmm
