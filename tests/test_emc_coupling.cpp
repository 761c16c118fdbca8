// Physics validation of the Taylor/Agrawal field-coupling subsystem
// (src/emc): closed-form checks of the distributed series sources and the
// end risers on a matched lossless line, image-theory behavior over the
// ground plane, linearity, and determinism.
#include "emc/coupled_line.h"
#include "emc/emc_scenario.h"
#include "emc/field_source.h"
#include "emc/trace_geometry.h"

#include <gtest/gtest.h>

#include <cmath>

#include "signal/sources.h"

namespace fdtdmm {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDeg = kPi / 180.0;

double peakAbs(const Waveform& w) {
  double peak = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k)
    peak = std::max(peak, std::abs(w[k]));
  return peak;
}

/// Quiescent matched 50-ohm line, 0.2 m (Td = 1 ns), broadside-ready.
EmcScenario matchedLineConfig() {
  EmcScenario cfg;
  cfg.drive = "none";
  cfg.termination = "resistive";
  cfg.line.r = 0.0;
  cfg.line.g = 0.0;
  cfg.line.l = 2.5e-7;
  cfg.line.c = 1e-10;  // Zc = 50 ohm, v = 2e8 m/s
  cfg.line.length = 0.2;
  cfg.line.segments = 64;
  cfg.r_near = 50.0;
  cfg.r_far = 50.0;
  cfg.height = 1.5e-3;
  cfg.dt = 4e-12;
  cfg.t_stop = 6e-9;
  cfg.pulse_t0 = 2e-9;
  cfg.bandwidth = 1e9;
  cfg.ground_reflection = false;  // compare against free-space closed forms
  return cfg;
}

TEST(TraceGeometry, SamplesAndValidates) {
  const TraceGeometry geom = straightTrace(0.01, 0.02, 90.0, 0.1, 2e-3, 5e-3);
  EXPECT_NEAR(traceLength(geom), 0.1, 1e-12);
  const TraceSample mid = sampleTrace(geom, 0.05);
  EXPECT_NEAR(mid.x, 0.01, 1e-9);
  EXPECT_NEAR(mid.y, 0.07, 1e-9);
  EXPECT_NEAR(mid.z, 7e-3, 1e-12);
  EXPECT_NEAR(mid.ux, 0.0, 1e-12);
  EXPECT_NEAR(mid.uy, 1.0, 1e-12);

  TraceGeometry bad;
  bad.route = {{0, 0}};
  EXPECT_THROW(validateTraceGeometry(bad), std::invalid_argument);
  bad.route = {{0, 0}, {0, 0}};
  EXPECT_THROW(validateTraceGeometry(bad), std::invalid_argument);
  EXPECT_THROW(straightTrace(0, 0, 0, -1.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(straightTrace(0, 0, 0, 1.0, 0.0), std::invalid_argument);
}

TEST(AgrawalSources, TangentialProjectionAndDelays) {
  // Wave from +z (k = -z), theta-polarized along +x at theta = 0, phi = 0.
  const double sigma = 50e-12;
  const PlaneWave wave(0.0, 0.0, 100.0, GaussianPulse(1e-9, sigma));
  AgrawalOptions opt;
  opt.ground_reflection = false;

  // Trace along +x: full tangential projection.
  const AgrawalSources along(
      wave, straightTrace(0.0, 0.0, 0.0, 0.1, 1e-3), 4, opt);
  // Trace along +y: no tangential projection anywhere.
  const AgrawalSources across(
      wave, straightTrace(0.0, 0.0, 90.0, 0.1, 1e-3), 4, opt);

  // At the pulse peak (wire height z = 1 mm, delay -z/c), the segment EMF
  // equals E * ds for the aligned trace and vanishes for the orthogonal
  // one; vertical risers vanish for this polarization.
  const double t_peak = 1e-9 - 1e-3 / 299792458.0;
  EXPECT_NEAR(along.segmentEmf(0, t_peak), 100.0 * 0.025, 1e-9);
  EXPECT_NEAR(along.segmentEmf(3, t_peak), 100.0 * 0.025, 1e-9);
  EXPECT_NEAR(across.segmentEmf(1, t_peak), 0.0, 1e-12);
  EXPECT_NEAR(along.incidentVoltageNear(t_peak), 0.0, 1e-12);
  EXPECT_NEAR(along.incidentVoltageFar(t_peak), 0.0, 1e-12);

  EXPECT_THROW(AgrawalSources(wave, straightTrace(0, 0, 0, 0.1, 1e-3), 0, opt),
               std::invalid_argument);
}

// The closed-form validation of the satellite task: a matched lossless
// line under broadside illumination polarized along the trace. The
// distributed Agrawal sources are then uniform, E(t) = A g(t + h/c), and
// the matched far/near-end responses have the exact weak-coupling form
//   V_far(t)  = +(v/2) int_0^Td E(t - u) du,
//   V_near(t) = -(v/2) int_0^Td E(t - u) du,
// whose Gaussian integral is an erf difference.
TEST(EmcCoupling, MatchedLineBroadsideMatchesClosedForm) {
  EmcScenario cfg = matchedLineConfig();
  cfg.amplitude = 1000.0;
  cfg.theta_deg = 0.0;  // arrival from +z, k = -z
  cfg.phi_deg = 0.0;
  cfg.pol_theta = 1.0;  // E along +x = along the trace
  cfg.pol_phi = 0.0;

  const auto waves = runEmcScenario(cfg, nullptr, nullptr);
  ASSERT_FALSE(waves.v_far.empty());

  const double c0 = 299792458.0;
  const double v = 1.0 / std::sqrt(cfg.line.l * cfg.line.c);
  const double td = cfg.line.length / v;
  const double sigma = gaussianSigmaForBandwidth(cfg.bandwidth);
  const double tau_h = -cfg.height / c0;  // wave delay at wire height
  const auto closed_form = [&](double t) {
    // (A v / 2) * int_{t-Td}^{t} g(u - tau_h) du, g Gaussian centered t0.
    const double s2 = sigma * std::sqrt(2.0);
    const double hi = (t - tau_h - cfg.pulse_t0) / s2;
    const double lo = (t - td - tau_h - cfg.pulse_t0) / s2;
    return 0.5 * cfg.amplitude * v * sigma * std::sqrt(kPi / 2.0) *
           (std::erf(hi) - std::erf(lo));
  };

  double peak = 0.0, err_far = 0.0, err_near = 0.0;
  for (std::size_t k = 0; k < waves.v_far.size(); ++k) {
    const double t = waves.v_far.t0() + static_cast<double>(k) * waves.v_far.dt();
    const double ref = closed_form(t);
    peak = std::max(peak, std::abs(ref));
    err_far = std::max(err_far, std::abs(waves.v_far[k] - ref));
    err_near = std::max(err_near, std::abs(waves.v_near[k] + ref));
  }
  ASSERT_GT(peak, 1.0);  // the illumination induces a volts-scale response
  // 64-segment ladder + theta-method time stepping: a few percent.
  EXPECT_LT(err_far, 0.04 * peak);
  EXPECT_LT(err_near, 0.04 * peak);
}

// Riser check: grazing incidence along the trace with vertical
// polarization excites only the end risers; with both ends nearly open the
// terminal voltages follow the incident vertical voltage -int Ez dz =
// A h g(t - x_end/c) with the per-end propagation delay.
TEST(EmcCoupling, VerticalRisersQuasiStaticLimit) {
  EmcScenario cfg = matchedLineConfig();
  cfg.line.length = 0.05;  // Td = 0.25 ns << pulse width
  cfg.line.segments = 16;
  cfg.amplitude = 1000.0;
  cfg.theta_deg = 90.0;  // arrival from -x: k = +x
  cfg.phi_deg = 180.0;
  cfg.pol_theta = 1.0;  // E = -z at this direction
  cfg.bandwidth = 2e8;  // slow pulse (sigma ~ 0.66 ns)
  cfg.pulse_t0 = 5e-9;
  cfg.t_stop = 10e-9;
  cfg.dt = 10e-12;
  cfg.r_near = 1e6;
  cfg.r_far = 1e6;

  const auto waves = runEmcScenario(cfg, nullptr, nullptr);
  const double c0 = 299792458.0;
  const double sigma = gaussianSigmaForBandwidth(cfg.bandwidth);
  const auto g = [&](double t) {
    const double u = (t - cfg.pulse_t0) / sigma;
    return std::exp(-0.5 * u * u);
  };
  double err_near = 0.0, err_far = 0.0;
  for (std::size_t k = 0; k < waves.v_near.size(); ++k) {
    const double t = waves.v_near.t0() + static_cast<double>(k) * waves.v_near.dt();
    const double ref_near = cfg.amplitude * cfg.height * g(t);
    const double ref_far =
        cfg.amplitude * cfg.height * g(t - cfg.line.length / c0);
    err_near = std::max(err_near, std::abs(waves.v_near[k] - ref_near));
    err_far = std::max(err_far, std::abs(waves.v_far[k] - ref_far));
  }
  const double peak = cfg.amplitude * cfg.height;  // 1.5 V
  EXPECT_LT(err_near, 0.05 * peak);
  EXPECT_LT(err_far, 0.05 * peak);
}

// Image theory: over the ground plane the tangential excitation vanishes
// as the trace approaches the plane, and the vertical (normal) excitation
// doubles.
TEST(EmcCoupling, GroundReflectionLimits) {
  // Tangential: broadside coupling collapses as height -> 0.
  EmcScenario tan_cfg = matchedLineConfig();
  tan_cfg.amplitude = 1000.0;
  tan_cfg.theta_deg = 0.0;
  tan_cfg.phi_deg = 0.0;
  const auto free_space = runEmcScenario(tan_cfg, nullptr, nullptr);
  tan_cfg.ground_reflection = true;
  tan_cfg.height = 0.05e-3;
  const auto grounded = runEmcScenario(tan_cfg, nullptr, nullptr);
  EXPECT_LT(peakAbs(grounded.v_far), 0.05 * peakAbs(free_space.v_far));

  // Vertical: the riser voltage doubles with the image (normal component
  // adds in phase for the grazing geometry of the quasi-static test).
  EmcScenario riser_cfg = matchedLineConfig();
  riser_cfg.line.length = 0.05;
  riser_cfg.line.segments = 16;
  riser_cfg.amplitude = 1000.0;
  riser_cfg.theta_deg = 90.0;
  riser_cfg.phi_deg = 180.0;
  riser_cfg.bandwidth = 2e8;
  riser_cfg.pulse_t0 = 5e-9;
  riser_cfg.t_stop = 10e-9;
  riser_cfg.dt = 10e-12;
  riser_cfg.r_near = 1e6;
  riser_cfg.r_far = 1e6;
  const auto single = runEmcScenario(riser_cfg, nullptr, nullptr);
  riser_cfg.ground_reflection = true;
  const auto doubled = runEmcScenario(riser_cfg, nullptr, nullptr);
  EXPECT_NEAR(peakAbs(doubled.v_near), 2.0 * peakAbs(single.v_near),
              0.02 * peakAbs(doubled.v_near));
}

TEST(EmcCoupling, LinearInAmplitudeAndQuietWithoutField) {
  EmcScenario cfg = matchedLineConfig();
  cfg.amplitude = 0.0;
  const auto quiet = runEmcScenario(cfg, nullptr, nullptr);
  EXPECT_LT(peakAbs(quiet.v_far), 1e-12);

  cfg.amplitude = 500.0;
  cfg.theta_deg = 60.0;
  cfg.phi_deg = 150.0;
  cfg.pol_theta = 0.7;
  cfg.pol_phi = 0.3;
  cfg.ground_reflection = true;
  const auto a = runEmcScenario(cfg, nullptr, nullptr);
  cfg.amplitude = 1000.0;
  const auto b = runEmcScenario(cfg, nullptr, nullptr);
  ASSERT_EQ(a.v_far.size(), b.v_far.size());
  ASSERT_GT(peakAbs(a.v_far), 0.0);
  double err = 0.0;
  for (std::size_t k = 0; k < a.v_far.size(); ++k)
    err = std::max(err, std::abs(b.v_far[k] - 2.0 * a.v_far[k]));
  EXPECT_LT(err, 1e-9 * peakAbs(b.v_far));
}

TEST(EmcCoupling, DeterministicAndSingleFactorization) {
  EmcScenario cfg = matchedLineConfig();
  cfg.amplitude = 1000.0;
  const auto a = runEmcScenario(cfg, nullptr, nullptr);
  const auto b = runEmcScenario(cfg, nullptr, nullptr);
  ASSERT_EQ(a.v_far.size(), b.v_far.size());
  for (std::size_t k = 0; k < a.v_far.size(); ++k) {
    EXPECT_EQ(a.v_far[k], b.v_far[k]);
    EXPECT_EQ(a.v_near[k], b.v_near[k]);
  }

  // The field excitation is RHS-only: the whole run of this linear circuit
  // is one factorization, every Newton iteration a substitution.
  EXPECT_EQ(a.telemetry.transient_runs, 1);
  EXPECT_EQ(a.telemetry.lu_factorizations, 1);
  EXPECT_GT(a.telemetry.newton_iterations, 1);
}

}  // namespace
}  // namespace fdtdmm
