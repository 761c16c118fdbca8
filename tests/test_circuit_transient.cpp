// Integration tests for the MNA transient engine against closed-form
// circuit theory results.
#include "circuit/transient.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dense_oracle.h"

namespace fdtdmm {
namespace {

TEST(Transient, ResistiveDivider) {
  Circuit c;
  const int n1 = c.addNode();
  const int n2 = c.addNode();
  c.addVoltageSource(n1, Circuit::kGround, [](double) { return 10.0; });
  c.addResistor(n1, n2, 1000.0);
  c.addResistor(n2, Circuit::kGround, 1000.0);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 10e-12;
  const auto res = runTransient(c, opt, {{"mid", n2, 0}});
  EXPECT_NEAR(res.at("mid").samples().back(), 5.0, 1e-9);
  EXPECT_TRUE(res.converged);
}

TEST(Transient, RcChargingMatchesAnalytic) {
  // R = 1k, C = 1pF, step 1 V: v(t) = 1 - exp(-t/RC).
  Circuit c;
  const int src = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(src, out, 1000.0);
  c.addCapacitor(out, Circuit::kGround, 1e-12);
  TransientOptions opt;
  opt.dt = 5e-13;
  opt.t_stop = 5e-9;  // 5 tau
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  const Waveform& v = res.at("v");
  const double tau = 1e-9;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    EXPECT_NEAR(v.value(t), 1.0 - std::exp(-t / tau), 2e-3) << "at t=" << t;
  }
}

TEST(Transient, RlcResonance) {
  // Series RLC driven at steady state ~ check the damped oscillation
  // frequency of the step response: f_d = sqrt(1/LC - (R/2L)^2)/2pi.
  Circuit c;
  const int src = c.addNode();
  const int mid = c.addNode();
  const int out = c.addNode();
  const double r = 5.0, l = 10e-9, cap = 1e-12;
  c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(src, mid, r);
  c.addInductor(mid, out, l);
  c.addCapacitor(out, Circuit::kGround, cap);
  TransientOptions opt;
  opt.dt = 2e-13;
  opt.t_stop = 4e-9;
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  const Waveform& v = res.at("v");
  // Find the first two upward crossings of the final value 1.0.
  double t_first = 0.0, t_second = 0.0;
  for (std::size_t k = 1; k < v.size(); ++k) {
    if (v[k - 1] < 1.0 && v[k] >= 1.0) {
      const double t = v.dt() * static_cast<double>(k);
      if (t_first == 0.0) {
        t_first = t;
      } else {
        t_second = t;
        break;
      }
    }
  }
  ASSERT_GT(t_second, 0.0);
  const double f_meas = 1.0 / (t_second - t_first);
  const double f_d =
      std::sqrt(1.0 / (l * cap) - std::pow(r / (2.0 * l), 2.0)) / (2.0 * M_PI);
  EXPECT_NEAR(f_meas, f_d, 0.05 * f_d);
}

TEST(Transient, DiodeHalfWaveRectifier) {
  Circuit c;
  const int src = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround,
                     [](double t) { return 2.0 * std::sin(2e9 * M_PI * t); });
  c.addDiode(src, out);
  c.addResistor(out, Circuit::kGround, 1000.0);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 1e-9;  // one full cycle at 1 GHz
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  const Waveform& v = res.at("v");
  double vmin = 1e9, vmax = -1e9;
  for (double s : v.samples()) {
    vmin = std::min(vmin, s);
    vmax = std::max(vmax, s);
  }
  EXPECT_GT(vmax, 1.0);        // conducts on the positive half-wave
  EXPECT_GT(vmin, -0.1);       // blocks on the negative one
  EXPECT_TRUE(res.converged);
}

TEST(Transient, CurrentSourceIntoResistor) {
  Circuit c;
  const int n = c.addNode();
  c.addCurrentSource(n, Circuit::kGround, [](double) { return 1e-3; });
  c.addResistor(n, Circuit::kGround, 2000.0);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 5e-12;
  const auto res = runTransient(c, opt, {{"v", n, 0}});
  // 1 mA delivered into node n through 2k -> v = -I R with our orientation
  // convention (source injects from n into ground): check magnitude.
  EXPECT_NEAR(std::abs(res.at("v").samples().back()), 2.0, 1e-9);
}

TEST(Transient, BranchProbeMeasuresSourceCurrent) {
  Circuit c;
  const int n = c.addNode();
  VoltageSource* vs = c.addVoltageSource(n, Circuit::kGround, [](double) { return 5.0; });
  c.addResistor(n, Circuit::kGround, 500.0);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 3e-12;
  const auto res = runTransient(c, opt, {}, {{"i", vs}});
  // 10 mA flows from the node through the resistor; the source branch
  // current (n1 -> through source -> n2) balances it: i = -10 mA.
  EXPECT_NEAR(res.at("i").samples().back(), -0.01, 1e-9);
}

TEST(Transient, SettleReachesDcBeforeRecording) {
  // RC divider with settle: at t = 0 the capacitor must already be charged.
  Circuit c;
  const int src = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround, [](double) { return 3.0; });
  c.addResistor(src, out, 1000.0);
  c.addCapacitor(out, Circuit::kGround, 1e-12);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 1e-10;
  opt.settle_time = 10e-9;
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  EXPECT_NEAR(res.at("v")[0], 3.0, 1e-3);
}

TEST(Transient, DuplicateProbeLabelsThrow) {
  // A branch probe whose label collides with a node probe used to be
  // silently dropped (map emplace is a no-op on duplicate keys); both kinds
  // of collision must be rejected up front.
  Circuit c;
  const int n = c.addNode();
  VoltageSource* vs = c.addVoltageSource(n, Circuit::kGround, [](double) { return 1.0; });
  c.addResistor(n, Circuit::kGround, 100.0);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 2e-12;
  EXPECT_THROW(runTransient(c, opt, {{"v", n, 0}}, {{"v", vs}}), std::invalid_argument);
  EXPECT_THROW(runTransient(c, opt, {{"v", n, 0}, {"v", n, 0}}), std::invalid_argument);
  EXPECT_THROW(runTransient(c, opt, {}, {{"i", vs}, {"i", vs}}), std::invalid_argument);
  // Distinct labels record both waveforms.
  const auto res = runTransient(c, opt, {{"v", n, 0}}, {{"i", vs}});
  EXPECT_EQ(res.probes.size(), 2u);
  EXPECT_NO_THROW(res.at("v"));
  EXPECT_NO_THROW(res.at("i"));
}

TEST(Transient, LinearCircuitFactorsOnce) {
  // Purely linear circuit: the engine must perform exactly one LU
  // factorization for the whole run, settle phase included, and one
  // substitution per time point.
  Circuit c;
  const int src = c.addNode();
  const int out = c.addNode();
  c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(src, out, 1000.0);
  c.addCapacitor(out, Circuit::kGround, 1e-12);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 2e-9;
  opt.settle_time = 1e-9;
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  EXPECT_EQ(res.lu_factorizations, 1);
  EXPECT_GT(res.total_newton_iterations, res.lu_factorizations);
  EXPECT_EQ(res.max_newton_iterations, 1);
}

TEST(Transient, NonlinearCircuitFactorsBaseOnce) {
  const auto build = [](Circuit& c) {
    const int src = c.addNode();
    const int out = c.addNode();
    c.addVoltageSource(src, Circuit::kGround,
                       [](double t) { return 2.0 * std::sin(2e9 * M_PI * t); });
    c.addDiode(src, out);
    c.addResistor(out, Circuit::kGround, 1000.0);
    return out;
  };
  Circuit c, oracle_circuit;
  const int out = build(c);
  build(oracle_circuit);
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 1e-9;
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  // The diode is one port: each Newton iteration is a port solve on the
  // one base factorization, in as many iterations as the dense
  // refactor-every-iteration oracle takes, and agrees with it.
  EXPECT_EQ(res.lu_factorizations, 1);
  EXPECT_EQ(res.low_rank_solves, res.total_newton_iterations);
  const auto ref = oracle::runDenseReference(oracle_circuit, opt, {{"v", out, 0}});
  EXPECT_EQ(res.total_newton_iterations, ref.total_newton_iterations);
  EXPECT_LE(oracle::maxAbsDiff(res.at("v"), ref.at("v")), oracle::kSparseTol);
}

// A 1 V step through a milliohm-scale resistor into 1 nF draws hundreds
// to a thousand amperes at once. The circuit is linear, so each time
// point is one substitution: no iteration cap, no clamp on the source's
// branch current. The dense oracle's own clamp limits every unknown to
// max_delta_v per iteration, branch currents included, so it runs with
// the clamp off.
TEST(Transient, LinearStepIntoCapacitorSolvesOncePerTimePoint) {
  for (const double r : {0.01, 1e-3}) {
    const auto build = [r](Circuit& c) {
      const int src = c.addNode();
      const int out = c.addNode();
      c.addVoltageSource(src, Circuit::kGround, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
      c.addResistor(src, out, r);
      c.addCapacitor(out, Circuit::kGround, 1e-9);
      return out;
    };
    Circuit c, oracle_circuit;
    const int out = build(c);
    build(oracle_circuit);
    TransientOptions opt;
    opt.dt = 1e-12;
    opt.t_stop = 50e-12;
    opt.settle_time = 5e-12;
    const auto res = runTransient(c, opt, {{"v", out, 0}});
    EXPECT_TRUE(res.converged) << r;
    EXPECT_EQ(res.max_newton_iterations, 1) << r;
    EXPECT_EQ(res.lu_factorizations, 1) << r;
    TransientOptions no_clamp = opt;
    no_clamp.max_delta_v = 0.0;
    const auto ref = oracle::runDenseReference(oracle_circuit, no_clamp, {{"v", out, 0}});
    EXPECT_TRUE(ref.converged) << r;
    EXPECT_LE(oracle::maxAbsDiff(res.at("v"), ref.at("v")), oracle::kSparseTol) << r;
  }
}

// A diode whose port voltage steps by several max_delta_v in one time
// step: the source jumps to +3 V (forward, the junction settles near
// 0.8 V) and then to -5 V (reverse, the whole swing lands on the
// junction). Per-port limiting walks the port voltage max_delta_v per
// iteration and every step still converges, with no stagnated or diverged
// step in the health record.
TEST(Transient, DiodePortStepLargerThanTheLimitConverges) {
  const auto build = [](Circuit& c) {
    const int src = c.addNode();
    const int out = c.addNode();
    c.addVoltageSource(src, Circuit::kGround, [](double t) {
      return t < 10e-12 ? 0.0 : (t < 30e-12 ? 3.0 : -5.0);
    });
    c.addDiode(src, out);
    c.addResistor(out, Circuit::kGround, 1000.0);
    c.addCapacitor(out, Circuit::kGround, 1e-12);
    return out;
  };
  Circuit c, oracle_circuit;
  const int out = build(c);
  build(oracle_circuit);
  obs::RunTelemetry tel;
  TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = 50e-12;
  opt.telemetry = &tel;
  opt.health.collect = true;
  const auto res = runTransient(c, opt, {{"v", out, 0}});
  EXPECT_TRUE(res.converged);
  // The -5.8 V swing takes six limited iterations, then two more.
  EXPECT_GE(res.max_newton_iterations, 7);
  EXPECT_EQ(res.lu_factorizations, 1);
  EXPECT_EQ(res.low_rank_solves, res.total_newton_iterations);
  EXPECT_EQ(tel.health.newton_steps_converged, static_cast<long long>(res.steps));
  EXPECT_EQ(tel.health.newton_steps_stagnated, 0);
  EXPECT_EQ(tel.health.newton_steps_diverged, 0);
  EXPECT_EQ(tel.health.severity, obs::HealthSeverity::kOk);
  const auto ref = oracle::runBandedReference(oracle_circuit, opt, {{"v", out, 0}});
  EXPECT_TRUE(ref.converged);
  EXPECT_LE(oracle::maxAbsDiff(res.at("v"), ref.at("v")), oracle::kSparseTol);
}

TEST(Transient, OptionValidation) {
  Circuit c;
  const int n = c.addNode();
  c.addResistor(n, 0, 100.0);
  TransientOptions bad;
  bad.dt = 0.0;
  EXPECT_THROW(runTransient(c, bad, {}), std::invalid_argument);
  TransientOptions bad2;
  bad2.t_stop = -1.0;
  EXPECT_THROW(runTransient(c, bad2, {}), std::invalid_argument);
  TransientOptions ok;
  ok.dt = 1e-12;
  ok.t_stop = 1e-12;
  EXPECT_THROW(runTransient(c, ok, {{"x", 99, 0}}), std::invalid_argument);
}

TEST(Circuit, NodeValidation) {
  Circuit c;
  EXPECT_THROW(c.addResistor(1, 0, 100.0), std::invalid_argument);
  const int n = c.addNode();
  EXPECT_NO_THROW(c.addResistor(n, 0, 100.0));
  EXPECT_THROW(c.addResistor(n, -1, 100.0), std::invalid_argument);
  EXPECT_THROW(c.addElement(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace fdtdmm
