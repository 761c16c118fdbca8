// Unit tests for individual circuit elements (device equations and the
// coupled-inductor / series-EMF transient behavior).
#include "circuit/elements.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/rlgc_line.h"
#include "circuit/transient.h"

namespace fdtdmm {
namespace {

TEST(DiodeEval, ShockleyAndLimiting) {
  DiodeParams p;
  double g = 0.0;
  // Reverse bias saturates at -Is.
  EXPECT_NEAR(Diode::evalCurrent(-1.0, p, g), -p.is - p.gmin, 1e-15);
  // Forward 0.6 V: exp term dominates.
  const double i6 = Diode::evalCurrent(0.6, p, g);
  EXPECT_GT(i6, 1e-5);
  EXPECT_GT(g, 0.0);
  // Above the limiting knee the current is linear (no overflow at 10 V).
  const double i10 = Diode::evalCurrent(10.0, p, g);
  EXPECT_TRUE(std::isfinite(i10));
  const double i11 = Diode::evalCurrent(11.0, p, g);
  EXPECT_NEAR(i11 - i10, g, g * 1e-9);  // constant slope region
}

TEST(DiodeEval, ContinuousAtKnee) {
  DiodeParams p;
  const double v_lim = 40.0 * p.n * p.vt;
  double g1 = 0.0, g2 = 0.0;
  const double below = Diode::evalCurrent(v_lim - 1e-9, p, g1);
  const double above = Diode::evalCurrent(v_lim + 1e-9, p, g2);
  EXPECT_NEAR(below, above, std::abs(below) * 1e-6);
  EXPECT_NEAR(g1, g2, g1 * 1e-6);
}

TEST(MosfetEval, CutoffTriodeSaturation) {
  MosfetParams p;
  p.vth = 0.4;
  p.k = 1e-2;
  p.lambda = 0.0;
  double gm = 0.0, gds = 0.0;
  // Cutoff.
  EXPECT_NEAR(Mosfet::evalIds(0.2, 1.0, p, gm, gds), p.gmin * 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(gm, 0.0);
  // Saturation: ids = k/2 vov^2.
  const double i_sat = Mosfet::evalIds(1.4, 1.8, p, gm, gds);
  EXPECT_NEAR(i_sat, 0.5 * p.k * 1.0 * 1.0 + p.gmin * 1.8, 1e-12);
  EXPECT_NEAR(gm, p.k * 1.0, 1e-12);
  // Triode: ids = k (vov vds - vds^2/2).
  const double i_tri = Mosfet::evalIds(1.4, 0.5, p, gm, gds);
  EXPECT_NEAR(i_tri, p.k * (1.0 * 0.5 - 0.125) + p.gmin * 0.5, 1e-12);
}

TEST(MosfetEval, C1ContinuityAtRegionBoundaries) {
  MosfetParams p;
  p.vth = 0.4;
  p.k = 2e-2;
  p.lambda = 0.06;
  double gm1, gds1, gm2, gds2;
  // At vds = vov (triode/saturation boundary).
  const double vgs = 1.2, vov = vgs - p.vth;
  const double i1 = Mosfet::evalIds(vgs, vov - 1e-9, p, gm1, gds1);
  const double i2 = Mosfet::evalIds(vgs, vov + 1e-9, p, gm2, gds2);
  EXPECT_NEAR(i1, i2, std::abs(i1) * 1e-6);
  EXPECT_NEAR(gm1, gm2, std::abs(gm1) * 1e-5);
  EXPECT_NEAR(gds1, gds2, std::abs(gds1) * 1e-3 + 1e-12);
  // At vgs = vth (cutoff boundary).
  double gm3, gds3;
  const double i3 = Mosfet::evalIds(p.vth + 1e-9, 1.0, p, gm3, gds3);
  EXPECT_NEAR(i3, p.gmin * 1.0, 1e-12);
  EXPECT_NEAR(gm3, 0.0, 1e-10);
}

TEST(MosfetEval, LambdaIncreasesSaturationCurrent) {
  MosfetParams p0, p1;
  p0.lambda = 0.0;
  p1.lambda = 0.1;
  double gm, gds0, gds1;
  const double i0 = Mosfet::evalIds(1.4, 1.8, p0, gm, gds0);
  const double i1 = Mosfet::evalIds(1.4, 1.8, p1, gm, gds1);
  EXPECT_GT(i1, i0);
  EXPECT_GT(gds1, gds0);
}

TEST(Elements, ConstructorValidation) {
  EXPECT_THROW(Resistor(1, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(Capacitor(1, 0, -1e-12), std::invalid_argument);
  EXPECT_THROW(Inductor(1, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(Inductor(1, 0, 1e-9, TimeFn{}), std::invalid_argument);
  EXPECT_THROW(VoltageSource(1, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(CurrentSource(1, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(IdealLine(1, 0, 2, 0, 0.0, 1e-9), std::invalid_argument);
  EXPECT_THROW(IdealLine(1, 0, 2, 0, 50.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BehavioralPort(1, 0, nullptr), std::invalid_argument);
  // Coupled inductors: positive self inductances, |k| < 1.
  EXPECT_THROW(CoupledInductors(1, 0, 2, 0, 0.0, 1e-6, 0.0), std::invalid_argument);
  EXPECT_THROW(CoupledInductors(1, 0, 2, 0, 1e-6, 1e-6, 1e-6), std::invalid_argument);
  EXPECT_THROW(CoupledInductors(1, 0, 2, 0, 1e-6, 1e-6, 2e-6), std::invalid_argument);
  EXPECT_NO_THROW(CoupledInductors(1, 0, 2, 0, 1e-6, 1e-6, 0.99e-6));
}

TEST(CoupledInductors, TransformerVoltageRatioOnOpenSecondary) {
  // Step-driven primary through R, lightly loaded secondary: with i2 ~ 0,
  // v2 = M di1/dt = (M / L1) v1.
  Circuit c;
  const int src = c.addNode();
  const int n1 = c.addNode();
  const int n2 = c.addNode();
  c.addVoltageSource(src, 0, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(src, n1, 50.0);
  c.addCoupledInductors(n1, 0, n2, 0, 1e-6, 1e-6, 0.5e-6);
  c.addResistor(n2, 0, 1e6);

  TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 1e-9;  // << L/R = 20 ns, so di1/dt is still ~ v1/L1
  const auto res = runTransient(c, opt, {{"v1", n1, 0}, {"v2", n2, 0}});
  const double v1 = res.at("v1").value(0.5e-9);
  const double v2 = res.at("v2").value(0.5e-9);
  ASSERT_GT(v1, 0.9);  // early in the L/R transient the full step is on L1
  EXPECT_NEAR(v2, 0.5 * v1, 0.01 * v1);
  EXPECT_EQ(res.lu_factorizations, 1);  // the K element is fully static
}

TEST(CoupledInductors, ZeroMutualMatchesIndependentInductors) {
  auto run = [](bool coupled) {
    Circuit c;
    const int src = c.addNode();
    const int n1 = c.addNode();
    const int n2 = c.addNode();
    c.addVoltageSource(src, 0, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
    c.addResistor(src, n1, 50.0);
    c.addResistor(src, n2, 75.0);
    if (coupled) {
      c.addCoupledInductors(n1, 0, n2, 0, 1e-6, 2e-6, 0.0);
    } else {
      c.addInductor(n1, 0, 1e-6);
      c.addInductor(n2, 0, 2e-6);
    }
    TransientOptions opt;
    opt.dt = 20e-12;
    opt.t_stop = 4e-9;
    return runTransient(c, opt, {{"v1", n1, 0}, {"v2", n2, 0}});
  };
  const auto a = run(false);
  const auto b = run(true);
  ASSERT_EQ(a.at("v1").size(), b.at("v1").size());
  for (std::size_t k = 0; k < a.at("v1").size(); ++k) {
    EXPECT_NEAR(a.at("v1")[k], b.at("v1")[k], 1e-14);
    EXPECT_NEAR(a.at("v2")[k], b.at("v2")[k], 1e-14);
  }
}

TEST(SeriesEmfInductor, EmfActsAsSeriesSourceAcrossRLoop) {
  // A static loop: EMF e(t) in the inductor branch drives a resistor
  // divider once the L/R transient settles; at DC, i = e / (R1 + R2)
  // and the EMF raises the n2-side potential.
  Circuit c;
  const int n1 = c.addNode();
  const int n2 = c.addNode();
  c.addResistor(n1, 0, 25.0);
  c.addSeriesEmfInductor(n1, n2, 1e-9, [](double t) { return t >= 0.0 ? 1.0 : 0.0; });
  c.addResistor(n2, 0, 75.0);

  TransientOptions opt;
  opt.dt = 10e-12;
  opt.t_stop = 5e-9;  // >> L/(R1+R2) = 10 ps
  const auto res = runTransient(c, opt, {{"v1", n1, 0}, {"v2", n2, 0}});
  // Loop current 10 mA: v1 = -0.25 V (current pulled out of n1), v2 = +0.75 V.
  EXPECT_NEAR(res.at("v1").value(4e-9), -0.25, 1e-3);
  EXPECT_NEAR(res.at("v2").value(4e-9), +0.75, 1e-3);
  EXPECT_EQ(res.lu_factorizations, 1);  // EMF is RHS-only
}

TEST(SeriesEmfInductor, EmfEvaluatedOncePerTimePoint) {
  // A small field-coupled ladder: the RHS stamp of a step and its endStep
  // share one EMF evaluation, settle steps included.
  RlgcParams p;
  p.length = 0.05;
  p.segments = 4;
  std::vector<long long> calls(p.segments, 0);
  std::vector<TimeFn> emf;
  for (std::size_t s = 0; s < p.segments; ++s)
    emf.push_back([&calls, s](double t) {
      ++calls[s];
      return 0.1 * std::sin(2e9 * t + static_cast<double>(s));
    });
  Circuit c;
  const int n1 = c.addNode();
  const int n2 = c.addNode();
  c.addResistor(n1, 0, 50.0);
  buildRlgcLineSegments(c, n1, 0, n2, 0, p, emf);
  c.addResistor(n2, 0, 50.0);

  TransientOptions opt;
  opt.dt = 5e-12;
  opt.t_stop = 1e-9;
  opt.settle_time = 0.1e-9;
  const auto res = runTransient(c, opt, {{"v2", n2, 0}});
  const long long settle_steps = static_cast<long long>(std::ceil(opt.settle_time / opt.dt));
  const long long time_points = settle_steps + static_cast<long long>(res.steps);
  // The ladder is linear: one solve per time point, so evaluating the EMF
  // in both the RHS stamp and endStep would double the count.
  ASSERT_EQ(res.total_newton_iterations, time_points);
  for (std::size_t s = 0; s < p.segments; ++s) EXPECT_EQ(calls[s], time_points) << "segment " << s;
}

}  // namespace
}  // namespace fdtdmm
