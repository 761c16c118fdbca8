// Tests for axis-general lumped ports and current probes: the same
// physical strip-line problem built along each Cartesian orientation must
// produce the same waveforms.
#include <gtest/gtest.h>

#include <memory>

#include "fdtd/solver.h"
#include "signal/linear_ports.h"

namespace fdtdmm {
namespace {

/// Builds a parallel-strip line along `line_axis` with the strip pair
/// separated along `gap_axis`, drives it with a ramped step through 50 ohm
/// and loads it with 120 ohm; returns the load voltage.
Waveform orientedLineRun(Axis gap_axis) {
  // All three runs use congruent grids (60 x 24 x 24 permuted).
  GridSpec s;
  s.dx = s.dy = s.dz = 1e-3;
  auto vs = [](double t) { return t < 60e-12 ? t / 60e-12 : 1.0; };

  if (gap_axis == Axis::kZ) {
    // Line along x, gap along z (the canonical layout used elsewhere).
    s.nx = 60;
    s.ny = 24;
    s.nz = 24;
    Grid3 g(s);
    g.pecPlateZ(11, 10, 50, 10, 14);
    g.pecPlateZ(12, 10, 50, 10, 14);
    g.bake();
    FdtdSolver solver(std::move(g));
    LumpedPortSpec sp;
    sp.axis = Axis::kZ;
    sp.i = 10;
    sp.j = 12;
    sp.k = 11;
    sp.sign = -1;
    solver.addLumpedPort(sp, std::make_shared<TheveninPort>(vs, 50.0));
    LumpedPortSpec lp = sp;
    lp.i = 50;
    LumpedPort* load = solver.addLumpedPort(lp, std::make_shared<ResistorPort>(120.0));
    solver.runUntil(1.2e-9);
    return load->voltage();
  }
  if (gap_axis == Axis::kX) {
    // Line along y, gap along x.
    s.nx = 24;
    s.ny = 60;
    s.nz = 24;
    Grid3 g(s);
    g.pecPlateX(11, 10, 50, 10, 14);
    g.pecPlateX(12, 10, 50, 10, 14);
    g.bake();
    FdtdSolver solver(std::move(g));
    LumpedPortSpec sp;
    sp.axis = Axis::kX;
    sp.i = 11;
    sp.j = 10;
    sp.k = 12;
    sp.sign = -1;
    solver.addLumpedPort(sp, std::make_shared<TheveninPort>(vs, 50.0));
    LumpedPortSpec lp = sp;
    lp.j = 50;
    LumpedPort* load = solver.addLumpedPort(lp, std::make_shared<ResistorPort>(120.0));
    solver.runUntil(1.2e-9);
    return load->voltage();
  }
  // Line along z, gap along y.
  s.nx = 24;
  s.ny = 24;
  s.nz = 60;
  Grid3 g(s);
  g.pecPlateY(11, 10, 14, 10, 50);
  g.pecPlateY(12, 10, 14, 10, 50);
  g.bake();
  FdtdSolver solver(std::move(g));
  LumpedPortSpec sp;
  sp.axis = Axis::kY;
  sp.i = 12;
  sp.j = 11;
  sp.k = 10;
  sp.sign = -1;
  solver.addLumpedPort(sp, std::make_shared<TheveninPort>(vs, 50.0));
  LumpedPortSpec lp = sp;
  lp.k = 50;
  LumpedPort* load = solver.addLumpedPort(lp, std::make_shared<ResistorPort>(120.0));
  solver.runUntil(1.2e-9);
  return load->voltage();
}

TEST(AxisGeneralPorts, AllOrientationsAgree) {
  const Waveform vz = orientedLineRun(Axis::kZ);
  const Waveform vx = orientedLineRun(Axis::kX);
  const Waveform vy = orientedLineRun(Axis::kY);
  ASSERT_EQ(vz.size(), vx.size());
  ASSERT_EQ(vz.size(), vy.size());
  double dx_max = 0.0, dy_max = 0.0;
  for (std::size_t k = 0; k < vz.size(); ++k) {
    dx_max = std::max(dx_max, std::abs(vx[k] - vz[k]));
    dy_max = std::max(dy_max, std::abs(vy[k] - vz[k]));
  }
  // The discrete problem is exactly congruent up to index permutation.
  EXPECT_LT(dx_max, 1e-9);
  EXPECT_LT(dy_max, 1e-9);
  // DC divider sanity: 1 V behind 50 ohm into 120 ohm -> ~0.706 V.
  EXPECT_NEAR(vz.samples().back(), 120.0 / 170.0, 0.05);
}

TEST(CurrentProbe, MatchesPortCurrentAtDc) {
  GridSpec s;
  s.nx = 60;
  s.ny = 24;
  s.nz = 24;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  g.pecPlateZ(11, 10, 50, 10, 14);
  g.pecPlateZ(12, 10, 50, 10, 14);
  g.bake();
  FdtdSolver solver(std::move(g));
  auto vs = [](double t) { return t < 60e-12 ? t / 60e-12 : 1.0; };
  LumpedPortSpec sp;
  sp.i = 10;
  sp.j = 12;
  sp.k = 11;
  sp.sign = -1;
  solver.addLumpedPort(sp, std::make_shared<TheveninPort>(vs, 50.0));
  LumpedPortSpec lp = sp;
  lp.i = 50;
  LumpedPort* load = solver.addLumpedPort(lp, std::make_shared<ResistorPort>(120.0));
  CurrentProbeSpec cp;
  cp.axis = Axis::kZ;
  cp.i = 50;
  cp.j = 12;
  cp.k = 11;
  const std::size_t probe = solver.addCurrentProbe(cp);
  solver.runUntil(3e-9);  // settle to DC
  const double i_loop = solver.currentProbe(probe).samples().back();
  const double i_port = load->current().samples().back();
  // At DC the displacement current vanishes; the loop current equals the
  // device current in magnitude (direction per the mesh convention).
  EXPECT_NEAR(std::abs(i_loop), std::abs(i_port), std::abs(i_port) * 0.02 + 1e-9);
  EXPECT_GT(std::abs(i_port), 1e-3);  // sanity: a real current flows
}

TEST(CurrentProbe, Validation) {
  GridSpec s;
  s.nx = s.ny = s.nz = 8;
  Grid3 g(s);
  g.bake();
  FdtdSolver solver(std::move(g));
  CurrentProbeSpec bad;
  bad.i = 0;
  bad.j = 4;
  bad.k = 4;
  EXPECT_THROW(solver.addCurrentProbe(bad), std::invalid_argument);
  EXPECT_THROW(solver.currentProbe(0), std::out_of_range);
}

TEST(VoltageProbe, AxisGeneralSpans) {
  GridSpec s;
  s.nx = s.ny = s.nz = 10;
  Grid3 g(s);
  g.bake();
  FdtdSolver solver(std::move(g));
  VoltageProbeSpec vx;
  vx.axis = Axis::kX;
  vx.i = 5;  // y
  vx.j = 5;  // z
  vx.k0 = 2;
  vx.k1 = 6;  // span over x
  EXPECT_NO_THROW(solver.addVoltageProbe(vx));
  VoltageProbeSpec bad = vx;
  bad.k1 = 11;
  EXPECT_THROW(solver.addVoltageProbe(bad), std::invalid_argument);
}

}  // namespace
}  // namespace fdtdmm
