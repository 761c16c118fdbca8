// Tests for the incident plane wave and the scattered-field coupling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "fdtd/incident.h"
#include "fdtd/solver.h"
#include "signal/linear_ports.h"
#include "signal/sources.h"

namespace fdtdmm {
namespace {

using namespace constants;

TEST(PlaneWave, DirectionAndPolarizationForPaperAngles) {
  // theta = 90, phi = 180, theta-pol: travels along +x, E along -z.
  const double deg = M_PI / 180.0;
  PlaneWave w(90.0 * deg, 180.0 * deg, 2e3, GaussianPulse(1e-9, 0.1e-9));
  EXPECT_NEAR(w.polarization(Axis::kX), 0.0, 1e-12);
  EXPECT_NEAR(w.polarization(Axis::kY), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(w.polarization(Axis::kZ)), 1.0, 1e-12);
  // Delay grows along +x (the wave moves toward +x).
  EXPECT_GT(w.delay(1.0, 0.0, 0.0), w.delay(0.0, 0.0, 0.0));
  EXPECT_NEAR(w.delay(1.0, 0.0, 0.0) - w.delay(0.0, 0.0, 0.0), 1.0 / kC0, 1e-18);
  // No variation transverse to propagation.
  EXPECT_NEAR(w.delay(0.0, 1.0, 0.0), w.delay(0.0, 0.0, 0.0), 1e-18);
}

TEST(PlaneWave, FieldPeaksAtRetardedTime) {
  const double deg = M_PI / 180.0;
  const double t0 = 1e-9, sigma = 0.05e-9;
  PlaneWave w(90.0 * deg, 180.0 * deg, 2e3, GaussianPulse(t0, sigma));
  // At x: peak when t = t0 + x/c.
  const double x = 0.03;
  const double t_peak = t0 + x / kC0;
  const double e_peak = std::abs(w.field(Axis::kZ, x, 0.0, 0.0, t_peak));
  EXPECT_NEAR(e_peak, 2e3, 1e-6);
  EXPECT_LT(std::abs(w.field(Axis::kZ, x, 0.0, 0.0, t_peak - 6.0 * sigma)), 1.0);
}

TEST(PlaneWave, DerivativeMatchesFiniteDifference) {
  const double deg = M_PI / 180.0;
  PlaneWave w(60.0 * deg, 30.0 * deg, 1.0, GaussianPulse(1e-9, 0.1e-9), 0.7, 0.3);
  const double h = 1e-14;
  const double tau = w.delay(0.01, 0.02, 0.0);
  for (const double t : {0.8e-9, 1.0e-9, 1.2e-9}) {
    const double fd = (w.field(Axis::kZ, 0.01, 0.02, 0.0, t + h) -
                       w.field(Axis::kZ, 0.01, 0.02, 0.0, t - h)) /
                      (2.0 * h);
    EXPECT_NEAR(w.polarization(Axis::kZ) * w.amplitude() * w.pulse().dg(t - tau), fd,
                std::abs(fd) * 1e-4 + 1e-3);
  }
}

TEST(PlaneWave, Validation) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GaussianPulse(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(1e-9, -1e-10), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(1e-9, nan), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(1e-9, inf), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(nan, 1e-10), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(inf, 1e-10), std::invalid_argument);
  EXPECT_THROW(GaussianPulse(-inf, 1e-10), std::invalid_argument);
  EXPECT_NO_THROW(GaussianPulse(-1e-9, 1e-10));
  // phi-pol at theta=0 is fine, but a zero mix must throw.
  EXPECT_THROW(PlaneWave(0.0, 0.0, 1.0, GaussianPulse(1e-9, 1e-10), 0.0, 0.0),
               std::invalid_argument);
}

// The exactness argument behind every support window: outside
// [supportBegin, supportEnd] both g and dg are exactly 0, so skipping
// those evaluations cannot change a sum or a field value.
TEST(GaussianPulse, ExactlyZeroOutsideSupport) {
  const double inf = std::numeric_limits<double>::infinity();
  std::mt19937 rng(16);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // 14.4 ps is the 9.2 GHz pulse of the paper's Fig. 7.
  for (const double sigma : {1e-13, 1e-12, gaussianSigmaForBandwidth(9.2e9), 50e-12, 1e-9}) {
    for (const double t0 : {0.0, 6.0 * sigma, 2e-9, -3e-9}) {
      const GaussianPulse p(t0, sigma);
      EXPECT_EQ(p.supportBegin(), t0 - GaussianPulse::kSupportSigmas * sigma);
      EXPECT_EQ(p.supportEnd(), t0 + GaussianPulse::kSupportSigmas * sigma);
      std::vector<double> outside = {std::nextafter(p.supportBegin(), -inf),
                                     std::nextafter(p.supportEnd(), inf)};
      for (int n = 0; n < 200; ++n) {
        outside.push_back(p.supportBegin() - u(rng) * 1000.0 * sigma);
        outside.push_back(p.supportEnd() + u(rng) * 1000.0 * sigma);
      }
      for (const double t : outside) {
        EXPECT_EQ(p.g(t), 0.0) << "sigma " << sigma << " t0 " << t0 << " t " << t;
        EXPECT_EQ(p.dg(t), 0.0) << "sigma " << sigma << " t0 " << t0 << " t " << t;
      }
      // The bound is tight to within 2 sigma: 38 sigma out, g is not 0 yet.
      EXPECT_GT(p.g(t0 - 38.0 * sigma), 0.0) << "sigma " << sigma;
      EXPECT_GT(p.g(t0 + 38.0 * sigma), 0.0) << "sigma " << sigma;
      EXPECT_EQ(p.g(t0), 1.0);
    }
  }
}

TEST(GaussianPulse, SupportWindowMatchesBruteForceScan) {
  struct Entry {
    double delay;
  };
  const double sigma = gaussianSigmaForBandwidth(9.2e9);
  const GaussianPulse p(1e-9, sigma);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-2e-9, 2e-9);
  std::vector<Entry> table(600);
  for (Entry& e : table) e.delay = u(rng);
  // Runs of equal delays, as on the edges of a plane normal to k_hat.
  for (std::size_t n = 0; n + 3 < table.size(); n += 50)
    table[n + 1].delay = table[n + 2].delay = table[n + 3].delay = table[n].delay;
  std::sort(table.begin(), table.end(),
            [](const Entry& a, const Entry& b) { return a.delay < b.delay; });

  const IndexRange empty = supportWindow(std::vector<Entry>{}, p, 0.0);
  EXPECT_EQ(empty.first, 0u);
  EXPECT_EQ(empty.last, 0u);

  std::uniform_real_distribution<double> ut(-3e-9, 5e-9);
  std::vector<double> times(400);
  for (double& t : times) t = ut(rng);
  // Times that put some entry exactly on either end of the support.
  for (std::size_t n = 0; n < table.size(); n += 37) {
    times.push_back(table[n].delay + p.supportBegin());
    times.push_back(table[n].delay + p.supportEnd());
  }
  for (const double t : times) {
    const IndexRange w = supportWindow(table, p, t);
    ASSERT_LE(w.first, w.last);
    ASSERT_LE(w.last, table.size());
    for (std::size_t n = 0; n < table.size(); ++n) {
      const bool in_scan = table[n].delay >= t - p.supportEnd() &&
                           table[n].delay <= t - p.supportBegin();
      const bool in_window = n >= w.first && n < w.last;
      EXPECT_EQ(in_window, in_scan) << "t " << t << " entry " << n;
      if (!in_window) {
        EXPECT_EQ(p.g(t - table[n].delay), 0.0) << "t " << t << " entry " << n;
        EXPECT_EQ(p.dg(t - table[n].delay), 0.0) << "t " << t << " entry " << n;
      }
    }
  }
}

TEST(ScatteredField, EmptyVacuumDomainStaysQuiet) {
  // With no scatterers, the scattered field must remain ~0 even as the
  // incident pulse sweeps the domain (it is handled analytically).
  GridSpec s;
  s.nx = s.ny = s.nz = 12;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  g.bake();
  FdtdSolver solver(std::move(g));
  const double deg = M_PI / 180.0;
  const double sigma = 20e-12;
  PlaneWave w(90.0 * deg, 180.0 * deg, 1e3, GaussianPulse(6.0 * sigma, sigma));
  solver.setIncidentWave(w);
  solver.runUntil(0.4e-9);
  double acc = 0.0;
  for (std::size_t i = 0; i <= 12; ++i)
    for (std::size_t j = 0; j <= 12; ++j)
      for (std::size_t k = 0; k <= 12; ++k) acc = std::max(acc, std::abs(solver.grid().ez(i, j, k)));
  EXPECT_NEAR(acc, 0.0, 1e-9);
}

TEST(ScatteredField, PecPlateScattersIncidentWave) {
  // A PEC plate normal to the Ez-polarized incident wave produces a
  // nonzero scattered field and the *total* tangential E on the plate is
  // forced to zero.
  GridSpec s;
  s.nx = 40;
  s.ny = 20;
  s.nz = 20;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  // Plate normal to x at i=20 (tangential: Ey, Ez).
  g.pecPlateX(20, 5, 15, 5, 15);
  g.bake();
  FdtdSolver solver(std::move(g));
  const double deg = M_PI / 180.0;
  const double sigma = 15e-12;
  PlaneWave w(90.0 * deg, 180.0 * deg, 1e3, GaussianPulse(6.0 * sigma, sigma));
  solver.setIncidentWave(w);
  // Run until the pulse has crossed the plate.
  solver.runUntil(0.25e-9);

  // The scattered field is active somewhere.
  double max_es = 0.0;
  for (std::size_t i = 0; i <= 40; ++i)
    for (std::size_t j = 0; j <= 20; ++j)
      for (std::size_t k = 0; k <= 20; ++k)
        max_es = std::max(max_es, std::abs(solver.grid().ez(i, j, k)));
  EXPECT_GT(max_es, 10.0);

  // Check E_s = -E_i on a plate edge mid-pulse by stepping to a time when
  // the incident field at the plate is substantial.
  double x, y, z;
  solver.grid().edgeCenter(Axis::kZ, 20, 10, 10, x, y, z);
  const double t = solver.time();
  const double ei = w.field(Axis::kZ, x, y, z, t);
  const double es = solver.grid().ez(20, 10, 10);
  EXPECT_NEAR(es + ei, 0.0, 1e-9);  // total tangential field vanishes
}

TEST(ScatteredField, PecForcingTracksPulseThroughEntryAndExit) {
  // A PEC plate along the propagation direction (-x, so the edge order of
  // the grid is the reverse of the delay order), stepped one step at a
  // time while the support of a short pulse sweeps onto and off it: after
  // every step each forced edge holds exactly -amp * g(t - delay), so the
  // delay window never drops an edge the pulse reaches.
  GridSpec s;
  s.nx = 48;
  s.ny = 12;
  s.nz = 12;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  g.pecPlateY(6, 2, 46, 2, 10);  // tangential Ex and Ez edges
  g.bake();
  FdtdSolver solver(std::move(g));
  const double deg = M_PI / 180.0;
  const double sigma = 3e-12;  // support 240 ps = 72 mm of travel
  PlaneWave w(90.0 * deg, 0.0, 1e3, GaussianPulse(45.0 * sigma, sigma));
  solver.setIncidentWave(w);
  const Grid3& grid = solver.grid();

  int partial_steps = 0, edges_checked = 0;
  bool reached = false, left = false;
  while (!left) {
    solver.run(1);
    const double t = solver.time();
    int active = 0, forced = 0;
    for (const Grid3::PecEdge& e : grid.pecEdges()) {
      const double amp = w.polarization(e.axis) * w.amplitude();
      if (amp == 0.0) continue;
      double x, y, z;
      grid.edgeCenter(e.axis, e.i, e.j, e.k, x, y, z);
      const double expected = -amp * w.pulse().g(t - w.delay(x, y, z));
      double actual = 0.0;
      switch (e.axis) {
        case Axis::kX: actual = grid.ex(e.i, e.j, e.k); break;
        case Axis::kY: actual = grid.ey(e.i, e.j, e.k); break;
        case Axis::kZ: actual = grid.ez(e.i, e.j, e.k); break;
      }
      ASSERT_EQ(actual, expected) << "t " << t << " edge " << e.i << "," << e.j << ","
                                  << e.k;
      ++forced;
      if (expected != 0.0) ++active;
    }
    edges_checked += forced;
    if (active > 0 && active < forced) ++partial_steps;
    reached = reached || active > 0;
    left = reached && active == 0;
  }
  EXPECT_GT(edges_checked, 0);
  // Both the entry and the exit took many steps with the plate partly
  // inside the support.
  EXPECT_GT(partial_steps, 20);
}

/// A 1-cell gap between two plates (a small dipole-like receptor), to be
/// lit by an Ez-polarized pulse travelling along +x.
Grid3 receptorGrid() {
  GridSpec s;
  s.nx = 40;
  s.ny = 16;
  s.nz = 16;
  s.dx = s.dy = s.dz = 1e-3;
  Grid3 g(s);
  g.pecPlateZ(7, 10, 30, 6, 10);
  g.pecPlateZ(8, 10, 30, 6, 10);
  g.bake();
  return g;
}

/// The receptor's wave, referred to the point (x0, y0, z0): the pulse
/// centre moves by the delay of that point, so the field is the same.
PlaneWave receptorWave(double x0 = 0.0, double y0 = 0.0, double z0 = 0.0) {
  const double deg = M_PI / 180.0;
  const double sigma = 15e-12;
  const PlaneWave w(90.0 * deg, 180.0 * deg, 1e3, GaussianPulse(6.0 * sigma, sigma));
  return PlaneWave(90.0 * deg, 180.0 * deg, 1e3,
                   GaussianPulse(6.0 * sigma + w.delay(x0, y0, z0), sigma), 1.0, 0.0, x0,
                   y0, z0);
}

LumpedPortSpec receptorPort() {
  LumpedPortSpec ps;
  ps.i = 20;
  ps.j = 8;
  ps.k = 7;
  ps.label = "receptor";
  return ps;
}

TEST(ScatteredField, LumpedPortPicksUpIncidentCoupling) {
  // The resistor port across the receptor's gap: the incident wave must
  // induce a voltage across it.
  FdtdSolver solver(receptorGrid());
  solver.setIncidentWave(receptorWave());
  LumpedPort* port =
      solver.addLumpedPort(receptorPort(), std::make_shared<ResistorPort>(100.0));
  solver.runUntil(0.4e-9);
  double vmax = 0.0;
  for (double v : port->voltage().samples()) vmax = std::max(vmax, std::abs(v));
  EXPECT_GT(vmax, 0.05);  // clear induced voltage
}

TEST(ScatteredField, PortSeesWaveDelayWhateverTheAttachOrder) {
  // A port added before setIncidentWave must get the wave's delay at its
  // edge, exactly as one added after it.
  FdtdSolver wave_first(receptorGrid());
  wave_first.setIncidentWave(receptorWave());
  LumpedPort* a =
      wave_first.addLumpedPort(receptorPort(), std::make_shared<ResistorPort>(100.0));
  FdtdSolver port_first(receptorGrid());
  LumpedPort* b =
      port_first.addLumpedPort(receptorPort(), std::make_shared<ResistorPort>(100.0));
  port_first.setIncidentWave(receptorWave());
  wave_first.runUntil(0.4e-9);
  port_first.runUntil(0.4e-9);
  const Vector& va = a->voltage().samples();
  const Vector& vb = b->voltage().samples();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t n = 0; n < va.size(); ++n) EXPECT_EQ(va[n], vb[n]) << "sample " << n;

  // And that delay is the one at its edge: the same wave referred to the
  // port's edge centre (delay 0 there) moves the voltage only by rounding.
  Grid3 grid = receptorGrid();
  double x, y, z;
  grid.edgeCenter(Axis::kZ, receptorPort().i, receptorPort().j, receptorPort().k, x, y, z);
  FdtdSolver at_port(std::move(grid));
  at_port.setIncidentWave(receptorWave(x, y, z));
  LumpedPort* c =
      at_port.addLumpedPort(receptorPort(), std::make_shared<ResistorPort>(100.0));
  at_port.runUntil(0.4e-9);
  const Vector& vc = c->voltage().samples();
  ASSERT_EQ(vc.size(), va.size());
  double peak = 0.0;
  for (double v : va) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.05);
  for (std::size_t n = 0; n < va.size(); ++n)
    EXPECT_NEAR(vc[n], va[n], 1e-9 * peak) << "sample " << n;
}

}  // namespace
}  // namespace fdtdmm
