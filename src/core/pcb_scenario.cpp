#include "core/pcb_scenario.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "fdtd/solver.h"
#include "rbf/driver_model.h"
#include "rbf/receiver_model.h"
#include "signal/linear_ports.h"
#include "signal/sources.h"

namespace fdtdmm {

void validatePcbScenario(const PcbScenario& cfg) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("PcbScenario: " + what);
  };
  if (cfg.pattern.empty()) fail("empty bit pattern");
  if (!(cfg.bit_time > 0.0)) fail("bit_time must be > 0");
  if (!(cfg.t_stop > 0.0)) fail("t_stop must be > 0");
  if (!(cfg.cell > 0.0)) fail("cell must be > 0");
  if (cfg.board_cells == 0 || cfg.strip_len == 0) fail("mesh sizes must be > 0");
  if (cfg.net_pitch == 0) fail("net_pitch must be > 0");
  if (!(cfg.eps_r > 0.0)) fail("eps_r must be > 0");
  if (!(cfg.r_termination > 0.0)) fail("r_termination must be > 0");
  if (cfg.board_cells < cfg.strip_len + 10) fail("board too small for strips");
  // The outermost net (n = 2) is offset by 2*net_pitch from the innermost;
  // its strips must still end on the board, not in the air margin.
  if ((cfg.board_cells - cfg.strip_len) / 2 + 2 * cfg.net_pitch + cfg.strip_len >
      cfg.board_cells)
    fail("net_pitch pushes the outer net past the board edge");
  if (cfg.with_incident) {
    if (!(cfg.inc_amplitude > 0.0)) fail("inc_amplitude must be > 0");
    if (!(cfg.inc_bandwidth > 0.0)) fail("inc_bandwidth must be > 0");
  }
}

PcbRun runPcbScenario(const PcbScenario& cfg,
                      std::shared_ptr<const RbfDriverModel> driver,
                      std::shared_ptr<const RbfReceiverModel> receiver) {
  validatePcbScenario(cfg);
  if (!driver || !receiver)
    throw std::invalid_argument("runPcbScenario: null device model");

  const auto start = std::chrono::steady_clock::now();
  const BitPattern pattern(cfg.pattern, cfg.bit_time);

  // --- Mesh: board of board_cells^2 x 3 dielectric layers (glue, signal,
  // glue; one cell each), metallized top and bottom, air margin around.
  const std::size_t m = cfg.margin;
  const std::size_t b = cfg.board_cells;
  GridSpec spec;
  spec.nx = b + 2 * m;
  spec.ny = b + 2 * m;
  spec.nz = 3 + 2 * m;
  spec.dx = spec.dy = spec.dz = cfg.cell;
  Grid3 grid(spec);

  const std::size_t i0 = m, i1 = m + b;   // board cell span in x
  const std::size_t j0 = m, j1 = m + b;   // and y
  const std::size_t k_bot = m;            // bottom metallization plane
  const std::size_t k_sb = m + 1;         // bottom-strip plane (signal layer bottom)
  const std::size_t k_st = m + 2;         // top-strip plane (signal layer top)
  const std::size_t k_top = m + 3;        // top metallization plane

  grid.setDielectricBox(i0, i1, j0, j1, k_bot, k_top, cfg.eps_r);
  grid.pecPlateZ(k_bot, i0, i1, j0, j1);
  grid.pecPlateZ(k_top, i0, i1, j0, j1);

  // --- Three L-shaped nets. Net n has its via at (iv_n, jv_n); the top
  // strip runs +x at y = jv_n, the bottom strip runs +y at x = iv_n. Vias
  // sit in the lower-left board quadrant so both strip arms fit.
  const std::size_t iv0 = m + (b - cfg.strip_len) / 2;
  const std::size_t jv_base = m + (b - cfg.strip_len) / 2;
  std::size_t drv_i = 0, drv_j = 0;  // driver edge (top strip far end)
  std::size_t rcv_i = 0, rcv_j = 0;  // receiver edge (bottom strip far end)
  struct Term {
    std::size_t i, j, k;
    int sign;
  };
  std::vector<Term> passive;

  for (std::size_t n = 0; n < 3; ++n) {
    const std::size_t iv = iv0 + n * cfg.net_pitch;
    const std::size_t jv = jv_base + n * cfg.net_pitch;
    // Top strip: plate [iv, iv+len) x [jv, jv+1) at k_st.
    grid.pecPlateZ(k_st, iv, iv + cfg.strip_len, jv, jv + 1);
    // Bottom strip: plate [iv, iv+1) x [jv, jv+len) at k_sb.
    grid.pecPlateZ(k_sb, iv, iv + 1, jv, jv + cfg.strip_len);
    // Via joining them (one Ez edge through the signal layer).
    grid.pecWireZ(iv, jv, k_sb, k_st);

    // Terminations: top strip end -> top plane (through the upper glue
    // layer); bottom strip end -> bottom plane (through the lower glue).
    const std::size_t it = iv + cfg.strip_len;  // top strip far-end node
    const std::size_t jb = jv + cfg.strip_len;  // bottom strip far-end node
    if (n == 1) {
      drv_i = it;
      drv_j = jv;
      rcv_i = iv;
      rcv_j = jb;
    } else {
      // Strip is the + terminal in both cases. Top terminations span
      // [k_st, k_top): v_cell = phi(strip) - phi(plane) -> sign +1.
      passive.push_back({it, jv, k_st, +1});
      // Bottom terminations span [k_bot, k_sb): v_cell = phi(plane) -
      // phi(strip) -> sign -1.
      passive.push_back({iv, jb, k_bot, -1});
    }
  }
  grid.bake();

  FdtdSolver solver(std::move(grid));

  if (cfg.with_incident) {
    const double sigma = gaussianSigmaForBandwidth(cfg.inc_bandwidth);
    // The pulse peaks 6 sigma after t = 0 at the domain origin, where the
    // delay is 0 (g(0) = exp(-18)). Edges downstream along k_hat see it
    // later; edges upstream (for theta < 90 deg, the air above the board)
    // have negative delays and see it earlier.
    const double t0 = 6.0 * sigma;
    constexpr double deg = 3.14159265358979323846 / 180.0;
    PlaneWave wave(cfg.inc_theta_deg * deg, cfg.inc_phi_deg * deg,
                   cfg.inc_amplitude, GaussianPulse(t0, sigma));
    solver.setIncidentWave(wave);
  }

  LumpedPortSpec drv_spec;
  drv_spec.i = drv_i;
  drv_spec.j = drv_j;
  drv_spec.k = k_st;   // spans signal-top plane to top metallization
  drv_spec.sign = +1;  // strip (lower node) is the + terminal
  drv_spec.label = "driver";
  LumpedPort* drv_port =
      solver.addLumpedPort(drv_spec, std::make_shared<RbfDriverPort>(driver, pattern));

  LumpedPortSpec rcv_spec;
  rcv_spec.i = rcv_i;
  rcv_spec.j = rcv_j;
  rcv_spec.k = k_bot;  // spans bottom metallization to bottom strip
  rcv_spec.sign = -1;  // strip (upper node) is the + terminal
  rcv_spec.label = "receiver";
  LumpedPort* rcv_port =
      solver.addLumpedPort(rcv_spec, std::make_shared<RbfReceiverPort>(receiver));

  std::vector<LumpedPort*> victim_ports;
  for (std::size_t t = 0; t < passive.size(); ++t) {
    LumpedPortSpec ps;
    ps.i = passive[t].i;
    ps.j = passive[t].j;
    ps.k = passive[t].k;
    ps.sign = passive[t].sign;
    ps.label = "term" + std::to_string(t);
    victim_ports.push_back(
        solver.addLumpedPort(ps, std::make_shared<ResistorPort>(cfg.r_termination)));
  }

  solver.runUntil(cfg.t_stop);

  PcbRun run;
  run.v_near = drv_port->voltage();
  run.v_far = rcv_port->voltage();
  for (LumpedPort* vp : victim_ports) run.victims.push_back(vp->voltage());
  run.max_newton_iterations = solver.maxNewtonIterations();
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return run;
}

}  // namespace fdtdmm
