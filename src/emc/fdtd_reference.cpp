#include "emc/fdtd_reference.h"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "fdtd/solver.h"
#include "signal/linear_ports.h"
#include "signal/sources.h"

namespace fdtdmm {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

struct RefMesh {
  std::size_t nx, ny, nz;
  std::size_t i0, i1;  ///< trace end nodes (near, far)
  std::size_t jw;      ///< trace row
  std::size_t kg, kw;  ///< ground plane / wire plane
};

RefMesh refMesh(const EmcFdtdReference& cfg) {
  RefMesh m;
  m.i0 = cfg.margin + cfg.plate_pad;
  m.i1 = m.i0 + cfg.trace_cells;
  m.jw = cfg.margin + cfg.plate_pad;
  // The ground plane spans the whole domain (an infinite plane, matching
  // the image-theory assumption of the circuit path); only a few inert
  // cells sit below it.
  m.kg = 4;
  m.kw = m.kg + cfg.height_cells;
  m.nx = cfg.trace_cells + 2 * (cfg.margin + cfg.plate_pad);
  m.ny = 2 * (cfg.margin + cfg.plate_pad) + 1;
  m.nz = m.kw + cfg.margin;
  return m;
}

}  // namespace

void validateEmcFdtdReference(const EmcFdtdReference& cfg) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("EmcFdtdReference: " + what);
  };
  if (cfg.trace_cells < 2) fail("trace needs >= 2 cells");
  if (cfg.height_cells == 0) fail("height needs >= 1 cell");
  if (cfg.plate_pad == 0) fail("plate_pad must be >= 1");
  if (cfg.margin < 2) fail("margin must be >= 2");
  if (!(cfg.cell > 0.0)) fail("cell must be > 0");
  if (!(cfg.r_near > 0.0) || !(cfg.r_far > 0.0)) fail("terminations must be > 0");
  if (!(cfg.amplitude > 0.0)) fail("amplitude must be > 0");
  if (!(cfg.bandwidth > 0.0)) fail("bandwidth must be > 0");
  if (!(cfg.t_stop > 0.0)) fail("t_stop must be > 0");
  if (!(cfg.theta_deg >= 0.0) || !(cfg.theta_deg <= 180.0))
    fail("theta must be in [0, 180] deg");
  if (cfg.pol_theta == 0.0 && cfg.pol_phi == 0.0)
    fail("polarization mix must not be zero");
}

double emcReferencePulseT0(const EmcFdtdReference& cfg) {
  const RefMesh m = refMesh(cfg);
  const double sigma = gaussianSigmaForBandwidth(cfg.bandwidth);
  // 6 sigma of quiet plus the longest propagation delay across the domain
  // and its ground image (delays relative to the grid-origin reference can
  // be negative by up to the domain extent along the propagation vector).
  const double extent = (static_cast<double>(m.nx) + static_cast<double>(m.ny) +
                         2.0 * static_cast<double>(m.nz)) *
                        cfg.cell;
  return 6.0 * sigma + extent / constants::kC0;
}

EmcFdtdReferenceRun runEmcFdtdReference(const EmcFdtdReference& cfg) {
  validateEmcFdtdReference(cfg);
  const auto start = std::chrono::steady_clock::now();
  const RefMesh m = refMesh(cfg);

  GridSpec spec;
  spec.nx = m.nx;
  spec.ny = m.ny;
  spec.nz = m.nz;
  spec.dx = spec.dy = spec.dz = cfg.cell;
  Grid3 grid(spec);

  // Infinite ground plane (through the absorbing boundary on all sides)
  // and the thin-wire trace above it: a run of PEC Ex edges, whose
  // effective radius on the Yee grid is the classic ~0.135 * cell.
  grid.pecPlateZ(m.kg, 0, m.nx, 0, m.ny);
  for (std::size_t i = m.i0; i < m.i1; ++i)
    grid.pecEdge(Axis::kX, i, m.jw, m.kw);
  // Riser lead wires above the port edges (when the gap is > 1 cell).
  if (m.kw > m.kg + 1) {
    grid.pecWireZ(m.i0, m.jw, m.kg + 1, m.kw);
    grid.pecWireZ(m.i1, m.jw, m.kg + 1, m.kw);
  }
  grid.bake();

  // The ground-plane reflection is scattered field in this formulation and
  // leaves through the boundary at oblique angles; CPML absorbs it ~100x
  // better than Mur-1 (which would ring visibly at these amplitudes).
  FdtdSolverOptions sopt;
  sopt.boundary = BoundaryKind::kCpml;
  sopt.cpml.thickness = 6;
  FdtdSolver solver(std::move(grid), sopt);

  const double sigma = gaussianSigmaForBandwidth(cfg.bandwidth);
  const PlaneWave wave(cfg.theta_deg * kDeg, cfg.phi_deg * kDeg, cfg.amplitude,
                       GaussianPulse(emcReferencePulseT0(cfg), sigma),
                       cfg.pol_theta, cfg.pol_phi);
  solver.setIncidentWave(wave);

  // Terminations in the riser gaps; the wire (upper node) is the +
  // terminal, matching the circuit path's wire-minus-ground convention.
  LumpedPortSpec near_spec;
  near_spec.axis = Axis::kZ;
  near_spec.i = m.i0;
  near_spec.j = m.jw;
  near_spec.k = m.kg;
  near_spec.sign = -1;
  near_spec.label = "near";
  LumpedPort* near_port =
      solver.addLumpedPort(near_spec, std::make_shared<ResistorPort>(cfg.r_near));

  LumpedPortSpec far_spec = near_spec;
  far_spec.i = m.i1;
  far_spec.label = "far";
  LumpedPort* far_port =
      solver.addLumpedPort(far_spec, std::make_shared<ResistorPort>(cfg.r_far));

  solver.runUntil(cfg.t_stop);

  EmcFdtdReferenceRun run;
  run.v_near = near_port->voltage();
  run.v_far = far_port->voltage();
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return run;
}

EmcScenario matchedEmcScenario(const EmcFdtdReference& cfg) {
  validateEmcFdtdReference(cfg);
  const RefMesh m = refMesh(cfg);

  EmcScenario sc;
  sc.drive = "none";
  sc.termination = "resistive";
  sc.r_near = cfg.r_near;
  sc.r_far = cfg.r_far;
  sc.t_stop = cfg.t_stop;
  sc.dt = 2e-12;

  // Wire-over-ground per-unit-length parameters with the Yee thin-wire
  // effective radius (~0.135 cells); in vacuum L'C' = 1/c0^2.
  const double h = static_cast<double>(cfg.height_cells) * cfg.cell;
  const double a = 0.135 * cfg.cell;
  const double lam = std::acosh(h / a);
  sc.line.r = 0.0;
  sc.line.g = 0.0;
  sc.line.l = constants::kMu0 / (2.0 * 3.14159265358979323846) * lam;
  sc.line.c = 1.0 / (sc.line.l * constants::kC0 * constants::kC0);
  sc.line.length = static_cast<double>(cfg.trace_cells) * cfg.cell;
  sc.line.segments = std::max<std::size_t>(cfg.trace_cells, 16);

  // Same physical frame as the FDTD grid (wave origin = grid origin).
  sc.height = h;
  sc.trace_x0 = static_cast<double>(m.i0) * cfg.cell;
  sc.trace_y0 = static_cast<double>(m.jw) * cfg.cell;
  sc.trace_z0 = static_cast<double>(m.kg) * cfg.cell;
  sc.route_deg = 0.0;

  sc.amplitude = cfg.amplitude;
  sc.theta_deg = cfg.theta_deg;
  sc.phi_deg = cfg.phi_deg;
  sc.pol_theta = cfg.pol_theta;
  sc.pol_phi = cfg.pol_phi;
  sc.bandwidth = cfg.bandwidth;
  sc.pulse_t0 = emcReferencePulseT0(cfg);
  sc.ground_reflection = true;
  return sc;
}

}  // namespace fdtdmm
