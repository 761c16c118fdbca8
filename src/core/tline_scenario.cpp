#include "core/tline_scenario.h"

#include <chrono>
#include <stdexcept>

#include "circuit/transient.h"
#include "devices/cmos_driver.h"
#include "fdtd/solver.h"
#include "fdtd1d/line1d.h"
#include "signal/linear_ports.h"

namespace fdtdmm {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

TimeFn logicFromPattern(const TlineScenario& cfg) {
  const BitPattern pattern(cfg.pattern, cfg.bit_time);
  return [pattern](double t) { return static_cast<double>(pattern.levelAt(t)); };
}

}  // namespace

void validateTlineScenario(const TlineScenario& cfg) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("TlineScenario: " + what);
  };
  if (cfg.pattern.empty()) fail("empty bit pattern");
  if (!(cfg.bit_time > 0.0)) fail("bit_time must be > 0");
  if (!(cfg.t_stop > 0.0)) fail("t_stop must be > 0");
  if (!(cfg.zc > 0.0)) fail("zc must be > 0");
  if (!(cfg.td > 0.0)) fail("td must be > 0");
  if (cfg.load == FarEndLoad::kLinearRc) {
    if (!(cfg.load_r > 0.0)) fail("load_r must be > 0");
    if (!(cfg.load_c > 0.0)) fail("load_c must be > 0");
  }
  if (!(cfg.mesh_delta > 0.0)) fail("mesh_delta must be > 0");
  if (cfg.mesh_nx == 0 || cfg.mesh_ny == 0 || cfg.mesh_nz == 0)
    fail("mesh dimensions must be > 0");
  if (cfg.strip_len == 0 || cfg.strip_width == 0 || cfg.strip_gap == 0)
    fail("strip sizes must be > 0");
  if (cfg.strip_len >= cfg.mesh_nx) fail("strip_len must fit inside mesh_nx");
  if (cfg.strip_width >= cfg.mesh_ny) fail("strip_width must fit inside mesh_ny");
  if (cfg.strip_gap >= cfg.mesh_nz) fail("strip_gap must fit inside mesh_nz");
}

EngineRun runSpiceTransistorTline(const TlineScenario& cfg,
                                  const CmosDriverParams& driver,
                                  const CmosReceiverParams& receiver,
                                  double dt) {
  validateTlineScenario(cfg);
  const auto start = Clock::now();
  Circuit circuit;
  auto drv = buildCmosDriver(circuit, driver, logicFromPattern(cfg));

  const int far = circuit.addNode();
  circuit.addIdealLine(drv.pad, Circuit::kGround, far, Circuit::kGround, cfg.zc, cfg.td);

  if (cfg.load == FarEndLoad::kLinearRc) {
    circuit.addResistor(far, Circuit::kGround, cfg.load_r);
    circuit.addCapacitor(far, Circuit::kGround, cfg.load_c);
  } else {
    auto rcv = buildCmosReceiver(circuit, receiver);
    // Pad of the receiver is the far-end node: join with a 0-ohm-like tie.
    circuit.addResistor(far, rcv.pad, 1e-3);
  }

  EngineRun run;
  TransientOptions topt;
  topt.dt = dt;
  topt.t_stop = cfg.t_stop;
  topt.settle_time = 3e-9;
  topt.telemetry = &run.telemetry;
  auto res = runTransient(circuit, topt,
                          {{"near", drv.pad, Circuit::kGround},
                           {"far", far, Circuit::kGround}});
  run.v_near = res.at("near");
  run.v_far = res.at("far");
  run.max_newton_iterations = res.max_newton_iterations;
  run.wall_seconds = seconds(start, Clock::now());
  return run;
}

EngineRun runSpiceRbfTline(const TlineScenario& cfg,
                           std::shared_ptr<const RbfDriverModel> driver,
                           std::shared_ptr<const RbfReceiverModel> receiver,
                           double dt, const SolverSharing& sharing) {
  validateTlineScenario(cfg);
  if (!driver) throw std::invalid_argument("runSpiceRbfTline: null driver model");
  const auto start = Clock::now();
  const BitPattern pattern(cfg.pattern, cfg.bit_time);

  Circuit circuit;
  const int near = circuit.addNode();
  const int far = circuit.addNode();
  circuit.addBehavioralPort(near, Circuit::kGround,
                            std::make_shared<RbfDriverPort>(driver, pattern));
  circuit.addIdealLine(near, Circuit::kGround, far, Circuit::kGround, cfg.zc, cfg.td);
  if (cfg.load == FarEndLoad::kLinearRc) {
    circuit.addResistor(far, Circuit::kGround, cfg.load_r);
    circuit.addCapacitor(far, Circuit::kGround, cfg.load_c);
  } else {
    if (!receiver) throw std::invalid_argument("runSpiceRbfTline: null receiver model");
    circuit.addBehavioralPort(far, Circuit::kGround,
                              std::make_shared<RbfReceiverPort>(receiver));
  }

  EngineRun run;
  TransientOptions topt;
  topt.dt = dt;
  topt.t_stop = cfg.t_stop;
  topt.settle_time = 1e-9;
  topt.telemetry = &run.telemetry;
  topt.sharing = sharing;
  auto res = runTransient(circuit, topt,
                          {{"near", near, Circuit::kGround},
                           {"far", far, Circuit::kGround}});
  run.v_near = res.at("near");
  run.v_far = res.at("far");
  run.max_newton_iterations = res.max_newton_iterations;
  run.wall_seconds = seconds(start, Clock::now());
  return run;
}

EngineRun runFdtd1dTline(const TlineScenario& cfg,
                         std::shared_ptr<const RbfDriverModel> driver,
                         std::shared_ptr<const RbfReceiverModel> receiver) {
  validateTlineScenario(cfg);
  if (!driver) throw std::invalid_argument("runFdtd1dTline: null driver model");
  const auto start = Clock::now();
  const BitPattern pattern(cfg.pattern, cfg.bit_time);

  Line1dConfig lc;
  lc.zc = cfg.zc;
  lc.td = cfg.td;
  lc.cells = cfg.strip_len;

  PortModelPtr near = std::make_shared<RbfDriverPort>(driver, pattern);
  PortModelPtr far;
  if (cfg.load == FarEndLoad::kLinearRc) {
    far = std::make_shared<ParallelRcPort>(cfg.load_r, cfg.load_c);
  } else {
    if (!receiver) throw std::invalid_argument("runFdtd1dTline: null receiver model");
    far = std::make_shared<RbfReceiverPort>(receiver);
  }

  Fdtd1dLine line(lc, std::move(near), std::move(far));
  auto res = line.run(cfg.t_stop);
  EngineRun run;
  run.v_near = std::move(res.v_near);
  run.v_far = std::move(res.v_far);
  run.max_newton_iterations = res.max_newton_iterations;
  run.wall_seconds = seconds(start, Clock::now());
  return run;
}

EngineRun runFdtd3dTline(const TlineScenario& cfg,
                         std::shared_ptr<const RbfDriverModel> driver,
                         std::shared_ptr<const RbfReceiverModel> receiver) {
  validateTlineScenario(cfg);
  if (!driver) throw std::invalid_argument("runFdtd3dTline: null driver model");
  const auto start = Clock::now();
  const BitPattern pattern(cfg.pattern, cfg.bit_time);

  GridSpec spec;
  spec.nx = cfg.mesh_nx;
  spec.ny = cfg.mesh_ny;
  spec.nz = cfg.mesh_nz;
  spec.dx = spec.dy = spec.dz = cfg.mesh_delta;
  Grid3 grid(spec);

  // Fig. 3 structure: two zero-thickness strips normal to z, centered in
  // the domain, separated by `strip_gap` cells.
  const std::size_t x0 = (cfg.mesh_nx - cfg.strip_len) / 2;
  const std::size_t x1 = x0 + cfg.strip_len;
  const std::size_t jy0 = (cfg.mesh_ny - cfg.strip_width) / 2;
  const std::size_t jy1 = jy0 + cfg.strip_width;
  const std::size_t kz0 = (cfg.mesh_nz - cfg.strip_gap) / 2;
  const std::size_t kz1 = kz0 + cfg.strip_gap;
  grid.pecPlateZ(kz0, x0, x1, jy0, jy1);  // lower (reference) strip
  grid.pecPlateZ(kz1, x0, x1, jy0, jy1);  // upper (signal) strip

  // Vertical device stacks at the strip ends (center column): PEC lead
  // wires for all gap cells except the topmost, which hosts the device.
  const std::size_t jc = (jy0 + jy1) / 2;
  const std::size_t k_dev = kz1 - 1;
  if (cfg.strip_gap >= 2) {
    grid.pecWireZ(x0, jc, kz0, k_dev);
    grid.pecWireZ(x1, jc, kz0, k_dev);
  }
  grid.bake();

  FdtdSolver solver(std::move(grid));

  // Port voltage convention: + terminal on the upper (signal) strip. The
  // cell voltage integral v = int Ez dz equals phi(lower) - phi(upper), so
  // the device sees sign = -1.
  LumpedPortSpec near_spec;
  near_spec.i = x0;
  near_spec.j = jc;
  near_spec.k = k_dev;
  near_spec.sign = -1;
  near_spec.label = "near";
  LumpedPort* near_port =
      solver.addLumpedPort(near_spec, std::make_shared<RbfDriverPort>(driver, pattern));

  LumpedPortSpec far_spec = near_spec;
  far_spec.i = x1;
  far_spec.label = "far";
  PortModelPtr far_model;
  if (cfg.load == FarEndLoad::kLinearRc) {
    far_model = std::make_shared<ParallelRcPort>(cfg.load_r, cfg.load_c);
  } else {
    if (!receiver) throw std::invalid_argument("runFdtd3dTline: null receiver model");
    far_model = std::make_shared<RbfReceiverPort>(receiver);
  }
  LumpedPort* far_port = solver.addLumpedPort(far_spec, std::move(far_model));

  solver.runUntil(cfg.t_stop);

  EngineRun run;
  run.v_near = near_port->voltage();
  run.v_far = far_port->voltage();
  run.max_newton_iterations = solver.maxNewtonIterations();
  run.wall_seconds = seconds(start, Clock::now());
  return run;
}

}  // namespace fdtdmm
