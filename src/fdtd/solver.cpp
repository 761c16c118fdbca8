#include "fdtd/solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/newton.h"

namespace fdtdmm {

using namespace constants;

LumpedPort::LumpedPort(const LumpedPortSpec& spec, PortModelPtr model)
    : spec_(spec), model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("LumpedPort: null model");
  if (spec_.sign != 1 && spec_.sign != -1)
    throw std::invalid_argument("LumpedPort: sign must be +1 or -1");
}

FdtdSolver::FdtdSolver(Grid3 grid, const FdtdSolverOptions& opt)
    : grid_(std::move(grid)), opt_(opt) {
  if (!grid_.baked())
    throw std::invalid_argument("FdtdSolver: grid must be baked before use");
  if (opt_.newton_tolerance <= 0.0 || opt_.max_newton_iterations < 1)
    throw std::invalid_argument("FdtdSolver: bad Newton options");
  if (opt_.boundary == BoundaryKind::kCpml) {
    cpml_ = std::make_unique<CpmlBoundary>(&grid_, opt_.cpml);
  } else {
    mur_ = std::make_unique<MurBoundary>(&grid_);
  }
}

void FdtdSolver::setIncidentWave(const PlaneWave& wave) {
  if (started_) throw std::logic_error("FdtdSolver: cannot set incident wave after start");
  incident_ = std::make_unique<PlaneWave>(wave);

  // Precompute PEC forcing and dielectric correction tables: only edges
  // with a nonzero polarization component need per-step evaluation. Each
  // table is sorted by delay, so a step visits only the contiguous window
  // of edges inside the pulse's support; every entry writes its own edge,
  // so the visiting order cannot change a value.
  const auto by_delay = [](const auto& a, const auto& b) { return a.delay < b.delay; };
  for (auto& v : pec_incident_) v.clear();
  for (const Grid3::PecEdge& e : grid_.pecEdges()) {
    const double amp = incident_->polarization(e.axis) * incident_->amplitude();
    if (amp == 0.0) continue;
    pec_incident_[static_cast<int>(e.axis)].push_back(
        {grid_.idx(e.i, e.j, e.k), incidentDelay(e.axis, e.i, e.j, e.k), amp});
  }
  for (auto& v : pec_incident_) std::stable_sort(v.begin(), v.end(), by_delay);
  for (auto& v : mat_incident_) v.clear();
  for (const Grid3::MaterialEdge& e : grid_.materialEdges()) {
    const double amp = incident_->polarization(e.axis) * incident_->amplitude();
    if (amp == 0.0) continue;
    mat_incident_[static_cast<int>(e.axis)].push_back(
        {grid_.idx(e.i, e.j, e.k), incidentDelay(e.axis, e.i, e.j, e.k), amp,
         e.cb * e.d_eps, e.cb * e.sigma});
  }
  for (auto& v : mat_incident_) std::stable_sort(v.begin(), v.end(), by_delay);
}

double FdtdSolver::incidentDelay(Axis axis, std::size_t i, std::size_t j,
                                 std::size_t k) const {
  double x, y, z;
  grid_.edgeCenter(axis, i, j, k, x, y, z);
  return incident_->delay(x, y, z);
}

LumpedPort* FdtdSolver::addLumpedPort(const LumpedPortSpec& spec, PortModelPtr model) {
  if (started_) throw std::logic_error("FdtdSolver: cannot add ports after start");
  // The Eq. (8) update needs the curl of H at the edge, which requires the
  // edge to be strictly interior in the two transverse directions.
  bool interior = false;
  switch (spec.axis) {
    case Axis::kX:
      interior = spec.j >= 1 && spec.k >= 1 && spec.j < grid_.ny() &&
                 spec.k < grid_.nz() && spec.i < grid_.nx();
      break;
    case Axis::kY:
      interior = spec.i >= 1 && spec.k >= 1 && spec.i < grid_.nx() &&
                 spec.k < grid_.nz() && spec.j < grid_.ny();
      break;
    case Axis::kZ:
      interior = spec.i >= 1 && spec.j >= 1 && spec.i < grid_.nx() &&
                 spec.j < grid_.ny() && spec.k < grid_.nz();
      break;
  }
  if (!interior)
    throw std::invalid_argument(
        "FdtdSolver: lumped port edge must be strictly interior transversally");
  if (grid_.isPecEdge(spec.axis, spec.i, spec.j, spec.k))
    throw std::invalid_argument("FdtdSolver: lumped port edge is PEC");

  auto port = std::make_unique<LumpedPort>(spec, std::move(model));
  // Alpha coefficients of Eqs. (9)-(12), evaluated with the edge-effective
  // material around the port cell. d_axis is the edge length; the current
  // density spreads over the transverse cell area.
  const double eps = grid_.edgeEps(spec.axis, spec.i, spec.j, spec.k);
  const double sigma = grid_.edgeSigma(spec.axis, spec.i, spec.j, spec.k);
  const double dt = grid_.dt();
  double d_axis = grid_.dz(), area = grid_.dx() * grid_.dy();
  switch (spec.axis) {
    case Axis::kX:
      d_axis = grid_.dx();
      area = grid_.dy() * grid_.dz();
      break;
    case Axis::kY:
      d_axis = grid_.dy();
      area = grid_.dx() * grid_.dz();
      break;
    case Axis::kZ:
      break;
  }
  const double h = sigma * dt / (2.0 * eps);
  port->alpha0_ = 1.0 + h;
  port->alpha1_ = 1.0 - h;
  port->alpha2_ = d_axis * dt / eps;
  port->alpha3_ = d_axis * dt / (2.0 * eps * area);
  port->d_axis_ = d_axis;
  ports_.push_back(std::move(port));
  return ports_.back().get();
}

std::size_t FdtdSolver::addVoltageProbe(const VoltageProbeSpec& spec) {
  bool ok = spec.k0 < spec.k1;
  switch (spec.axis) {
    case Axis::kX:
      ok = ok && spec.i <= grid_.ny() && spec.j <= grid_.nz() && spec.k1 <= grid_.nx();
      break;
    case Axis::kY:
      ok = ok && spec.i <= grid_.nx() && spec.j <= grid_.nz() && spec.k1 <= grid_.ny();
      break;
    case Axis::kZ:
      ok = ok && spec.i <= grid_.nx() && spec.j <= grid_.ny() && spec.k1 <= grid_.nz();
      break;
  }
  if (!ok) throw std::invalid_argument("FdtdSolver: invalid voltage probe span");
  v_probe_specs_.push_back(spec);
  v_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return v_probes_.size() - 1;
}

std::size_t FdtdSolver::addCurrentProbe(const CurrentProbeSpec& spec) {
  bool ok = false;
  switch (spec.axis) {
    case Axis::kX:
      ok = spec.j >= 1 && spec.k >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
    case Axis::kY:
      ok = spec.i >= 1 && spec.k >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
    case Axis::kZ:
      ok = spec.i >= 1 && spec.j >= 1 && spec.i < grid_.nx() && spec.j < grid_.ny() &&
           spec.k < grid_.nz();
      break;
  }
  if (!ok)
    throw std::invalid_argument("FdtdSolver: current probe edge must be interior");
  i_probe_specs_.push_back(spec);
  i_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return i_probes_.size() - 1;
}

NtffRecorder* FdtdSolver::addNtffSurface(const NtffSpec& spec) {
  if (started_) throw std::logic_error("FdtdSolver: cannot add NTFF surface after start");
  ntff_.push_back(std::make_unique<NtffRecorder>(&grid_, spec));
  return ntff_.back().get();
}

std::size_t FdtdSolver::addFieldProbe(const FieldProbeSpec& spec) {
  if (spec.i > grid_.nx() || spec.j > grid_.ny() || spec.k > grid_.nz())
    throw std::invalid_argument("FdtdSolver: invalid field probe");
  f_probe_specs_.push_back(spec);
  f_probes_.emplace_back(0.0, grid_.dt(), Vector{});
  return f_probes_.size() - 1;
}

double FdtdSolver::totalE(Axis axis, std::size_t i, std::size_t j, std::size_t k,
                          double t) const {
  double e = 0.0;
  switch (axis) {
    case Axis::kX: e = grid_.ex(i, j, k); break;
    case Axis::kY: e = grid_.ey(i, j, k); break;
    case Axis::kZ: e = grid_.ez(i, j, k); break;
  }
  if (incident_) {
    double x, y, z;
    grid_.edgeCenter(axis, i, j, k, x, y, z);
    e += incident_->field(axis, x, y, z, t);
  }
  return e;
}

void FdtdSolver::updateH() {
  Grid3& g = grid_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double chx = g.dt() / kMu0;
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  for (std::size_t i = 0; i <= nx; ++i)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t k = 0; k < nz; ++k) {
        g.hx(i, j, k) -= chx * ((g.ez(i, j + 1, k) - g.ez(i, j, k)) * idy -
                                (g.ey(i, j, k + 1) - g.ey(i, j, k)) * idz);
      }
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j <= ny; ++j)
      for (std::size_t k = 0; k < nz; ++k) {
        g.hy(i, j, k) -= chx * ((g.ex(i, j, k + 1) - g.ex(i, j, k)) * idz -
                                (g.ez(i + 1, j, k) - g.ez(i, j, k)) * idx_);
      }
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t k = 0; k <= nz; ++k) {
        g.hz(i, j, k) -= chx * ((g.ey(i + 1, j, k) - g.ey(i, j, k)) * idx_ -
                                (g.ex(i, j + 1, k) - g.ex(i, j, k)) * idy);
      }
}

void FdtdSolver::updateE() {
  Grid3& g = grid_;
  const std::size_t nx = g.nx(), ny = g.ny(), nz = g.nz();
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  const std::vector<double>& ca_ex = g.caEx();
  const std::vector<double>& cb_ex = g.cbEx();
  const std::vector<double>& ca_ey = g.caEy();
  const std::vector<double>& cb_ey = g.cbEy();
  const std::vector<double>& ca_ez = g.caEz();
  const std::vector<double>& cb_ez = g.cbEz();

  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 1; j < ny; ++j)
      for (std::size_t k = 1; k < nz; ++k) {
        const std::size_t id = g.idx(i, j, k);
        const double curl = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * idy -
                            (g.hy(i, j, k) - g.hy(i, j, k - 1)) * idz;
        g.exData()[id] = ca_ex[id] * g.exData()[id] + cb_ex[id] * curl;
      }
  for (std::size_t i = 1; i < nx; ++i)
    for (std::size_t j = 0; j < ny; ++j)
      for (std::size_t k = 1; k < nz; ++k) {
        const std::size_t id = g.idx(i, j, k);
        const double curl = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * idz -
                            (g.hz(i, j, k) - g.hz(i - 1, j, k)) * idx_;
        g.eyData()[id] = ca_ey[id] * g.eyData()[id] + cb_ey[id] * curl;
      }
  for (std::size_t i = 1; i < nx; ++i)
    for (std::size_t j = 1; j < ny; ++j)
      for (std::size_t k = 0; k < nz; ++k) {
        const std::size_t id = g.idx(i, j, k);
        const double curl = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * idx_ -
                            (g.hx(i, j, k) - g.hx(i, j - 1, k)) * idy;
        g.ezData()[id] = ca_ez[id] * g.ezData()[id] + cb_ez[id] * curl;
      }
}

void FdtdSolver::applyIncidentMaterialCorrections(double t_half) {
  if (!incident_) return;
  const GaussianPulse& pulse = incident_->pulse();
  std::vector<double>* fields[3] = {&grid_.exData(), &grid_.eyData(), &grid_.ezData()};
  for (int c = 0; c < 3; ++c) {
    std::vector<double>& f = *fields[c];
    const std::vector<MatIncident>& table = mat_incident_[c];
    const IndexRange active = supportWindow(table, pulse, t_half);
    for (std::size_t n = active.first; n < active.last; ++n) {
      const MatIncident& m = table[n];
      const double xi = t_half - m.delay;
      // E_s update gains -cb * [(eps-eps0) dEi/dt + sigma Ei].
      f[m.id] -= m.cb_deps * m.amp * pulse.dg(xi) + m.cb_sigma * m.amp * pulse.g(xi);
    }
  }
}

void FdtdSolver::applyPecEdges(double t_new) {
  std::vector<double>* fields[3] = {&grid_.exData(), &grid_.eyData(), &grid_.ezData()};
  // Zero every PEC edge (this also restores 0 on edges the pulse has
  // left), then subtract the incident field where the pulse and the
  // polarization reach.
  for (const Grid3::PecEdge& e : grid_.pecEdges()) {
    (*fields[static_cast<int>(e.axis)])[grid_.idx(e.i, e.j, e.k)] = 0.0;
  }
  if (!incident_) return;
  const GaussianPulse& pulse = incident_->pulse();
  for (int c = 0; c < 3; ++c) {
    std::vector<double>& f = *fields[c];
    const std::vector<PecIncident>& table = pec_incident_[c];
    const IndexRange active = supportWindow(table, pulse, t_new);
    for (std::size_t n = active.first; n < active.last; ++n) {
      const PecIncident& p = table[n];
      f[p.id] = -p.amp * pulse.g(t_new - p.delay);
    }
  }
}

void FdtdSolver::solvePorts(double t_new, double t_half) {
  Grid3& g = grid_;
  const double idx_ = 1.0 / g.dx(), idy = 1.0 / g.dy(), idz = 1.0 / g.dz();
  for (auto& pp : ports_) {
    LumpedPort& port = *pp;
    const std::size_t i = port.spec_.i, j = port.spec_.j, k = port.spec_.k;
    const Axis axis = port.spec_.axis;
    const double s = static_cast<double>(port.spec_.sign);

    // Port-axis component of curl(H_s) at the port edge, time n+1/2.
    double w = 0.0;
    switch (axis) {
      case Axis::kX:
        w = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * idy -
            (g.hy(i, j, k) - g.hy(i, j, k - 1)) * idz;
        break;
      case Axis::kY:
        w = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * idz -
            (g.hz(i, j, k) - g.hz(i - 1, j, k)) * idx_;
        break;
      case Axis::kZ:
        w = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * idx_ -
            (g.hx(i, j, k) - g.hx(i, j - 1, k)) * idy;
        break;
    }
    double ei_new = 0.0;
    if (incident_) {
      const GaussianPulse& pulse = incident_->pulse();
      const double amp = incident_->polarization(axis) * incident_->amplitude();
      // eps0 dEi/dt contribution of Eq. (8), evaluated at n+1/2.
      w += kEps0 * amp * pulse.dg(t_half - port.inc_delay_);
      ei_new = amp * pulse.g(t_new - port.inc_delay_);
    }

    const double rhs = port.alpha1_ * port.v_total_ + port.alpha2_ * w -
                       port.alpha3_ * s * port.i_prev_;
    double v = port.v_total_;  // warm start from the previous step
    PortModel& dev = *port.model_;
    NewtonOptions nopt;
    nopt.tolerance = opt_.newton_tolerance;
    nopt.max_iterations = opt_.max_newton_iterations;
    auto f = [&](double vx, double& df) {
      double didv = 0.0;
      const double idev = dev.current(s * vx, t_new, didv);
      df = port.alpha0_ + port.alpha3_ * didv;
      return port.alpha0_ * vx + port.alpha3_ * s * idev - rhs;
    };
    const NewtonResult nr = newtonScalar(f, v, nopt);
    if (!nr.converged)
      throw std::runtime_error("FdtdSolver: port '" + port.spec_.label +
                               "' Newton solve did not converge");
    port.max_newton_ = std::max(port.max_newton_, nr.iterations);
    port.total_newton_ += nr.iterations;

    double didv = 0.0;
    const double i_dev = dev.current(s * v, t_new, didv);
    dev.commit(s * v, t_new);
    port.i_prev_ = i_dev;
    port.v_total_ = v;
    // Write back the scattered field: E_s = v_total/d - E_i.
    const double es = v / port.d_axis_ - ei_new;
    switch (axis) {
      case Axis::kX: g.ex(i, j, k) = es; break;
      case Axis::kY: g.ey(i, j, k) = es; break;
      case Axis::kZ: g.ez(i, j, k) = es; break;
    }

    port.v_rec_.push(s * v);
    port.i_rec_.push(i_dev);
  }
}

void FdtdSolver::recordProbes() {
  const double t = time();
  for (std::size_t p = 0; p < v_probe_specs_.size(); ++p) {
    const VoltageProbeSpec& spec = v_probe_specs_[p];
    double acc = 0.0;
    double d = grid_.dz();
    for (std::size_t u = spec.k0; u < spec.k1; ++u) {
      switch (spec.axis) {
        case Axis::kX:
          acc += totalE(Axis::kX, u, spec.i, spec.j, t);
          d = grid_.dx();
          break;
        case Axis::kY:
          acc += totalE(Axis::kY, spec.i, u, spec.j, t);
          d = grid_.dy();
          break;
        case Axis::kZ:
          acc += totalE(Axis::kZ, spec.i, spec.j, u, t);
          d = grid_.dz();
          break;
      }
    }
    v_probes_[p].push(static_cast<double>(spec.sign) * acc * d);
  }
  for (std::size_t p = 0; p < f_probe_specs_.size(); ++p) {
    const FieldProbeSpec& spec = f_probe_specs_[p];
    f_probes_[p].push(totalE(spec.axis, spec.i, spec.j, spec.k, t));
  }
  for (std::size_t p = 0; p < i_probe_specs_.size(); ++p) {
    const CurrentProbeSpec& spec = i_probe_specs_[p];
    const Grid3& g = grid_;
    const std::size_t i = spec.i, j = spec.j, k = spec.k;
    // Ampere loop of the scattered H around the edge (the incident H
    // carries no net current: it is source-free in vacuum).
    double cur = 0.0;
    switch (spec.axis) {
      case Axis::kX:
        cur = (g.hz(i, j, k) - g.hz(i, j - 1, k)) * g.dz() +
              (g.hy(i, j, k - 1) - g.hy(i, j, k)) * g.dy();
        break;
      case Axis::kY:
        cur = (g.hx(i, j, k) - g.hx(i, j, k - 1)) * g.dx() +
              (g.hz(i - 1, j, k) - g.hz(i, j, k)) * g.dz();
        break;
      case Axis::kZ:
        cur = (g.hy(i, j, k) - g.hy(i - 1, j, k)) * g.dy() +
              (g.hx(i, j - 1, k) - g.hx(i, j, k)) * g.dx();
        break;
    }
    i_probes_[p].push(cur);
  }
}

void FdtdSolver::stepOnce() {
  if (!started_) {
    started_ = true;
    for (auto& p : ports_) {
      // Here, not in addLumpedPort, so the attach order of ports and wave
      // does not matter.
      const LumpedPortSpec& ps = p->spec_;
      if (incident_) p->inc_delay_ = incidentDelay(ps.axis, ps.i, ps.j, ps.k);
      p->model_->prepare(grid_.dt());
      p->v_rec_ = Waveform(grid_.dt(), grid_.dt(), Vector{});
      p->i_rec_ = Waveform(grid_.dt(), grid_.dt(), Vector{});
    }
    for (std::size_t p = 0; p < v_probes_.size(); ++p)
      v_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
    for (std::size_t p = 0; p < f_probes_.size(); ++p)
      f_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
    for (std::size_t p = 0; p < i_probes_.size(); ++p)
      i_probes_[p] = Waveform(grid_.dt(), grid_.dt(), Vector{});
  }
  const double dt = grid_.dt();
  const double t_new = static_cast<double>(step_ + 1) * dt;
  const double t_half = (static_cast<double>(step_) + 0.5) * dt;

  updateH();
  if (cpml_) cpml_->updateHCorrections();
  if (mur_) mur_->snapshot();
  updateE();
  if (cpml_) cpml_->updateECorrections();
  applyIncidentMaterialCorrections(t_half);
  if (mur_) {
    mur_->apply();
  } else {
    cpml_->applyPecBacking();
  }
  applyPecEdges(t_new);
  solvePorts(t_new, t_half);
  ++step_;
  recordProbes();
  for (auto& rec : ntff_) rec->accumulate(time());
}

void FdtdSolver::run(std::size_t n_steps) {
  for (std::size_t s = 0; s < n_steps; ++s) stepOnce();
}

void FdtdSolver::runUntil(double t_stop) {
  while (time() < t_stop) stepOnce();
}

const Waveform& FdtdSolver::voltageProbe(std::size_t index) const {
  if (index >= v_probes_.size())
    throw std::out_of_range("FdtdSolver::voltageProbe: bad index");
  return v_probes_[index];
}

const Waveform& FdtdSolver::fieldProbe(std::size_t index) const {
  if (index >= f_probes_.size())
    throw std::out_of_range("FdtdSolver::fieldProbe: bad index");
  return f_probes_[index];
}

const Waveform& FdtdSolver::currentProbe(std::size_t index) const {
  if (index >= i_probes_.size())
    throw std::out_of_range("FdtdSolver::currentProbe: bad index");
  return i_probes_[index];
}

int FdtdSolver::maxNewtonIterations() const {
  int m = 0;
  for (const auto& p : ports_) m = std::max(m, p->maxNewtonIterations());
  return m;
}

}  // namespace fdtdmm
