#include "circuit/solver_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>

#include "obs/counters.h"
#include "obs/trace.h"

namespace fdtdmm {

namespace {

double nodeVoltage(const Vector& x, int n) {
  return n == 0 ? 0.0 : x[static_cast<std::size_t>(n - 1)];
}

std::size_t unknownOf(int node) {
  return node == 0 ? kGroundUnknown : static_cast<std::size_t>(node - 1);
}

double maxAbs(const Vector& v) {
  double m = 0.0;
  for (double d : v) m = std::max(m, std::abs(d));
  return m;
}

double maxAbsDiff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) m = std::max(m, std::abs(a[k] - b[k]));
  return m;
}

// False when x holds a NaN or an infinity (either turns the sum to NaN).
bool allFinite(const Vector& x) {
  double acc = 0.0;
  for (double v : x) acc += v * 0.0;
  return acc == 0.0;
}

void rejectStaticRhs(const Vector& b) {
  for (double v : b) {
    if (v != 0.0)
      throw std::logic_error(
          "runTransient: stampStatic wrote to the RHS; move that "
          "contribution into stampRhs");
  }
}

}  // namespace

SolverSession::SolverSession(Circuit& circuit, const TransientOptions& opt)
    : circuit_(circuit), opt_(opt) {
  if (opt_.dt <= 0.0) throw std::invalid_argument("runTransient: dt must be > 0");
  if (opt_.t_stop <= 0.0) throw std::invalid_argument("runTransient: t_stop must be > 0");
  if (opt_.settle_time < 0.0) throw std::invalid_argument("runTransient: settle_time < 0");
}

void SolverSession::validateProbes(const std::vector<NodeProbe>& probes,
                                   const std::vector<BranchProbe>& branch_probes) const {
  for (const auto& p : probes) {
    if (p.n1 < 0 || p.n1 > circuit_.nodeCount() || p.n2 < 0 || p.n2 > circuit_.nodeCount())
      throw std::invalid_argument("runTransient: probe node out of range");
  }
  for (const auto& p : branch_probes) {
    if (p.source == nullptr)
      throw std::invalid_argument("runTransient: branch probe without source");
  }
  // Probe labels key the result map; a collision (including a branch probe
  // shadowing a node probe) would silently drop a waveform.
  std::set<std::string> labels;
  for (const auto& p : probes) {
    if (!labels.insert(p.label).second)
      throw std::invalid_argument("runTransient: duplicate probe label '" + p.label + "'");
  }
  for (const auto& p : branch_probes) {
    if (!labels.insert(p.label).second)
      throw std::invalid_argument("runTransient: duplicate probe label '" + p.label + "'");
  }
}

void SolverSession::collectPorts() {
  std::size_t g = 0;
  for (const auto& e : circuit_.elements()) {
    const std::vector<TerminalPair>& ports = e->ports();
    if (ports.empty()) continue;
    devices_.push_back({e.get(), port_unknowns_.size(), ports.size(), g});
    g += ports.size() * ports.size();
    for (const TerminalPair& p : ports) port_unknowns_.push_back({unknownOf(p.pos), unknownOf(p.neg)});
  }
  const std::size_t k = port_unknowns_.size();
  for (Vector* v : {&v_, &v_oc_, &i_, &dv_, &i_lin_, &i_lin_next_, &i_drawn_, &di_})
    v->assign(k, 0.0);
  g_.assign(g, 0.0);
  gk_.assign(k * k, 0.0);
}

void SolverSession::assembleStatic(double* t_static, obs::RunTelemetry* tel) {
  // One-time assembly of the static (topology + dt) part of the MNA
  // matrix, with every port stencil reserved as structural zeros so the
  // port linearizations of the refactoring path land inside the pattern.
  // The checkout leaves base_sp_ finalized on the class pattern (compiled
  // here, or by the class's first run) with zero values; the values pass
  // below stamps into it in element order.
  obs::ScopedTimer stamp_static_timer(t_static);
  StampSystem base;
  const auto stamp = [&](SparseMatrix& target) {
    base.csr = &target;
    base.b.assign(n_unknowns_, 0.0);
    for (auto& e : circuit_.elements()) {
      e->stampStatic(base, opt_.dt);
      e->reservePortStencil(base);
    }
  };
  symbolic_ = resolveSymbolic<double>(opt_.sharing, circuit_, SolverEngine::kTransientBase,
                                      n_unknowns_, stamp, base_sp_, tel);
  stamp(base_sp_);
  rejectStaticRhs(base.b);
}

void SolverSession::collectEndOfRunHealth(const obs::HealthOptions& hopt,
                                          obs::NumericalHealth& h, bool any_solve) {
  // Relative residual of the final solution against the system its last
  // iteration solved: the base plus the port laws linearized at the last
  // evaluation point. Restamped about the final port voltages with the
  // iterate's port currents, which is the same system: the residual
  // current i_lin - g v equals i - g v_eval.
  if (any_solve) {
    work_sp_.setValuesFrom(base_sp_);
    std::copy(b_.begin(), b_.end(), sys_.b.begin());
    for (const Device& d : devices_)
      d.element->stampPortLinearization(sys_, v_.data() + d.port, i_lin_.data() + d.port,
                                        g_.data() + d.g);
    h.recordResidual(obs::relativeResidual(work_sp_, x_, sys_.b));
  }

  // Hager 1-norm condition estimate on whichever factorization is cached —
  // a handful of O(n b) substitutions, never a refactorization. The base
  // factorization is preferred (every substitution and every port solve
  // ran on it); a run that never factored a base (too many ports, or a
  // singular base) estimates on its last work factorization instead.
  if (!hopt.condition_estimate) return;
  const BandedLu<double>* lu = nullptr;
  double norm_a = 0.0;
  if (base_lu_.factored()) {
    lu = &base_lu_;
    norm_a = obs::matrixNorm1(base_sp_);
  } else if (work_lu_.factored()) {
    lu = &work_lu_;
    norm_a = obs::matrixNorm1(work_sp_);
  }
  if (lu == nullptr) return;
  const obs::SolveFn solve = [lu](const Vector& b, Vector& x) { lu->solve(b, x); };
  const obs::SolveFn solve_t = [lu](const Vector& b, Vector& x) {
    lu->solveTranspose(b, x);
  };
  const double inv_norm = obs::estimateInverseNorm1(n_unknowns_, solve, solve_t);
  h.collected = true;
  ++h.condition_estimates;
  h.max_condition_estimate = std::max(h.max_condition_estimate, norm_a * inv_norm);
}

void SolverSession::factorBase(TransientResult& result) {
  {
    obs::ScopedTimer factor_timer(t_factor_);
    base_lu_.factorWithOrder(base_sp_, symbolic_->rcm_order);
  }
  ++result.lu_factorizations;
  if (health_)
    health_->recordFactorization(base_lu_.minAbsPivot(), base_lu_.pivotGrowth(base_sp_));
}

void SolverSession::prepareSolve(TransientResult& result) {
  prepared_ = true;
  const std::size_t k = port_unknowns_.size();
  if (k > kMaxUpdateRank) {  // (a)
    refactor_ = true;
    return;
  }
  // Lazily, and only now, so that a circuit whose base alone is singular
  // (a node held up only by a nonlinear device) still runs, on (b).
  try {
    factorBase(result);
  } catch (const std::runtime_error&) {
    if (k == 0) throw;
    refactor_ = true;  // (b)
    return;
  }
  obs::ScopedTimer solve_timer(t_solve_);
  reduction_.setPorts(port_unknowns_);
}

void SolverSession::evalPorts(double t_new) {
  for (const Device& d : devices_)
    d.element->evalPorts(v_.data() + d.port, t_new, i_.data() + d.port, g_.data() + d.g);
}

void SolverSession::refactorSolve(TransientResult& result) {
  work_sp_.setValuesFrom(base_sp_);
  std::copy(b_.begin(), b_.end(), sys_.b.begin());
  for (const Device& d : devices_)
    d.element->stampPortLinearization(sys_, v_.data() + d.port, i_.data() + d.port,
                                      g_.data() + d.g);
  {
    obs::ScopedTimer factor_timer(t_factor_);
    work_lu_.factorWithOrder(work_sp_, symbolic_->rcm_order);
  }
  ++result.lu_factorizations;
  last_lu_ = &work_lu_;
  if (health_)
    health_->recordFactorization(work_lu_.minAbsPivot(), work_lu_.pivotGrowth(work_sp_));
  obs::ScopedTimer solve_timer(t_solve_);
  work_lu_.solve(sys_.b, x_new_);
}

int SolverSession::solveTimePoint(double t_new, TransientResult& result, bool& converged) {
  const std::size_t k = port_unknowns_.size();
  const double tol = opt_.v_tolerance;
  // Newton on the port voltages starts from those of the previous
  // solution, where the laws are evaluated first.
  for (std::size_t p = 0; p < k; ++p) v_[p] = portVoltage(x_, port_unknowns_[p]);
  if (k > 0) evalPorts(t_new);
  if (!refactor_) {
    // y = A0^-1 (b - P i_drawn): the network's response with the port
    // currents of that first evaluation drawn, and v_oc its port voltages.
    obs::ScopedTimer solve_timer(t_solve_);
    std::copy(b_.begin(), b_.end(), y_.begin());
    for (std::size_t p = 0; p < k; ++p) {
      const PortUnknowns& pu = port_unknowns_[p];
      if (pu.pos != kGroundUnknown) y_[pu.pos] -= i_[p];
      if (pu.neg != kGroundUnknown) y_[pu.neg] += i_[p];
    }
    i_drawn_ = i_;
    reduction_.openCircuit(y_, y_, v_oc_.data());
    last_lu_ = &base_lu_;
  }
  if (k == 0) {  // a linear circuit: y is the solution
    std::swap(x_, y_);
    if (health_) newton_traj_.push_back(0.0);
    converged = true;
    return 1;
  }
  // x = y - Z (i - i_drawn) for the port currents i.
  const auto recover = [&](const Vector& i, Vector& x) {
    obs::ScopedTimer solve_timer(t_solve_);
    for (std::size_t p = 0; p < k; ++p) di_[p] = i[p] - i_drawn_[p];
    reduction_.recover(y_, di_.data(), x);
  };

  // An iterate is the network's exact response to the port currents of
  // the laws linearized at v_, so it is accepted on its largest unknown
  // update, as long as neither it nor the iterate before it was limited
  // (a limited step leaves v_ off the iterate's own port voltages).
  // x_cmp is the previous iterate where it was formed (at first the
  // previous time point's solution), null after a port solve.
  const Vector* x_cmp = &x_;
  bool was_limited = false;
  bool was_unrecoverable = false;  // the previous iterate cannot be formed
  int it = 0;
  const auto limits = [&](double dv_max) {
    return opt_.max_delta_v > 0.0 && dv_max > opt_.max_delta_v;
  };
  for (; it < opt_.max_newton_iterations; ++it) {
    if (it > 0) evalPorts(t_new);
    PortSolve outcome = PortSolve::kCancelled;
    if (!refactor_) {
      // (I + Zp G) dv = v_oc - v - Zp (i - i_drawn), G block-diagonal by
      // device.
      std::fill(gk_.begin(), gk_.end(), 0.0);
      for (const Device& d : devices_) {
        for (std::size_t p = 0; p < d.k; ++p) {
          for (std::size_t q = 0; q < d.k; ++q)
            gk_[(d.port + p) * k + d.port + q] = g_[d.g + p * d.k + q];
        }
      }
      for (std::size_t p = 0; p < k; ++p) {
        double r = v_oc_[p] - v_[p];
        for (std::size_t q = 0; q < k; ++q) r -= reduction_.impedance(p, q) * (i_[q] - i_drawn_[q]);
        dv_[p] = r;
      }
      obs::ScopedTimer solve_timer(t_solve_);
      outcome = reduction_.solvePorts(gk_.data(), dv_.data());
    }
    // An iterate that cannot be accepted (its step is limited, or it
    // follows a limited one) is never recovered, so a port step whose
    // recovery would cancel still serves it; it typically lands a junction
    // a whole max_delta_v past its knee.
    double dv_max = outcome == PortSolve::kCancelled ? 0.0 : maxAbs(dv_);
    const bool reduced =
        outcome == PortSolve::kSolved ||
        (outcome == PortSolve::kRecoveryCancels && (was_limited || limits(dv_max)));
    // formed: x_new_ holds this iterate's solution.
    bool formed = !reduced;
    if (reduced) {
      ++result.low_rank_solves;
    } else {
      refactorSolve(result);
      for (std::size_t p = 0; p < k; ++p)
        dv_[p] = portVoltage(x_new_, port_unknowns_[p]) - v_[p];
      dv_max = maxAbs(dv_);
    }
    // After an iterate that cannot be formed, only a port solve can
    // measure the update (through the change of the port currents).
    const bool acceptable =
        !was_limited && !limits(dv_max) && !(was_unrecoverable && !reduced);
    for (const Device& d : devices_) {
      for (std::size_t p = 0; p < d.k; ++p) {
        double i = i_[d.port + p];
        for (std::size_t q = 0; q < d.k; ++q) i += g_[d.g + p * d.k + q] * dv_[d.port + q];
        i_lin_next_[d.port + p] = i;
      }
    }

    // The iterate's largest unknown update (just its port step where it
    // cannot be accepted). Between two port solves it is Z times the
    // change of the port currents: bounded through the column maxima of
    // |Z| (exact for one port), and computed exactly only where that bound
    // fails on several ports whose voltages barely moved. Otherwise the two
    // iterates are compared whole, a port iterate formed only once its
    // port voltages moved little enough for that to pass: no node moves by
    // more than tol when no port moves by more than 2 tol.
    double update = 0.0;
    if (!acceptable) {
      update = dv_max;
    } else if (x_cmp == nullptr && reduced) {
      for (std::size_t p = 0; p < k; ++p) {
        di_[p] = i_lin_next_[p] - i_lin_[p];
        update += reduction_.columnMax(p) * std::abs(di_[p]);
      }
      if (update > tol && k > 1 && dv_max <= 2.0 * tol) {
        obs::ScopedTimer solve_timer(t_solve_);
        update = reduction_.maxResponse(di_.data());
      }
    } else {
      if (x_cmp == nullptr) {
        recover(i_lin_, x_iter_);
        x_cmp = &x_iter_;
      }
      if (!formed && dv_max <= 2.0 * tol) {
        recover(i_lin_next_, x_new_);
        formed = true;
      }
      update = formed ? maxAbsDiff(x_new_, *x_cmp) : dv_max;
    }
    if (!std::isfinite(update))
      throw std::runtime_error("runTransient: Newton diverged (non-finite update)");

    const bool limited = limits(dv_max);
    for (std::size_t p = 0; p < k; ++p) {
      if (limited && std::abs(dv_[p]) > opt_.max_delta_v)
        dv_[p] = std::copysign(opt_.max_delta_v, dv_[p]);
      v_[p] += dv_[p];
    }
    std::swap(i_lin_, i_lin_next_);
    if (formed) {
      std::swap(x_iter_, x_new_);
      x_cmp = &x_iter_;
    } else {
      x_cmp = nullptr;
    }
    if (health_) newton_traj_.push_back(update);
    if (acceptable && update <= tol) {
      converged = true;
      ++it;
      break;
    }
    was_limited = limited;
    was_unrecoverable = reduced && outcome == PortSolve::kRecoveryCancels;
  }
  // The accepted (or, at the cap, the last) iterate; none when the cap is
  // zero.
  if (x_cmp == &x_iter_) {
    std::swap(x_, x_iter_);
  } else if (x_cmp == nullptr) {
    recover(i_lin_, x_);
  }
  return it;
}

TransientResult SolverSession::run(const std::vector<NodeProbe>& probes,
                                   const std::vector<BranchProbe>& branch_probes) {
  validateProbes(probes, branch_probes);

  n_unknowns_ = circuit_.assignUnknowns();
  auto& elements = circuit_.elements();
  for (auto& e : elements) e->begin(opt_.dt);
  collectPorts();

  // Telemetry sinks: null pointers when no sink is attached, so every
  // ScopedTimer below degenerates to a single branch (the disabled-span
  // contract of obs/counters.h). The trace span brackets the whole run and
  // is independently gated on an active TraceWriter.
  obs::RunTelemetry* const tel = opt_.telemetry;
  // Health collection (obs/health.h, SolverSharing::healthFor). The record
  // lives inside the telemetry sink, so collection additionally requires
  // telemetry — `health_` is null (one branch per site) in every other
  // case.
  const obs::HealthOptions* h_opt = opt_.sharing.healthFor(opt_.health);
  health_ = tel && h_opt ? &tel->health : nullptr;
  double* const t_static = tel ? &tel->phases.stamp_static_seconds : nullptr;
  t_factor_ = tel ? &tel->phases.factor_seconds : nullptr;
  double* const t_rhs = tel ? &tel->phases.rhs_stamp_seconds : nullptr;
  t_solve_ = tel ? &tel->phases.solve_seconds : nullptr;
  double* const t_newton = tel ? &tel->phases.newton_seconds : nullptr;
  obs::TraceSpan run_span("transient", "solver");

  TransientResult result;
  std::vector<Vector> probe_data(probes.size());
  std::vector<Vector> branch_data(branch_probes.size());

  assembleStatic(t_static, tel);
  // Per-run workspaces, allocated once: the time loop below only reuses
  // this storage.
  for (Vector* v : {&b_, &x_, &x_new_, &x_iter_, &y_, &sys_.b}) v->assign(n_unknowns_, 0.0);
  work_sp_ = base_sp_;
  sys_.csr = &work_sp_;

  const auto n_settle = static_cast<long long>(std::ceil(opt_.settle_time / opt_.dt));
  const auto n_run = static_cast<long long>(std::ceil(opt_.t_stop / opt_.dt));

  auto record = [&](const Vector& sol) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      probe_data[p].push_back(nodeVoltage(sol, probes[p].n1) -
                              nodeVoltage(sol, probes[p].n2));
    }
    for (std::size_t p = 0; p < branch_probes.size(); ++p) {
      branch_data[p].push_back(sol[branch_probes[p].source->branchIndex()]);
    }
  };

  for (long long step = -n_settle; step <= n_run; ++step) {
    const double t_new = static_cast<double>(step) * opt_.dt;
    for (auto& e : elements) e->beginStep(t_new, opt_.dt);

    // The newton phase times the RHS stamp and the solve of the time point
    // (endStep/probe recording is the run's residual time, not part of any
    // phase).
    const auto newton_begin =
        t_newton ? obs::ScopedTimer::Clock::now() : obs::ScopedTimer::Clock::time_point{};
    {
      obs::ScopedTimer rhs_timer(t_rhs);
      std::fill(b_.begin(), b_.end(), 0.0);
      for (auto& e : elements) e->stampRhs(b_, t_new, opt_.dt);
    }
    if (!prepared_) prepareSolve(result);
    bool step_converged = false;
    if (health_) newton_traj_.clear();
    const int it = solveTimePoint(t_new, result, step_converged);
    if (!allFinite(x_))
      throw std::runtime_error("runTransient: Newton diverged (non-finite update)");
    if (t_newton) {
      *t_newton += std::chrono::duration<double>(obs::ScopedTimer::Clock::now() -
                                                 newton_begin)
                       .count();
    }
    if (!step_converged) result.converged = false;
    if (health_) {
      // Cap hit with a still-shrinking update = stagnated (limped, warn);
      // with a growing update = diverged-in-slow-motion (critical; the
      // fast kind threw non-finite above).
      const obs::NewtonOutcome outcome =
          step_converged ? obs::NewtonOutcome::kConverged
          : (newton_traj_.size() >= 2 && newton_traj_.back() > newton_traj_.front())
              ? obs::NewtonOutcome::kDiverged
              : obs::NewtonOutcome::kStagnated;
      health_->recordNewtonStep(newton_traj_, outcome);
    }
    result.max_newton_iterations = std::max(result.max_newton_iterations, it);
    result.total_newton_iterations += it;

    for (auto& e : elements) e->endStep(x_, t_new, opt_.dt);
    if (step >= 0) {
      record(x_);
      ++result.steps;
    }
  }

  for (std::size_t p = 0; p < probes.size(); ++p) {
    result.probes.emplace(probes[p].label, Waveform(0.0, opt_.dt, std::move(probe_data[p])));
  }
  for (std::size_t p = 0; p < branch_probes.size(); ++p) {
    result.probes.emplace(branch_probes[p].label,
                          Waveform(0.0, opt_.dt, std::move(branch_data[p])));
  }

  // Structural size of the factorization this run solved on last (the
  // base, after a substitution or a port solve): what its LU and
  // substitution costs scale with (O(n b^2) and O(n b)).
  obs::StructureSize size;
  size.unknowns = static_cast<long long>(n_unknowns_);
  size.nonzeros = static_cast<long long>(work_sp_.nonZeros());
  if (last_lu_ != nullptr) {
    size.kl = static_cast<long long>(last_lu_->lowerBandwidth());
    size.ku = static_cast<long long>(last_lu_->upperBandwidth());
  }
  if (tel) {
    tel->lu_factorizations += result.lu_factorizations;
    tel->low_rank_solves += result.low_rank_solves;
    tel->newton_iterations += result.total_newton_iterations;
    tel->max_newton_iterations =
        std::max(tel->max_newton_iterations, result.max_newton_iterations);
    tel->steps += static_cast<long long>(result.steps);
    ++tel->transient_runs;
    tel->rcm_orderings += static_cast<long long>(base_lu_.orderingsComputed() +
                                                 work_lu_.orderingsComputed());
    tel->structure.mergeMax(size);
  }
  if (health_) {
    collectEndOfRunHealth(*h_opt, *health_, result.total_newton_iterations > 0);
    obs::gradeHealth(*health_, h_opt->thresholds);
  }
  run_span.setArgs("\"unknowns\": " + std::to_string(size.unknowns) +
                   ", \"nonzeros\": " + std::to_string(size.nonzeros) +
                   ", \"kl\": " + std::to_string(size.kl) +
                   ", \"ku\": " + std::to_string(size.ku) +
                   ", \"steps\": " + std::to_string(result.steps) +
                   ", \"lu_factorizations\": " + std::to_string(result.lu_factorizations) +
                   ", \"low_rank_solves\": " + std::to_string(result.low_rank_solves) +
                   ", \"newton_iterations\": " + std::to_string(result.total_newton_iterations));
  return result;
}

}  // namespace fdtdmm
