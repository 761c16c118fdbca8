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

void rejectStaticRhs(const Vector& b) {
  for (double v : b) {
    if (v != 0.0)
      throw std::logic_error(
          "runTransient: stampStatic wrote to the RHS; move that "
          "contribution into stampDynamic");
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

void SolverSession::assembleStatic(double* t_static, obs::RunTelemetry* tel) {
  // One-time assembly of the static (topology + dt) part of the MNA matrix
  // into a CSR base whose finalize() fixes the symbolic pattern.
  obs::ScopedTimer stamp_static_timer(t_static);
  StampSystem base;
  base_sp_.reset(n_unknowns_);
  base.sparse = &base_sp_;
  base.b.assign(n_unknowns_, 0.0);
  for (auto& e : circuit_.elements()) e->stampStatic(base, opt_.dt);
  rejectStaticRhs(base.b);
  base_sp_.finalize();

  // Resolve the pattern's RCM ordering once for the whole run. With
  // sharing, the first run of a structure class computes and publishes it
  // and every other run checks it out.
  symbolic_ = resolveSymbolic(opt_.sharing, base_sp_, tel);
  order_ = &symbolic_->rcm_order;
}

void SolverSession::realignPattern(obs::RunTelemetry* tel) {
  // A dynamic stamp hit a structurally-new entry: widen the working
  // pattern once and keep the cached base aligned so the in-place value
  // refresh stays a straight copy. A base factorization that already ran
  // remains numerically valid (the new entries are zero there); every
  // later factorization uses the grown pattern's own ordering.
  work_sp_.mergeOverflow();
  base_sp_.adoptPatternOf(work_sp_);
  grown_order_ = reverseCuthillMcKee(work_sp_);
  order_ = &grown_order_;
  if (tel) {
    ++tel->rcm_orderings;
    ++tel->pattern_realignments;
  }
  obs::traceInstant("sparse_pattern_realign", "solver");
}

void SolverSession::collectEndOfRunHealth(const obs::HealthOptions& hopt,
                                          obs::NumericalHealth& h, bool any_solve) {
  // Relative residual of the last solve: x_new_ is the raw solution of the
  // final Newton iteration (before damping clamps), and sys_.b / work_sp_
  // are exactly the system it solved — work_sp_ holds base or dirtied
  // values matching whichever factorization ran.
  if (any_solve) {
    double b_inf = 0.0;
    for (double v : sys_.b) b_inf = std::max(b_inf, std::abs(v));
    double r_inf = 0.0;
    const auto& row_ptr = work_sp_.rowPtr();
    const auto& col_idx = work_sp_.colIdx();
    const auto& values = work_sp_.values();
    for (std::size_t r = 0; r < n_unknowns_; ++r) {
      double acc = -sys_.b[r];
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
        acc += values[k] * x_new_[col_idx[k]];
      r_inf = std::max(r_inf, std::abs(acc));
    }
    h.collected = true;
    ++h.residual_checks;
    h.max_relative_residual =
        std::max(h.max_relative_residual, r_inf / (b_inf > 0.0 ? b_inf : 1.0));
  }

  // Hager 1-norm condition estimate on whichever factorization is cached —
  // a handful of O(n b) substitutions, never a refactorization. The base
  // factorization is preferred (it is the matrix the run solved with on
  // every clean iteration); a run that never factored a base (every
  // iteration dirtied) estimates on its last work factorization instead.
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

TransientResult SolverSession::run(const std::vector<NodeProbe>& probes,
                                   const std::vector<BranchProbe>& branch_probes) {
  validateProbes(probes, branch_probes);

  n_unknowns_ = circuit_.assignUnknowns();
  auto& elements = circuit_.elements();
  for (auto& e : elements) e->begin(opt_.dt);

  // Telemetry sinks: null pointers when no sink is attached, so every
  // ScopedTimer below degenerates to a single branch (the disabled-span
  // contract of obs/counters.h). The trace span brackets the whole run and
  // is independently gated on an active TraceWriter.
  obs::RunTelemetry* const tel = opt_.telemetry;
  // Health collection (obs/health.h): the per-run options win when their
  // collect flag is set; otherwise a sweep-wide block pointed at by
  // sharing.health applies. The record lives inside the telemetry sink, so
  // collection additionally requires telemetry — `health` is null (one
  // branch per site) in every other case.
  const obs::HealthOptions* h_opt =
      opt_.health.collect
          ? &opt_.health
          : (opt_.sharing.health && opt_.sharing.health->collect ? opt_.sharing.health
                                                                 : nullptr);
  obs::NumericalHealth* const health = tel && h_opt ? &tel->health : nullptr;
  double* const t_static = tel ? &tel->phases.stamp_static_seconds : nullptr;
  double* const t_factor = tel ? &tel->phases.factor_seconds : nullptr;
  double* const t_rhs = tel ? &tel->phases.rhs_stamp_seconds : nullptr;
  double* const t_solve = tel ? &tel->phases.solve_seconds : nullptr;
  double* const t_newton = tel ? &tel->phases.newton_seconds : nullptr;
  obs::TraceSpan run_span("transient", "solver");

  TransientResult result;
  std::vector<Vector> probe_data(probes.size());
  std::vector<Vector> branch_data(branch_probes.size());

  assembleStatic(t_static, tel);
  // Per-run workspaces, allocated once: the Newton loop below only reuses
  // this storage (value copies, vector assign).
  x_.assign(n_unknowns_, 0.0);
  x_new_.assign(n_unknowns_, 0.0);
  sys_.b.assign(n_unknowns_, 0.0);
  work_sp_ = base_sp_;
  sys_.sparse = &work_sp_;

  // base_lu_: the untouched static matrix, factored lazily on the first
  // Newton iteration whose dynamic stamps leave the matrix clean (lazily so
  // circuits whose base matrix alone is singular — e.g. a node held up
  // only by a nonlinear device — still work). work_lu_: refactored in
  // place on every iteration that dirties the matrix. Both use the run's
  // ordering.

  const auto n_settle = static_cast<long long>(std::ceil(opt_.settle_time / opt_.dt));
  const auto n_run = static_cast<long long>(std::ceil(opt_.t_stop / opt_.dt));

  // |dx| per Newton iteration of the current step, kept only under health
  // collection (cleared per step, storage reused across the run).
  std::vector<double> newton_traj;

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

    // Newton iteration: repeatedly solve the linearized MNA system. The
    // newton phase times the loop only (endStep/probe recording is the
    // run's residual time, not part of any phase).
    int it = 0;
    bool step_converged = false;
    if (health) newton_traj.clear();
    const auto newton_begin =
        t_newton ? obs::ScopedTimer::Clock::now() : obs::ScopedTimer::Clock::time_point{};
    for (; it < opt_.max_newton_iterations; ++it) {
      {
        obs::ScopedTimer rhs_timer(t_rhs);
        if (matrix_was_dirtied_) {
          work_sp_.setValuesFrom(base_sp_);
          matrix_was_dirtied_ = false;
        }
        sys_.b.assign(n_unknowns_, 0.0);
        sys_.matrix_dirty = false;
        for (auto& e : elements) e->stampDynamic(sys_, x_, t_new, opt_.dt);
      }
      if (work_sp_.patternGrown()) realignPattern(tel);
      if (sys_.matrix_dirty) {
        matrix_was_dirtied_ = true;
        {
          obs::ScopedTimer factor_timer(t_factor);
          work_lu_.factorWithOrder(work_sp_, *order_);
        }
        ++result.lu_factorizations;
        last_lu_ = &work_lu_;
        if (health)
          health->recordFactorization(work_lu_.minAbsPivot(), work_lu_.pivotGrowth());
        obs::ScopedTimer solve_timer(t_solve);
        work_lu_.solve(sys_.b, x_new_);
      } else {
        if (!base_lu_.factored()) {
          // work_sp_ holds the untouched base values here.
          {
            obs::ScopedTimer factor_timer(t_factor);
            base_lu_.factorWithOrder(work_sp_, *order_);
          }
          ++result.lu_factorizations;
          if (health)
            health->recordFactorization(base_lu_.minAbsPivot(), base_lu_.pivotGrowth());
        }
        last_lu_ = &base_lu_;
        obs::ScopedTimer solve_timer(t_solve);
        base_lu_.solve(sys_.b, x_new_);
      }

      double max_dx = 0.0;
      for (std::size_t k = 0; k < n_unknowns_; ++k) {
        double dxk = x_new_[k] - x_[k];
        if (!std::isfinite(dxk))
          throw std::runtime_error("runTransient: Newton diverged (non-finite update)");
        if (opt_.max_delta_v > 0.0) dxk = std::clamp(dxk, -opt_.max_delta_v, opt_.max_delta_v);
        x_[k] += dxk;
        max_dx = std::max(max_dx, std::abs(dxk));
      }
      if (health) newton_traj.push_back(max_dx);
      if (max_dx <= opt_.v_tolerance) {
        step_converged = true;
        ++it;
        break;
      }
    }
    if (t_newton) {
      *t_newton += std::chrono::duration<double>(obs::ScopedTimer::Clock::now() -
                                                 newton_begin)
                       .count();
    }
    if (!step_converged) result.converged = false;
    if (health) {
      // Cap hit with a still-shrinking update = stagnated (limped, warn);
      // with a growing update = diverged-in-slow-motion (critical; the
      // fast kind threw non-finite above).
      const obs::NewtonOutcome outcome =
          step_converged ? obs::NewtonOutcome::kConverged
          : (newton_traj.size() >= 2 && newton_traj.back() > newton_traj.front())
              ? obs::NewtonOutcome::kDiverged
              : obs::NewtonOutcome::kStagnated;
      health->recordNewtonStep(newton_traj, outcome);
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

  // Structural size of the system this run factored last: what its LU
  // and substitution costs scale with (O(n b^2) and O(n b)).
  obs::StructureSize size;
  size.unknowns = static_cast<long long>(n_unknowns_);
  size.nonzeros = static_cast<long long>(work_sp_.nonZeros());
  if (last_lu_ != nullptr) {
    size.kl = static_cast<long long>(last_lu_->lowerBandwidth());
    size.ku = static_cast<long long>(last_lu_->upperBandwidth());
  }
  if (tel) {
    tel->lu_factorizations += result.lu_factorizations;
    tel->newton_iterations += result.total_newton_iterations;
    tel->max_newton_iterations =
        std::max(tel->max_newton_iterations, result.max_newton_iterations);
    tel->steps += static_cast<long long>(result.steps);
    ++tel->transient_runs;
    tel->rcm_orderings += static_cast<long long>(base_lu_.orderingsComputed() +
                                                 work_lu_.orderingsComputed());
    tel->structure.mergeMax(size);
  }
  if (health) {
    collectEndOfRunHealth(*h_opt, *health, result.total_newton_iterations > 0);
    obs::gradeHealth(*health, h_opt->thresholds);
  }
  run_span.setArgs("\"unknowns\": " + std::to_string(size.unknowns) +
                   ", \"nonzeros\": " + std::to_string(size.nonzeros) +
                   ", \"kl\": " + std::to_string(size.kl) +
                   ", \"ku\": " + std::to_string(size.ku) +
                   ", \"steps\": " + std::to_string(result.steps) +
                   ", \"lu_factorizations\": " + std::to_string(result.lu_factorizations) +
                   ", \"newton_iterations\": " + std::to_string(result.total_newton_iterations));
  return result;
}

}  // namespace fdtdmm
