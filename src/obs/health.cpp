#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {
namespace obs {

const char* healthSeverityName(HealthSeverity s) {
  switch (s) {
    case HealthSeverity::kOk:
      return "ok";
    case HealthSeverity::kWarn:
      return "warn";
    case HealthSeverity::kCritical:
      return "critical";
  }
  return "ok";
}

void NumericalHealth::recordFactorization(double min_pivot, double growth) {
  collected = true;
  min_abs_pivot =
      factorizations == 0 ? min_pivot : std::min(min_abs_pivot, min_pivot);
  max_pivot_growth = std::max(max_pivot_growth, growth);
  ++factorizations;
}

void NumericalHealth::recordResidual(double relative_residual) {
  collected = true;
  ++residual_checks;
  max_relative_residual = std::max(max_relative_residual, relative_residual);
}

void NumericalHealth::recordNewtonStep(const std::vector<double>& trajectory,
                                       NewtonOutcome outcome) {
  collected = true;
  switch (outcome) {
    case NewtonOutcome::kConverged:
      ++newton_steps_converged;
      break;
    case NewtonOutcome::kStagnated:
      ++newton_steps_stagnated;
      break;
    case NewtonOutcome::kDiverged:
      ++newton_steps_diverged;
      break;
  }
  // "Worst" = most iterations, ties broken by larger final |dx| — the step
  // that fought convergence hardest is the one worth keeping for forensics.
  const bool worse =
      trajectory.size() > worst_newton_trajectory.size() ||
      (trajectory.size() == worst_newton_trajectory.size() &&
       !trajectory.empty() && trajectory.back() > worst_newton_trajectory.back());
  if (worse) {
    const std::size_t keep = std::min(trajectory.size(), kMaxTrajectory);
    worst_newton_trajectory.assign(trajectory.begin(),
                                   trajectory.begin() + static_cast<std::ptrdiff_t>(keep));
  }
}

void NumericalHealth::merge(const NumericalHealth& o) {
  if (!o.collected) return;
  if (!collected) {
    *this = o;
    return;
  }
  severity = std::max(severity, o.severity);
  if (o.factorizations > 0) {
    min_abs_pivot = factorizations == 0 ? o.min_abs_pivot
                                        : std::min(min_abs_pivot, o.min_abs_pivot);
    max_pivot_growth = std::max(max_pivot_growth, o.max_pivot_growth);
    factorizations += o.factorizations;
  }
  condition_estimates += o.condition_estimates;
  max_condition_estimate = std::max(max_condition_estimate, o.max_condition_estimate);
  residual_checks += o.residual_checks;
  max_relative_residual = std::max(max_relative_residual, o.max_relative_residual);
  newton_steps_converged += o.newton_steps_converged;
  newton_steps_stagnated += o.newton_steps_stagnated;
  newton_steps_diverged += o.newton_steps_diverged;
  const auto& t = o.worst_newton_trajectory;
  const bool worse = t.size() > worst_newton_trajectory.size() ||
                     (t.size() == worst_newton_trajectory.size() && !t.empty() &&
                      t.back() > worst_newton_trajectory.back());
  if (worse) worst_newton_trajectory = t;
}

void gradeHealth(NumericalHealth& h, const HealthThresholds& t) {
  if (!h.collected) return;
  HealthSeverity s = h.severity;
  auto raise = [&s](HealthSeverity to) { s = std::max(s, to); };
  if (h.residual_checks > 0) {
    if (h.max_relative_residual >= t.residual_critical)
      raise(HealthSeverity::kCritical);
    else if (h.max_relative_residual >= t.residual_warn)
      raise(HealthSeverity::kWarn);
  }
  if (h.condition_estimates > 0) {
    if (h.max_condition_estimate >= t.condition_critical)
      raise(HealthSeverity::kCritical);
    else if (h.max_condition_estimate >= t.condition_warn)
      raise(HealthSeverity::kWarn);
  }
  if (h.factorizations > 0) {
    if (h.max_pivot_growth >= t.growth_critical)
      raise(HealthSeverity::kCritical);
    else if (h.max_pivot_growth >= t.growth_warn)
      raise(HealthSeverity::kWarn);
  }
  if (h.newton_steps_diverged > 0) raise(HealthSeverity::kCritical);
  if (h.newton_steps_stagnated > 0) raise(HealthSeverity::kWarn);
  h.severity = s;
}

double estimateInverseNorm1(std::size_t n, const SolveFn& solve, const SolveFn& solveT) {
  if (n == 0) throw std::invalid_argument("estimateInverseNorm1: empty system");
  // Hager's algorithm (the LAPACK xLACON idea): gradient ascent on the
  // convex function f(x) = ||A^-1 x||_1 over the unit 1-norm ball, whose
  // maximum is attained at a signed unit basis vector. Each iteration is
  // one solve + one transpose solve on the cached factors.
  Vector x(n, 1.0 / static_cast<double>(n));
  Vector y, z;
  double est = 0.0;
  std::size_t last_j = n;  // basis index of the previous iterate
  for (int iter = 0; iter < 5; ++iter) {
    solve(x, y);
    double est_new = 0.0;
    for (double v : y) est_new += std::abs(v);
    if (iter > 0 && est_new <= est) break;  // stopped growing: done
    est = est_new;
    // xi = sign(y); z = A^-T xi picks the steepest-ascent coordinate.
    Vector xi(n);
    for (std::size_t i = 0; i < n; ++i) xi[i] = y[i] >= 0.0 ? 1.0 : -1.0;
    solveT(xi, z);
    std::size_t j = 0;
    double z_max = std::abs(z[0]);
    for (std::size_t i = 1; i < n; ++i) {
      const double v = std::abs(z[i]);
      if (v > z_max) {
        z_max = v;
        j = i;
      }
    }
    double ztx = 0.0;
    for (std::size_t i = 0; i < n; ++i) ztx += z[i] * x[i];
    if (z_max <= ztx || j == last_j) break;  // local maximum reached
    std::fill(x.begin(), x.end(), 0.0);
    x[j] = 1.0;
    last_j = j;
  }
  return est;
}

double matrixNorm1(const Matrix& a) {
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  double norm = 0.0;
  for (std::size_t j = 0; j < cols; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < rows; ++i) col += std::abs(a(i, j));
    norm = std::max(norm, col);
  }
  return norm;
}

double matrixNorm1(const SparseMatrix& a) {
  if (!a.finalized()) throw std::invalid_argument("matrixNorm1: matrix not finalized");
  const std::size_t n = a.dim();
  Vector col_sum(n, 0.0);
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  const auto& values = a.values();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      col_sum[col_idx[k]] += std::abs(values[k]);
  double norm = 0.0;
  for (double v : col_sum) norm = std::max(norm, v);
  return norm;
}

template <typename Scalar>
double relativeResidual(const CsrMatrix<Scalar>& a, const std::vector<Scalar>& x,
                        const std::vector<Scalar>& b) {
  if (!a.finalized()) throw std::invalid_argument("relativeResidual: matrix not finalized");
  const std::size_t n = a.dim();
  if (x.size() != n || b.size() != n)
    throw std::invalid_argument("relativeResidual: size mismatch");
  double b_inf = 0.0;
  for (const Scalar& v : b) b_inf = std::max(b_inf, std::abs(v));
  double r_inf = 0.0;
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  const auto& values = a.values();
  for (std::size_t r = 0; r < n; ++r) {
    Scalar acc = -b[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      acc += values[k] * x[col_idx[k]];
    r_inf = std::max(r_inf, std::abs(acc));
  }
  return r_inf / (b_inf > 0.0 ? b_inf : 1.0);
}

template double relativeResidual(const CsrMatrix<double>&, const std::vector<double>&,
                                 const std::vector<double>&);
template double relativeResidual(const CsrMatrix<Complex>&, const std::vector<Complex>&,
                                 const std::vector<Complex>&);

}  // namespace obs
}  // namespace fdtdmm
