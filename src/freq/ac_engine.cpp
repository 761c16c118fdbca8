#include "freq/ac_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/linear_solve.h"
#include "obs/counters.h"

namespace fdtdmm {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

AcSession::AcSession(Circuit& circuit, AcOptions opt)
    : circuit_(circuit), opt_(std::move(opt)) {
  n_ = circuit_.assignUnknowns();
  if (n_ == 0) throw std::invalid_argument("AcSession: circuit has no unknowns");
  if (!opt_.x_dc.empty() && opt_.x_dc.size() != n_)
    throw std::invalid_argument("AcSession: x_dc size does not match unknown count");
}

void AcSession::assemblePattern(double omega) {
  // Build both CSR patterns with one stamping pass. The entry *positions*
  // an element writes are frequency-independent (only values depend on
  // omega — see the stampAc contract), so the pattern assembled here is
  // valid for every later frequency; restampValues() scatters into it
  // allocation-free.
  sp_re_.reset(n_);
  sp_im_.reset(n_);
  sys_.re.sparse = &sp_re_;
  sys_.im.sparse = &sp_im_;
  sys_.b.assign(n_, Complex(0.0, 0.0));
  for (const auto& e : circuit_.elements()) e->stampAc(sys_, omega, opt_.x_dc);
  sp_re_.finalize();
  sp_im_.finalize();
  // One ordering for every frequency point: checked out of the sharing
  // provider, built and published, or private.
  symbolic_ = resolveSymbolic(opt_.sharing, sp_re_, opt_.telemetry);
}

void AcSession::restampValues(double omega) {
  sp_re_.clearValues();
  sp_im_.clearValues();
  sys_.b.assign(n_, Complex(0.0, 0.0));
  for (const auto& e : circuit_.elements()) e->stampAc(sys_, omega, opt_.x_dc);
}

const ComplexVector& AcSession::solveAt(double f_hz) {
  if (f_hz < 0.0) throw std::invalid_argument("AcSession::solveAt: f must be >= 0");
  const double omega = 2.0 * kPi * f_hz;
  if (symbolic_ == nullptr) assemblePattern(omega);
  restampValues(omega);
  obs::RunTelemetry* const tel = opt_.telemetry;
  const obs::HealthOptions* h_opt =
      opt_.health.collect
          ? &opt_.health
          : (opt_.sharing.health && opt_.sharing.health->collect ? opt_.sharing.health
                                                                 : nullptr);
  obs::NumericalHealth* const health = tel && h_opt ? &tel->health : nullptr;
  double* const t_factor = tel ? &tel->phases.factor_seconds : nullptr;
  double* const t_solve = tel ? &tel->phases.solve_seconds : nullptr;
  // stampAc is const and state-free and the excitations reach only the
  // RHS, so the matrix restamped at the last factored omega is bitwise
  // the factored one: the forward and reverse S-parameter excitations of
  // one frequency point share one factorization.
  if (omega != factored_omega_) {
    factored_omega_ = std::numeric_limits<double>::quiet_NaN();
    {
      obs::ScopedTimer factor_timer(t_factor);
      lu_.factorWithOrder({sp_re_, sp_im_}, symbolic_->rcm_order);
    }
    factored_omega_ = omega;
    ++factorizations_;
    if (tel) ++tel->lu_factorizations;
    if (health) health->recordFactorization(lu_.minAbsPivot(), lu_.pivotGrowth());
  }
  {
    obs::ScopedTimer solve_timer(t_solve);
    lu_.solve(sys_.b, x_);
  }
  if (tel) {
    obs::StructureSize size;
    size.unknowns = static_cast<long long>(n_);
    size.nonzeros = static_cast<long long>(sp_re_.nonZeros());
    size.kl = static_cast<long long>(lu_.lowerBandwidth());
    size.ku = static_cast<long long>(lu_.upperBandwidth());
    tel->structure.mergeMax(size);
  }
  if (health) recordResidual(*health);
  return x_;
}

void AcSession::recordResidual(obs::NumericalHealth& h) const {
  // Complex relative residual ||Ax - b||inf / ||b||inf of the solve that
  // just ran, with A = re + j*im recomposed from the assembly targets (the
  // factorization holds a permuted band form, not A itself).
  double b_inf = 0.0;
  for (const Complex& v : sys_.b) b_inf = std::max(b_inf, std::abs(v));
  double r_inf = 0.0;
  const auto& row_ptr = sp_re_.rowPtr();
  const auto& col_idx = sp_re_.colIdx();
  const auto& re_vals = sp_re_.values();
  const auto& im_vals = sp_im_.values();
  for (std::size_t r = 0; r < n_; ++r) {
    Complex acc = -sys_.b[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      acc += Complex(re_vals[k], im_vals[k]) * x_[col_idx[k]];
    r_inf = std::max(r_inf, std::abs(acc));
  }
  h.collected = true;
  ++h.residual_checks;
  h.max_relative_residual =
      std::max(h.max_relative_residual, r_inf / (b_inf > 0.0 ? b_inf : 1.0));
}

Vector dcOperatingPoint(Circuit& circuit, int max_iter, double tol) {
  const std::size_t n = circuit.assignUnknowns();
  if (n == 0) throw std::invalid_argument("dcOperatingPoint: circuit has no unknowns");
  // Full linearized restamp about the iterate at t = 0 with a nominal
  // dt = 1 s: capacitor companions are inert before begin() (geq = 0, so
  // capacitors are DC-open), inductor companions make inductors stiff
  // near-shorts (branch voltage = i L / theta), and sources sit at their
  // t = 0 transient value. For linear circuits this converges in one
  // iteration; nonlinear devices stamp their Newton Jacobian + residual
  // exactly as in the transient loop.
  Vector x(n, 0.0);
  StampSystem sys;
  LuFactorization lu;
  for (int it = 0; it < max_iter; ++it) {
    sys.a = Matrix(n, n);
    sys.b.assign(n, 0.0);
    for (const auto& e : circuit.elements()) e->stamp(sys, x, 0.0, 1.0);
    lu.factor(sys.a);
    Vector x_new = lu.solve(sys.b);
    double delta = 0.0;
    for (std::size_t k = 0; k < n; ++k) delta = std::max(delta, std::abs(x_new[k] - x[k]));
    x = std::move(x_new);
    if (delta < tol) return x;
  }
  throw std::runtime_error("dcOperatingPoint: Newton did not converge");
}

}  // namespace fdtdmm
