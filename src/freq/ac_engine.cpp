#include "freq/ac_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/counters.h"

namespace fdtdmm {

namespace {
constexpr double kPi = 3.14159265358979323846;

// One step of iterative refinement of x, solved from A x = b on `lu`, with
// the residual b - A x accumulated in extended precision (long double).
// The DC stamp's dt = 1 s inductor companions put theta/L (up to ~1e10) in
// the branch rows next to the unit KCL entries and the conductances. On
// the seeded random netlists of the test suite the RCM-ordered banded
// elimination then lands up to 7e-6 relative off an 80-bit dense solve;
// after this step, within 1e-10. r and dx are scratch.
void refineOnce(const SparseMatrix& a, const Vector& b, const BandedLu<double>& lu, Vector& x,
                Vector& r, Vector& dx) {
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  const auto& values = a.values();
  r.resize(b.size());
  for (std::size_t row = 0; row < b.size(); ++row) {
    long double acc = b[row];
    for (std::size_t k = row_ptr[row]; k < row_ptr[row + 1]; ++k)
      acc -= static_cast<long double>(values[k]) * x[col_idx[k]];
    r[row] = static_cast<double>(acc);
  }
  lu.solve(r, dx);
  for (std::size_t k = 0; k < x.size(); ++k) x[k] += dx[k];
}

// The storage of one AcSession's numeric state. On a 1200-segment skin
// ladder (14405 unknowns, 52811 nonzeros) that is six blocks of 0.2-1.6 MB,
// which a session that allocates its own takes from the allocator and
// hands back when it ends.
struct AcWorkspace {
  bool kept = false;  ///< holds a finished session's storage
  CsrMatrix<Complex> sp;
  BandedLu<Complex> lu;
  ComplexVector b;
  ComplexVector x;
};

// The workspace this thread's last finished session left. A sweep worker
// runs one corner at a time, so one per thread is all it can reuse.
thread_local AcWorkspace t_workspace;
}  // namespace

AcSession::AcSession(Circuit& circuit, AcOptions opt)
    : circuit_(circuit), opt_(std::move(opt)) {
  n_ = circuit_.assignUnknowns();
  if (n_ == 0) throw std::invalid_argument("AcSession: circuit has no unknowns");
  if (!opt_.x_dc.empty() && opt_.x_dc.size() != n_)
    throw std::invalid_argument("AcSession: x_dc size does not match unknown count");
  AcWorkspace& w = t_workspace;
  if (w.kept) {
    sp_ = std::move(w.sp);
    lu_ = std::move(w.lu);
    sys_.b = std::move(w.b);
    x_ = std::move(w.x);
    w.kept = false;
    if (opt_.telemetry) ++opt_.telemetry->workspace_reuses;
  }
}

AcSession::~AcSession() {
  // Move assignments only: nothing allocates or throws. Of two sessions
  // alive on one thread, the one that ends last is kept.
  AcWorkspace& w = t_workspace;
  w.sp = std::move(sp_);
  w.lu = std::move(lu_);
  w.b = std::move(sys_.b);
  w.x = std::move(x_);
  w.kept = true;
}

void AcSession::checkOut(double omega, obs::RunTelemetry* tel) {
  // The entry *positions* an element writes are frequency-independent
  // (only values depend on omega — see the stampAc contract), so the
  // pattern compiled at this frequency serves every later one, and every
  // corner of the structure class. The checkout compiles it here only
  // when this session builds its class or runs unshared; on a kept
  // workspace that last held the class, adopting it copies nothing.
  const PatternStamp<Complex> stamp = [&](CsrMatrix<Complex>& target) {
    sys_.csr = &target;
    for (const auto& e : circuit_.elements()) e->stampAc(sys_, omega, opt_.x_dc);
  };
  symbolic_ = resolveSymbolic(opt_.sharing, circuit_, SolverEngine::kAc, n_, stamp, sp_, tel);
  sys_.csr = &sp_;
}

void AcSession::restampValues(double omega) {
  sp_.clearValues();
  for (const auto& e : circuit_.elements()) e->stampAc(sys_, omega, opt_.x_dc);
}

void AcSession::restampRhs(double omega) {
  sys_.b.assign(n_, Complex(0.0, 0.0));
  for (const auto& e : circuit_.elements()) e->stampAcRhs(sys_.b, omega);
}

const ComplexVector& AcSession::solveAt(double f_hz) {
  if (!std::isfinite(f_hz) || f_hz < 0.0)
    throw std::invalid_argument("AcSession::solveAt: f must be finite and >= 0");
  const double omega = 2.0 * kPi * f_hz;
  obs::RunTelemetry* const tel = opt_.telemetry;
  const obs::HealthOptions* h_opt = opt_.sharing.healthFor(opt_.health);
  obs::NumericalHealth* const health = tel && h_opt ? &tel->health : nullptr;
  double* const t_stamp = tel ? &tel->phases.stamp_static_seconds : nullptr;
  double* const t_factor = tel ? &tel->phases.factor_seconds : nullptr;
  double* const t_solve = tel ? &tel->phases.solve_seconds : nullptr;
  // stampAc is const and state-free and the excitations reach only the
  // RHS (stampAcRhs), so the matrix at the last factored omega is bitwise
  // the factored one still held in sp_: the forward and reverse
  // S-parameter excitations of one frequency point share one value stamp
  // and one factorization.
  const bool refactor = omega != factored_omega_;
  {
    obs::ScopedTimer stamp_timer(t_stamp);
    if (symbolic_ == nullptr) checkOut(omega, tel);
    if (refactor) {
      factored_omega_ = std::numeric_limits<double>::quiet_NaN();
      restampValues(omega);
    }
    restampRhs(omega);
  }
  if (refactor) {
    {
      obs::ScopedTimer factor_timer(t_factor);
      lu_.factorWithOrder(sp_, symbolic_->rcm_order);
    }
    factored_omega_ = omega;
    ++factorizations_;
    if (tel) ++tel->lu_factorizations;
    if (health) health->recordFactorization(lu_.minAbsPivot(), lu_.pivotGrowth(sp_));
  }
  {
    obs::ScopedTimer solve_timer(t_solve);
    lu_.solve(sys_.b, x_);
  }
  if (tel) {
    obs::StructureSize size;
    size.unknowns = static_cast<long long>(n_);
    size.nonzeros = static_cast<long long>(sp_.nonZeros());
    size.kl = static_cast<long long>(lu_.lowerBandwidth());
    size.ku = static_cast<long long>(lu_.upperBandwidth());
    tel->structure.mergeMax(size);
  }
  if (health) health->recordResidual(obs::relativeResidual(sp_, x_, sys_.b));
  return x_;
}

Vector dcOperatingPoint(Circuit& circuit, int max_iter, double tol) {
  const std::size_t n = circuit.assignUnknowns();
  if (n == 0) throw std::invalid_argument("dcOperatingPoint: circuit has no unknowns");
  // Full linearized restamp about the iterate at t = 0 with a nominal
  // dt = 1 s: capacitor companions are inert before begin() (geq = 0, so
  // capacitors are DC-open), inductor companions make inductors stiff
  // near-shorts (branch voltage = i L / theta), and sources sit at their
  // t = 0 transient value. For linear circuits this converges in one
  // iteration; nonlinear devices stamp their port law linearized about the
  // iterate (Element::stampLinearized), the law the transient engine's
  // Newton solves.
  Vector x(n, 0.0), x_new, r, dx;
  SparseMatrix a(n);
  StampSystem sys;
  sys.csr = &a;
  const auto stamp = [&] {
    sys.b.assign(n, 0.0);
    for (const auto& e : circuit.elements()) {
      e->stampStatic(sys, 1.0);
      e->stampLinearized(sys, x, 0.0, 1.0);
    }
  };
  // The first pass fixes the pattern — every port linearization writes its
  // whole stencil, so later passes never leave it — and every iteration
  // then restamps its values, so each entry is summed in stamp order and
  // the LU keeps its analysis. Each solve takes one refinement step
  // (refineOnce).
  stamp();
  a.finalize();
  BandedLu<double> lu;
  for (int it = 0; it < max_iter; ++it) {
    a.clearValues();
    stamp();
    lu.factor(a);
    lu.solve(sys.b, x_new);
    refineOnce(a, sys.b, lu, x_new, r, dx);
    double delta = 0.0;
    for (std::size_t k = 0; k < n; ++k) delta = std::max(delta, std::abs(x_new[k] - x[k]));
    std::swap(x, x_new);
    if (delta < tol) return x;
  }
  throw std::runtime_error("dcOperatingPoint: Newton did not converge");
}

}  // namespace fdtdmm
