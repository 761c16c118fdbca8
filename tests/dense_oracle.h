#pragma once
// Reference solvers the banded engines are checked against:
//
//  - runDenseReference: the textbook SPICE transient loop that rebuilds the
//    complete MNA system through stamp() (static + dynamic stamps, summed
//    in stamp order — see stampInOrder) and LU-factors its dense copy at
//    every Newton iteration. It shares no solver state with SolverSession —
//    no cached base factorization, no pattern kept across iterations, no
//    RCM ordering.
//  - runBandedReference: the same loop on a fresh CSR matrix factored by
//    its own BandedLu at every Newton iteration — the refactor-every-
//    iteration banded path that SolverSession's port reduction replaces.
//    It sums each entry in the engine's order (static stamps with the port
//    stencils reserved, finalize, then the port linearizations on top) and
//    orders the same pattern with the same RCM, but caches nothing across
//    iterations.
//  - acDenseReference: one AC point stamped through Element::stampAc and
//    Element::stampAcRhs in stamp order, split into dense real/imaginary
//    matrices and solved as a real system of twice the size
//    (solveComplexDense), with the same dense LuFactorization — no complex
//    LU, no ordering.
//  - dcDenseReference: dcOperatingPoint's Newton loop, assembled in stamp
//    order and solved with the dense LuFactorization, each solve refined
//    once against an extended-precision residual.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "circuit/transient.h"
#include "math/banded_lu.h"
#include "math/linear_solve.h"

namespace fdtdmm::oracle {

// Acceptable sparse-vs-dense waveform gap on volt-scale signals. The two
// paths eliminate in different orders (RCM-permuted band vs dense partial
// pivoting), so they agree to a tolerance rather than bitwise; observed
// gaps are orders of magnitude below this.
constexpr double kSparseTol = 1e-8;

// The full linearized stamp of element `e` about iterate x: its static
// stamp, then its RHS terms and its port law linearized about x.
inline void stamp(Element& e, StampSystem& sys, const Vector& x, double t, double dt) {
  e.stampStatic(sys, dt);
  e.stampLinearized(sys, x, t, dt);
}

// Assembles `stampAll(sys)` into `a` (reset to n x n) in two passes: the
// first fixes the pattern, the second restamps from zeroed values into it.
// Every entry is therefore the sum of its stamps in stamp order — exactly
// what `+=` into a zeroed dense matrix gives — and sys.b holds the RHS of
// the second pass.
template <typename Scalar, typename StampAll>
void stampInOrder(std::size_t n, MnaSystem<Scalar>& sys, CsrMatrix<Scalar>& a,
                  StampAll stampAll) {
  a.reset(n);
  sys.csr = &a;
  sys.b.assign(n, Scalar(0.0));
  stampAll(sys);
  a.finalize();
  a.clearValues();
  sys.b.assign(n, Scalar(0.0));
  stampAll(sys);
}

// Solves the complex system (re + j*im) x = b through its real equivalent
//   [[re, -im], [im, re]] [Re x; Im x] = [Re b; Im b]
// with the dense LuFactorization.
inline ComplexVector solveComplexDense(const Matrix& re, const Matrix& im,
                                      const ComplexVector& b) {
  const std::size_t n = re.rows();
  if (re.cols() != n || im.rows() != n || im.cols() != n || b.size() != n)
    throw std::invalid_argument("solveComplexDense: shape mismatch");
  Matrix m(2 * n, 2 * n);
  Vector rhs(2 * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m(r, c) = re(r, c);
      m(r, n + c) = -im(r, c);
      m(n + r, c) = im(r, c);
      m(n + r, n + c) = re(r, c);
    }
    rhs[r] = b[r].real();
    rhs[n + r] = b[r].imag();
  }
  const Vector y = solveLinear(m, rhs);
  ComplexVector x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = {y[k], y[n + k]};
  return x;
}

// Solves A x = b for a finalized CSR matrix with the dense LuFactorization:
// a real A through its dense copy, a complex A through solveComplexDense.
inline Vector solveDense(const SparseMatrix& a, const Vector& b) {
  return solveLinear(a.toDense(), b);
}
inline ComplexVector solveDense(const CsrMatrix<Complex>& a, const ComplexVector& b) {
  const std::size_t n = a.dim();
  Matrix re(n, n), im(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k) {
      re(r, a.colIdx()[k]) = a.values()[k].real();
      im(r, a.colIdx()[k]) = a.values()[k].imag();
    }
  }
  return solveComplexDense(re, im, b);
}

// Same stepping, Newton damping, convergence test and probe semantics as
// runTransient (settle pre-roll, accepted steps at t >= 0). Each Newton
// iteration zeroes sys.b, calls assemble(sys, x, t) to stamp the complete
// system about x, and factorSolve(sys, x_new); one LU is counted per
// iteration.
template <typename Assemble, typename FactorSolve>
TransientResult runRestampReference(Circuit& circuit, const TransientOptions& opt,
                                    const std::vector<NodeProbe>& probes, Assemble assemble,
                                    FactorSolve factorSolve) {
  const std::size_t n = circuit.assignUnknowns();
  const auto& elements = circuit.elements();
  for (const auto& e : elements) e->begin(opt.dt);

  StampSystem sys;
  Vector x(n, 0.0), x_new(n, 0.0);
  const auto node = [](const Vector& v, int k) {
    return k == 0 ? 0.0 : v[static_cast<std::size_t>(k - 1)];
  };

  TransientResult result;
  std::vector<Vector> data(probes.size());
  const auto n_settle = static_cast<long long>(std::ceil(opt.settle_time / opt.dt));
  const auto n_run = static_cast<long long>(std::ceil(opt.t_stop / opt.dt));
  for (long long step = -n_settle; step <= n_run; ++step) {
    const double t = static_cast<double>(step) * opt.dt;
    for (const auto& e : elements) e->beginStep(t, opt.dt);
    int it = 0;
    bool converged = false;
    for (; it < opt.max_newton_iterations && !converged; ++it) {
      sys.b.assign(n, 0.0);
      assemble(sys, x, t);
      factorSolve(sys, x_new);
      ++result.lu_factorizations;
      double max_dx = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        double dx = x_new[k] - x[k];
        if (!std::isfinite(dx))
          throw std::runtime_error("runRestampReference: Newton diverged");
        if (opt.max_delta_v > 0.0) dx = std::clamp(dx, -opt.max_delta_v, opt.max_delta_v);
        x[k] += dx;
        max_dx = std::max(max_dx, std::abs(dx));
      }
      converged = max_dx <= opt.v_tolerance;
    }
    if (!converged) result.converged = false;
    result.max_newton_iterations = std::max(result.max_newton_iterations, it);
    result.total_newton_iterations += it;
    for (const auto& e : elements) e->endStep(x, t, opt.dt);
    if (step >= 0) {
      for (std::size_t p = 0; p < probes.size(); ++p)
        data[p].push_back(node(x, probes[p].n1) - node(x, probes[p].n2));
      ++result.steps;
    }
  }
  for (std::size_t p = 0; p < probes.size(); ++p)
    result.probes.emplace(probes[p].label, Waveform(0.0, opt.dt, std::move(data[p])));
  return result;
}

// The dense reference: stamp() in stamp order, then the dense
// LuFactorization.
inline TransientResult runDenseReference(Circuit& circuit, const TransientOptions& opt,
                                         const std::vector<NodeProbe>& probes) {
  const std::size_t n = circuit.assignUnknowns();
  SparseMatrix csr;
  return runRestampReference(
      circuit, opt, probes,
      [&](StampSystem& sys, const Vector& x, double t) {
        stampInOrder(n, sys, csr, [&](StampSystem& s) {
          for (const auto& e : circuit.elements()) stamp(*e, s, x, t, opt.dt);
        });
      },
      [&](StampSystem& sys, Vector& x_new) { x_new = solveDense(csr, sys.b); });
}

// The banded reference: static stamps and port stencils into a fresh CSR
// matrix, finalize, the RHS terms and port linearizations on top, then a
// BandedLu with its own RCM ordering.
inline TransientResult runBandedReference(Circuit& circuit, const TransientOptions& opt,
                                          const std::vector<NodeProbe>& probes) {
  const std::size_t n = circuit.assignUnknowns();
  SparseMatrix csr;
  BandedLu<double> lu;
  return runRestampReference(
      circuit, opt, probes,
      [&](StampSystem& sys, const Vector& x, double t) {
        csr.reset(n);
        sys.csr = &csr;
        for (const auto& e : circuit.elements()) {
          e->stampStatic(sys, opt.dt);
          e->reservePortStencil(sys);
        }
        csr.finalize();
        for (const auto& e : circuit.elements()) e->stampLinearized(sys, x, t, opt.dt);
      },
      [&](StampSystem& sys, Vector& x_new) {
        lu.factor(csr);
        lu.solve(sys.b, x_new);
      });
}

// The AC solution of `circuit` at f_hz, linearized about x_dc (empty = all
// unknowns zero), as AcSession::solveAt defines it: every element's
// stampAc and stampAcRhs in stamp order, then solveDense.
inline ComplexVector acDenseReference(Circuit& circuit, double f_hz, const Vector& x_dc = {}) {
  constexpr double kTwoPi = 6.28318530717958647692;
  const std::size_t n = circuit.assignUnknowns();
  AcStampSystem sys;
  CsrMatrix<Complex> csr;
  stampInOrder(n, sys, csr, [&](AcStampSystem& s) {
    for (const auto& e : circuit.elements()) {
      e->stampAc(s, kTwoPi * f_hz, x_dc);
      e->stampAcRhs(s.b, kTwoPi * f_hz);
    }
  });
  return solveDense(csr, sys.b);
}

// The DC operating point as dcOperatingPoint defines it — the full stamp
// at t = 0 and dt = 1 s, undamped Newton from x = 0, the same iteration
// cap and convergence test — with every iteration assembled in stamp order
// and solved with the dense LuFactorization plus one step of iterative
// refinement against an extended-precision (long double) residual. The
// dt = 1 s inductor companions make these systems ill-conditioned: the
// unrefined dense solve is up to 7.5e-9 relative off an 80-bit
// elimination on the random diode netlists, the refined one 4e-12.
// \throws std::runtime_error like dcOperatingPoint.
inline Vector dcDenseReference(Circuit& circuit, int max_iter = 50, double tol = 1e-9) {
  const std::size_t n = circuit.assignUnknowns();
  Vector x(n, 0.0);
  StampSystem sys;
  SparseMatrix csr;
  for (int it = 0; it < max_iter; ++it) {
    stampInOrder(n, sys, csr, [&](StampSystem& s) {
      for (const auto& e : circuit.elements()) stamp(*e, s, x, 0.0, 1.0);
    });
    const Matrix a = csr.toDense();
    const LuFactorization lu(a);
    Vector x_new = lu.solve(sys.b);
    Vector r(n);
    for (std::size_t row = 0; row < n; ++row) {
      long double acc = sys.b[row];
      for (std::size_t c = 0; c < n; ++c)
        acc -= static_cast<long double>(a(row, c)) * x_new[c];
      r[row] = static_cast<double>(acc);
    }
    const Vector dx = lu.solve(r);
    for (std::size_t k = 0; k < n; ++k) x_new[k] += dx[k];
    double delta = 0.0;
    for (std::size_t k = 0; k < n; ++k) delta = std::max(delta, std::abs(x_new[k] - x[k]));
    x = std::move(x_new);
    if (delta < tol) return x;
  }
  throw std::runtime_error("dcDenseReference: Newton did not converge");
}

// max_k |x_k - ref_k| / max_k |ref_k| of two solution vectors (real or
// complex).
template <typename Scalar>
double relativeGap(const std::vector<Scalar>& x, const std::vector<Scalar>& ref) {
  if (x.size() != ref.size()) throw std::invalid_argument("relativeGap: size mismatch");
  double gap = 0.0, scale = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    gap = std::max(gap, std::abs(x[k] - ref[k]));
    scale = std::max(scale, std::abs(ref[k]));
  }
  return gap / scale;
}

// Largest sample-wise |a - b| of two waveforms on the same time grid.
inline double maxAbsDiff(const Waveform& a, const Waveform& b) {
  if (a.size() != b.size() || a.dt() != b.dt())
    throw std::invalid_argument("maxAbsDiff: waveforms on different grids");
  double m = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) m = std::max(m, std::abs(a[k] - b[k]));
  return m;
}

}  // namespace fdtdmm::oracle
