#pragma once
// Reference solvers the banded engines are checked against:
//
//  - runDenseReference: the textbook SPICE transient loop that rebuilds the
//    complete MNA system through Element::stamp (static + dynamic stamps
//    into a zeroed dense matrix) and LU-factors it at every Newton
//    iteration. It shares no solver state with SolverSession — no cached
//    base factorization, no CSR pattern, no RCM ordering.
//  - runBandedReference: the same loop on a fresh CSR matrix factored by
//    its own BandedLu at every Newton iteration — the refactor-every-
//    iteration banded path that SolverSession's low-rank updates replace.
//    It sums each entry in the engine's order (static stamps, finalize,
//    then dynamic stamps on top) and orders the same pattern with the same
//    RCM, but caches nothing across iterations.
//  - acDenseReference: one AC point stamped through Element::stampAc into
//    dense real/imaginary targets and solved as a real system of twice the
//    size (solveComplexDense), with the same dense LuFactorization — no
//    complex LU, no CSR pattern, no ordering.

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

// The dense reference: Element::stamp into a zeroed dense matrix, then
// LuFactorization.
inline TransientResult runDenseReference(Circuit& circuit, const TransientOptions& opt,
                                         const std::vector<NodeProbe>& probes) {
  const std::size_t n = circuit.assignUnknowns();
  LuFactorization lu;
  return runRestampReference(
      circuit, opt, probes,
      [&](StampSystem& sys, const Vector& x, double t) {
        if (sys.a.rows() != n) sys.a = Matrix(n, n);
        std::fill_n(sys.a.data(), n * n, 0.0);
        for (const auto& e : circuit.elements()) e->stamp(sys, x, t, opt.dt);
      },
      [&lu](StampSystem& sys, Vector& x_new) {
        lu.factor(sys.a);
        lu.solve(sys.b, x_new);
      });
}

// The banded reference: static stamps into a fresh CSR matrix, finalize,
// dynamic stamps on top (folding any out-of-pattern entries in), then a
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
        sys.sparse = &csr;
        for (const auto& e : circuit.elements()) e->stampStatic(sys, opt.dt);
        csr.finalize();
        for (const auto& e : circuit.elements()) e->stampDynamic(sys, x, t, opt.dt);
        csr.mergeOverflow();
      },
      [&](StampSystem& sys, Vector& x_new) {
        lu.factor(csr);
        lu.solve(sys.b, x_new);
      });
}

// Solves the complex system (re + j*im) x = b through its real equivalent
//   [[re, -im], [im, re]] [Re x; Im x] = [Re b; Im b]
// with the dense LuFactorization.
inline std::vector<std::complex<double>> solveComplexDense(
    const Matrix& re, const Matrix& im, const std::vector<std::complex<double>>& b) {
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
  std::vector<std::complex<double>> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = {y[k], y[n + k]};
  return x;
}

// The AC solution of `circuit` at f_hz, linearized about x_dc (empty = all
// unknowns zero), as AcSession::solveAt defines it: every element's
// stampAc into dense targets, then solveComplexDense.
inline std::vector<std::complex<double>> acDenseReference(Circuit& circuit, double f_hz,
                                                          const Vector& x_dc = {}) {
  constexpr double kTwoPi = 6.28318530717958647692;
  const std::size_t n = circuit.assignUnknowns();
  AcStampSystem sys;
  sys.re.a = Matrix(n, n);
  sys.im.a = Matrix(n, n);
  sys.b.assign(n, {0.0, 0.0});
  for (const auto& e : circuit.elements()) e->stampAc(sys, kTwoPi * f_hz, x_dc);
  return solveComplexDense(sys.re.a, sys.im.a, sys.b);
}

// max_k |x_k - ref_k| / max_k |ref_k| of two AC solution vectors.
inline double relativeGap(const std::vector<std::complex<double>>& x,
                          const std::vector<std::complex<double>>& ref) {
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
