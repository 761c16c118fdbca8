#pragma once
// Dense full-restamp reference transient: the textbook SPICE loop that
// rebuilds the complete MNA system through Element::stamp (static + dynamic
// stamps into a zeroed dense matrix) and LU-factors it at every Newton
// iteration. It shares no solver state with SolverSession — no cached base
// factorization, no CSR pattern, no RCM ordering — which makes it the
// independent oracle the sparse transient path is checked against.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "circuit/transient.h"
#include "math/linear_solve.h"

namespace fdtdmm::oracle {

// Acceptable sparse-vs-dense waveform gap on volt-scale signals. The two
// paths eliminate in different orders (RCM-permuted band vs dense partial
// pivoting), so they agree to a tolerance rather than bitwise; observed
// gaps are orders of magnitude below this.
constexpr double kSparseTol = 1e-8;

// Same stepping, Newton damping, convergence test and probe semantics as
// runTransient (settle pre-roll, accepted steps at t >= 0). Counts one LU
// per Newton iteration.
inline TransientResult runDenseReference(Circuit& circuit, const TransientOptions& opt,
                                         const std::vector<NodeProbe>& probes) {
  const std::size_t n = circuit.assignUnknowns();
  const auto& elements = circuit.elements();
  for (const auto& e : elements) e->begin(opt.dt);

  StampSystem sys;
  sys.a = Matrix(n, n);
  LuFactorization lu;
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
      std::fill_n(sys.a.data(), n * n, 0.0);
      sys.b.assign(n, 0.0);
      for (const auto& e : elements) e->stamp(sys, x, t, opt.dt);
      lu.factor(sys.a);
      ++result.lu_factorizations;
      lu.solve(sys.b, x_new);
      double max_dx = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        double dx = x_new[k] - x[k];
        if (!std::isfinite(dx))
          throw std::runtime_error("runDenseReference: Newton diverged");
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

// Largest sample-wise |a - b| of two waveforms on the same time grid.
inline double maxAbsDiff(const Waveform& a, const Waveform& b) {
  if (a.size() != b.size() || a.dt() != b.dt())
    throw std::invalid_argument("maxAbsDiff: waveforms on different grids");
  double m = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) m = std::max(m, std::abs(a[k] - b[k]));
  return m;
}

}  // namespace fdtdmm::oracle
