#pragma once
/// \file newton.h
/// Scalar Newton-Raphson solver: the workhorse of the hybrid
/// FDTD/macromodel port solve (the coupled Eq. (8)+(13) system of the paper
/// reduces to one scalar unknown, the port voltage v^{n+1}). The MNA
/// circuit engine runs its own Newton loop (circuit/solver_session.h).

#include <functional>

namespace fdtdmm {

/// Outcome of a Newton solve.
struct NewtonResult {
  bool converged = false;
  int iterations = 0;     ///< iterations actually performed
  double residual = 0.0;  ///< final |f|
};

/// Options controlling Newton iteration.
struct NewtonOptions {
  int max_iterations = 50;
  double tolerance = 1e-9;     ///< convergence threshold on the residual
  double min_derivative = 1e-14;  ///< |f'| below this aborts
  double max_step = 0.0;       ///< if > 0, clamp |dx| per iteration (damping)
};

/// f(x, df) must return f(x) and store df = f'(x).
using ScalarFunction = std::function<double(double x, double& df)>;

/// Solves f(x) = 0 starting from x (updated in place).
/// Convergence is declared on |f(x)| <= tolerance.
NewtonResult newtonScalar(const ScalarFunction& f, double& x,
                          const NewtonOptions& opt = {});

}  // namespace fdtdmm
