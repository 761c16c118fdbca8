#include "math/newton.h"

#include <algorithm>
#include <cmath>

namespace fdtdmm {

NewtonResult newtonScalar(const ScalarFunction& f, double& x, const NewtonOptions& opt) {
  NewtonResult result;
  double df = 0.0;
  double fx = f(x, df);
  result.residual = std::abs(fx);
  for (int it = 0; it < opt.max_iterations; ++it) {
    if (std::abs(fx) <= opt.tolerance) {
      result.converged = true;
      result.iterations = it;
      result.residual = std::abs(fx);
      return result;
    }
    if (std::abs(df) < opt.min_derivative) break;
    double dx = -fx / df;
    if (opt.max_step > 0.0) dx = std::clamp(dx, -opt.max_step, opt.max_step);
    x += dx;
    fx = f(x, df);
    result.iterations = it + 1;
    result.residual = std::abs(fx);
  }
  result.converged = std::abs(fx) <= opt.tolerance;
  return result;
}

}  // namespace fdtdmm
