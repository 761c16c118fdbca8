// Unit tests for the scalar Newton solver.
#include "math/newton.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fdtdmm {
namespace {

TEST(NewtonScalar, SquareRoot) {
  double x = 1.0;
  const auto res = newtonScalar(
      [](double v, double& df) {
        df = 2.0 * v;
        return v * v - 2.0;
      },
      x);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(x, std::sqrt(2.0), 1e-8);
  EXPECT_LE(res.iterations, 10);
}

TEST(NewtonScalar, QuadraticConvergenceIsFast) {
  // Starting close, Newton should need very few iterations at tol 1e-9 —
  // the regime the paper exploits (<= 3 iterations per FDTD step).
  double x = 1.4;
  const auto res = newtonScalar(
      [](double v, double& df) {
        df = 2.0 * v;
        return v * v - 2.0;
      },
      x, {.max_iterations = 50, .tolerance = 1e-9});
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 3);
}

TEST(NewtonScalar, LinearProblemOneIteration) {
  double x = 0.0;
  const auto res = newtonScalar(
      [](double v, double& df) {
        df = 3.0;
        return 3.0 * v - 6.0;
      },
      x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_NEAR(x, 2.0, 1e-12);
}

TEST(NewtonScalar, AlreadyConvergedZeroIterations) {
  double x = 2.0;
  const auto res = newtonScalar(
      [](double v, double& df) {
        df = 1.0;
        return v - 2.0;
      },
      x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(NewtonScalar, FlatDerivativeFails) {
  double x = 0.0;
  const auto res = newtonScalar(
      [](double, double& df) {
        df = 0.0;
        return 1.0;
      },
      x);
  EXPECT_FALSE(res.converged);
}

TEST(NewtonScalar, StepClampDamps) {
  double x = 0.0;
  NewtonOptions opt;
  opt.max_step = 0.1;
  opt.max_iterations = 200;
  const auto res = newtonScalar(
      [](double v, double& df) {
        df = 1.0;
        return v - 5.0;
      },
      x, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.iterations, 50);  // 5.0 / 0.1 steps
  EXPECT_NEAR(x, 5.0, 1e-9);
}

}  // namespace
}  // namespace fdtdmm
