// Unit tests for LU and QR least-squares solvers.
#include "math/linear_solve.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "math/rng.h"

namespace fdtdmm {
namespace {

TEST(LuFactorization, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solveLinear(a, Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuFactorization, PivotingHandlesZeroDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solveLinear(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuFactorization, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuFactorization{a}, std::runtime_error);
}

TEST(LuFactorization, NonSquareThrows) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, std::invalid_argument);
}

TEST(LuFactorization, RandomRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + trial % 8;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    for (std::size_t d = 0; d < n; ++d) a(d, d) += 3.0;  // well conditioned
    Vector x_true(n);
    for (double& v : x_true) v = rng.normal();
    const Vector b = a * x_true;
    const Vector x = solveLinear(a, b);
    for (std::size_t k = 0; k < n; ++k) EXPECT_NEAR(x[k], x_true[k], 1e-9);
  }
}

TEST(LuFactorization, ReuseForMultipleRhs) {
  Matrix a{{4.0, 1.0}, {1.0, 4.0}};
  LuFactorization lu(a);
  const Vector x1 = lu.solve({5.0, 5.0});
  const Vector x2 = lu.solve({4.0, 1.0});
  EXPECT_NEAR(x1[0], 1.0, 1e-12);
  EXPECT_NEAR(x2[0], 1.0, 1e-12);
  EXPECT_NEAR(x2[1], 0.0, 1e-12);
}

TEST(LuFactorization, InPlaceRefactorAndSolve) {
  // The transient engine's usage pattern: default-construct, factor, solve
  // into a reused output vector, re-factor from a different matrix.
  LuFactorization lu;
  EXPECT_FALSE(lu.factored());
  EXPECT_THROW(lu.solve(Vector{1.0}), std::logic_error);

  lu.factor(Matrix{{2.0, 0.0}, {0.0, 4.0}});
  EXPECT_TRUE(lu.factored());
  Vector x;
  lu.solve(Vector{2.0, 8.0}, x);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);

  lu.factor(Matrix{{0.0, 1.0}, {1.0, 0.0}});  // needs pivoting
  lu.solve(Vector{2.0, 3.0}, x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuFactorization, FailedRefactorLeavesEmptyState) {
  LuFactorization lu;
  lu.factor(Matrix{{1.0, 0.0}, {0.0, 1.0}});
  EXPECT_THROW(lu.factor(Matrix{{1.0, 2.0}, {2.0, 4.0}}), std::runtime_error);
  EXPECT_FALSE(lu.factored());
  EXPECT_THROW(lu.solve(Vector{1.0, 1.0}), std::logic_error);
}

TEST(LeastSquares, ExactFitWhenSquare) {
  Matrix a{{1.0, 0.0}, {0.0, 2.0}};
  const Vector x = solveLeastSquares(a, Vector{3.0, 4.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedProjects) {
  // Fit y = c0 + c1 t to noisy-free line samples: exact recovery.
  const std::size_t m = 20;
  Matrix a(m, 2);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double t = static_cast<double>(i);
    a(i, 0) = 1.0;
    a(i, 1) = t;
    b[i] = 2.5 - 0.75 * t;
  }
  const Vector x = solveLeastSquares(a, b);
  EXPECT_NEAR(x[0], 2.5, 1e-10);
  EXPECT_NEAR(x[1], -0.75, 1e-10);
}

TEST(LeastSquares, RidgeShrinksSolution) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0}};
  const Vector x0 = solveLeastSquares(a, Vector{1.0, 1.0, 0.0}, 0.0);
  const Vector x1 = solveLeastSquares(a, Vector{1.0, 1.0, 0.0}, 1.0);
  EXPECT_NEAR(x0[0], 1.0, 1e-12);
  EXPECT_NEAR(x1[0], 0.5, 1e-12);  // (A^T A + I)^{-1} A^T b = 1/2
}

TEST(LeastSquares, RankDeficientThrowsWithoutRidge) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;  // collinear columns
  }
  EXPECT_THROW(solveLeastSquares(a, Vector(4, 1.0)), std::runtime_error);
  EXPECT_NO_THROW(solveLeastSquares(a, Vector(4, 1.0), 1e-6));
}

TEST(LeastSquares, UnderdeterminedThrows) {
  EXPECT_THROW(solveLeastSquares(Matrix(2, 3), Vector(2, 0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace fdtdmm
