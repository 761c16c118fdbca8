#pragma once
/// \file linear_solve.h
/// Direct linear solvers: dense LU with partial pivoting for square
/// systems and Householder-QR least squares (RBF weight fitting, the
/// skin-effect fit). Both MNA engines factor with BandedLu
/// (math/banded_lu.h); the dense LU is the reference the test oracles
/// solve with.

#include "math/matrix.h"

namespace fdtdmm {

/// LU factorization with partial pivoting of a square matrix.
/// Factor once, solve many right-hand sides. Re-factoring works in place:
/// `factor` and the two-argument `solve` reuse their internal storage and
/// perform no allocations after the first call at a given dimension.
class LuFactorization {
 public:
  /// Creates an empty factorization; call factor() before solve().
  LuFactorization() = default;

  /// Factors A (square). \throws std::invalid_argument if A is not square,
  /// std::runtime_error if A is numerically singular.
  explicit LuFactorization(Matrix a);

  /// Re-factors from A, reusing internal storage when the dimension is
  /// unchanged. Same error behavior as the constructor. On a singularity
  /// error the factorization is left empty.
  void factor(const Matrix& a);

  /// True once factor() (or the factoring constructor) has succeeded.
  bool factored() const { return factored_; }

  /// Solves A x = b. \throws std::invalid_argument on size mismatch,
  /// std::logic_error if nothing has been factored yet.
  Vector solve(const Vector& b) const;

  /// Allocation-free variant: solves A x = b into `x` (resized as needed;
  /// `x` may not alias `b`). Same error behavior as solve(b).
  void solve(const Vector& b, Vector& x) const;

  /// Solves A^T x = b into `x` (resized; may not alias `b`): the same
  /// factorization run backwards (U^T forward, L^T backward, then the
  /// inverse row permutation). Const (scratch is call-local), so any
  /// number of threads may transpose-solve one shared factorization —
  /// this is what the Hager condition estimator (obs/health.h) calls on
  /// the already-cached base LU instead of refactorizing.
  void solveTranspose(const Vector& b, Vector& x) const;

  std::size_t dim() const { return lu_.rows(); }

  /// Numerical-health probes of the last successful factorization
  /// (obs/health.h): the smallest pivot magnitude selected by partial
  /// pivoting, and the element-growth factor max|U| / max|A| (close to 1
  /// for well-behaved systems; large growth flags instability). Both are
  /// 0 before the first factor().
  double minAbsPivot() const { return min_abs_pivot_; }
  double pivotGrowth() const {
    return max_abs_a_ > 0.0 ? max_abs_u_ / max_abs_a_ : 0.0;
  }

 private:
  void factorInPlace();

  Matrix lu_;
  std::vector<std::size_t> perm_;
  bool factored_ = false;
  double min_abs_pivot_ = 0.0;
  double max_abs_a_ = 0.0;
  double max_abs_u_ = 0.0;
};

/// Solves the square system A x = b by LU with partial pivoting.
/// \throws std::runtime_error if A is singular.
Vector solveLinear(const Matrix& a, const Vector& b);

/// Solves min_x ||A x - b||_2 by Householder QR. Requires rows >= cols.
/// \param ridge optional Tikhonov regularization: solves the augmented
///        system [A; sqrt(ridge) I] x = [b; 0]; ridge = 0 disables it.
/// \throws std::invalid_argument on size mismatch, std::runtime_error if
///         A is rank-deficient and ridge == 0.
Vector solveLeastSquares(const Matrix& a, const Vector& b, double ridge = 0.0);

}  // namespace fdtdmm
