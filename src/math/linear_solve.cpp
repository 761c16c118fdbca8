#include "math/linear_solve.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace fdtdmm {

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  factorInPlace();
}

void LuFactorization::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  lu_ = a;  // vector copy assignment: reuses storage at an unchanged dim
  try {
    factorInPlace();
  } catch (...) {
    lu_ = Matrix();
    perm_.clear();
    factored_ = false;
    throw;
  }
}

void LuFactorization::factorInPlace() {
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // Health probes (see minAbsPivot/pivotGrowth): max|A| is scanned before
  // elimination, the pivot minimum rides the pivot search it already
  // performs, and max|U| is scanned afterwards — O(n^2) against the
  // factorization's O(n^3), so tracking stays unconditional.
  max_abs_a_ = 0.0;
  {
    const double* d = lu_.data();
    for (std::size_t i = 0; i < n * n; ++i)
      max_abs_a_ = std::max(max_abs_a_, std::abs(d[i]));
  }
  min_abs_pivot_ = 0.0;
  max_abs_u_ = 0.0;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude entry in column k.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best == 0.0) throw std::runtime_error("LuFactorization: singular matrix");
    min_abs_pivot_ = k == 0 ? best : std::min(min_abs_pivot_, best);
    if (pivot != k) {
      std::swap(perm_[k], perm_[pivot]);
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
    }
    const double inv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      max_abs_u_ = std::max(max_abs_u_, std::abs(lu_(i, j)));
  factored_ = true;
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x;
  solve(b, x);
  return x;
}

void LuFactorization::solve(const Vector& b, Vector& x) const {
  if (!factored()) throw std::logic_error("LuFactorization::solve: not factored");
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LuFactorization::solve: size mismatch");
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangular).
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
}

void LuFactorization::solveTranspose(const Vector& b, Vector& x) const {
  if (!factored())
    throw std::logic_error("LuFactorization::solveTranspose: not factored");
  const std::size_t n = lu_.rows();
  if (b.size() != n)
    throw std::invalid_argument("LuFactorization::solveTranspose: size mismatch");
  // A = P^-1 L U, so A^T x = b factors as U^T w = b, L^T v = w,
  // x = P^-1 v (i.e. x[perm[i]] = v[i] — solve() applies P on entry, the
  // transpose solve applies its inverse on exit).
  x.resize(n);
  Vector v(n);
  // U^T is lower triangular with the U diagonal: forward substitution.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(j, i) * v[j];
    v[i] = acc / lu_(i, i);
  }
  // L^T is unit upper triangular: backward substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = v[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(j, ii) * v[j];
    v[ii] = acc;
  }
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = v[i];
}

Vector solveLinear(const Matrix& a, const Vector& b) {
  return LuFactorization(a).solve(b);
}

Vector solveLeastSquares(const Matrix& a, const Vector& b, double ridge) {
  if (a.rows() != b.size()) throw std::invalid_argument("solveLeastSquares: size mismatch");
  if (a.rows() < a.cols()) throw std::invalid_argument("solveLeastSquares: underdetermined");

  // Optionally augment with sqrt(ridge)*I rows for Tikhonov regularization.
  const std::size_t m0 = a.rows();
  const std::size_t n = a.cols();
  const std::size_t m = ridge > 0.0 ? m0 + n : m0;
  Matrix r(m, n);
  Vector rhs(m, 0.0);
  for (std::size_t i = 0; i < m0; ++i) {
    for (std::size_t j = 0; j < n; ++j) r(i, j) = a(i, j);
    rhs[i] = b[i];
  }
  if (ridge > 0.0) {
    const double s = std::sqrt(ridge);
    for (std::size_t j = 0; j < n; ++j) r(m0 + j, j) = s;
  }

  // Householder QR applied in place; rhs transformed alongside.
  for (std::size_t k = 0; k < n; ++k) {
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) alpha += r(i, k) * r(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");
    if (r(k, k) > 0.0) alpha = -alpha;

    // Householder vector v stored in column k below the diagonal.
    Vector v(m - k);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vnorm2 = 0.0;
    for (double x : v) vnorm2 += x * x;
    if (vnorm2 == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");

    r(k, k) = alpha;
    for (std::size_t i = k + 1; i < m; ++i) r(i, k) = 0.0;

    for (std::size_t c = k + 1; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i)
        proj += v[i - k] * (i == k ? r(k, c) : r(i, c));
      const double f = 2.0 * proj / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= f * v[i - k];
    }
    double projb = 0.0;
    for (std::size_t i = k; i < m; ++i) projb += v[i - k] * rhs[i];
    const double fb = 2.0 * projb / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= fb * v[i - k];
  }

  // Back substitution on the n x n upper-triangular block.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = rhs[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x[j];
    if (r(ii, ii) == 0.0) throw std::runtime_error("solveLeastSquares: rank-deficient matrix");
    x[ii] = acc / r(ii, ii);
  }
  return x;
}

}  // namespace fdtdmm
