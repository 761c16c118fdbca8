#include "math/low_rank_update.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {

bool LowRankUpdate::setChange(const SparseMatrix& base, const SparseMatrix& updated) {
  if (base.patternVersion() != updated.patternVersion())
    throw std::logic_error("LowRankUpdate::setChange: the matrices differ in pattern");
  k_ = 0;
  n_cols_ = 0;
  m_.fill(0.0);
  const auto& row_ptr = base.rowPtr();
  const auto& col_idx = base.colIdx();
  const auto& a0 = base.values();
  const auto& a = updated.values();
  for (std::size_t r = 0; r < base.dim(); ++r) {
    std::size_t i = kMax;  // this row's index in R, once it has a change
    for (std::size_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      const double d = a[p] - a0[p];
      if (d == 0.0) continue;
      if (i == kMax) {
        if (k_ == kMax) return false;
        i = k_;
        rows_[k_++] = r;
      }
      const std::size_t c = col_idx[p];
      std::size_t j = 0;
      while (j < n_cols_ && cols_[j] != c) ++j;
      if (j == n_cols_) {
        if (n_cols_ == kMax) return false;
        cols_[n_cols_++] = c;
      }
      m_[i * kMax + j] = d;
    }
  }
  return true;
}

bool LowRankUpdate::solve(const Vector& b, Vector& x) {
  base_.solve(b, x);  // y
  const std::size_t k = k_;
  if (k == 0) return true;

  if (k != z_k_ || !std::equal(rows_.begin(), rows_.begin() + k, z_rows_.begin())) {
    unit_.assign(base_.dim(), 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      unit_[rows_[i]] = 1.0;
      base_.solve(unit_, z_[i]);
      unit_[rows_[i]] = 0.0;
    }
    z_rows_ = rows_;
    z_k_ = k;
    ++basis_builds_;
  }

  // S = I + M Z_C and rhs = M y_C, with mag holding the magnitude of the
  // terms that formed each entry of S. Every test below is written so that
  // a NaN declines.
  std::array<double, kMax * kMax> s{}, mag{};
  std::array<double, kMax> rhs{}, w{};
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t c = 0; c < n_cols_; ++c) rhs[i] += m_[i * kMax + c] * x[cols_[c]];
    for (std::size_t j = 0; j < k; ++j) {
      double sum = 0.0, abs_sum = 0.0;
      for (std::size_t c = 0; c < n_cols_; ++c) {
        const double t = m_[i * kMax + c] * z_[j][cols_[c]];
        sum += t;
        abs_sum += std::abs(t);
      }
      if (!(abs_sum * kMinCancellationRatio <= 1.0)) return false;
      s[i * kMax + j] = (i == j ? 1.0 : 0.0) + sum;
      mag[i * kMax + j] = (i == j ? 1.0 : 0.0) + abs_sum;
    }
  }

  // Elimination with partial pivoting; each update adds |l| times the
  // pivot row's magnitude to the entries it touches.
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t p = j;
    for (std::size_t i = j + 1; i < k; ++i) {
      if (std::abs(s[i * kMax + j]) > std::abs(s[p * kMax + j])) p = i;
    }
    if (p != j) {
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(s[j * kMax + c], s[p * kMax + c]);
        std::swap(mag[j * kMax + c], mag[p * kMax + c]);
      }
      std::swap(rhs[j], rhs[p]);
    }
    const double pivot = s[j * kMax + j];
    if (!(std::abs(pivot) > kMinCancellationRatio * mag[j * kMax + j])) return false;
    for (std::size_t i = j + 1; i < k; ++i) {
      const double l = s[i * kMax + j] / pivot;
      for (std::size_t c = j + 1; c < k; ++c) {
        s[i * kMax + c] -= l * s[j * kMax + c];
        mag[i * kMax + c] += std::abs(l) * mag[j * kMax + c];
      }
      rhs[i] -= l * rhs[j];
    }
  }
  for (std::size_t j = k; j-- > 0;) {
    double acc = rhs[j];
    for (std::size_t c = j + 1; c < k; ++c) acc -= s[j * kMax + c] * w[c];
    w[j] = acc / s[j * kMax + j];
  }

  for (std::size_t i = 0; i < k; ++i) {
    const Vector& z = z_[i];
    const double wi = w[i];
    for (std::size_t r = 0; r < x.size(); ++r) x[r] -= z[r] * wi;
  }
  return true;
}

}  // namespace fdtdmm
