#include "math/banded_lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {

template <typename Scalar>
std::vector<std::size_t> reverseCuthillMcKee(const CsrMatrix<Scalar>& a) {
  if (!a.finalized())
    throw std::invalid_argument("reverseCuthillMcKee: matrix not finalized");
  const std::size_t n = a.dim();
  // Structurally symmetrized adjacency (pattern of A + A^T, no diagonal) in
  // one CSR array: count, fill, then sort and dedupe each row in place.
  // Row v's neighbours are adj[adj_ptr[v] .. adj_end[v]).
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  std::vector<std::size_t> adj_ptr(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r) continue;
      ++adj_ptr[r + 1];
      ++adj_ptr[c + 1];
    }
  }
  for (std::size_t r = 0; r < n; ++r) adj_ptr[r + 1] += adj_ptr[r];
  std::vector<std::size_t> adj(adj_ptr[n]);
  std::vector<std::size_t> adj_end(adj_ptr.begin(), adj_ptr.end() - 1);  // fill cursors
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r) continue;
      adj[adj_end[r]++] = c;
      adj[adj_end[c]++] = r;
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(adj_ptr[r]);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(adj_end[r]);
    std::sort(first, last);
    adj_end[r] = static_cast<std::size_t>(std::unique(first, last) - adj.begin());
  }
  const auto degree = [&](std::size_t v) { return adj_end[v] - adj_ptr[v]; };

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<std::size_t> queue;
  std::size_t head = 0;
  auto degreeLess = [&](std::size_t u, std::size_t v) {
    return degree(u) != degree(v) ? degree(u) < degree(v) : u < v;
  };
  while (order.size() < n) {
    // Seed the next component at a minimum-degree unvisited vertex — a
    // cheap stand-in for a pseudo-peripheral start that works well on the
    // chain-like MNA graphs this solver targets.
    std::size_t seed = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!visited[v] && (seed == n || degreeLess(v, seed))) seed = v;
    }
    visited[seed] = true;
    queue.push_back(seed);
    while (head < queue.size()) {
      const std::size_t u = queue[head++];
      order.push_back(u);
      std::size_t first_new = queue.size();
      for (std::size_t k = adj_ptr[u]; k < adj_end[u]; ++k) {
        const std::size_t v = adj[k];
        if (!visited[v]) {
          visited[v] = true;
          queue.push_back(v);
        }
      }
      std::sort(queue.begin() + static_cast<std::ptrdiff_t>(first_new), queue.end(),
                degreeLess);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

template std::vector<std::size_t> reverseCuthillMcKee(const CsrMatrix<double>&);
template std::vector<std::size_t> reverseCuthillMcKee(const CsrMatrix<Complex>&);

namespace {

template <typename Scalar>
void checkInput(const CsrMatrix<Scalar>& a) {
  if (!a.finalized()) throw std::invalid_argument("BandedLu::factor: matrix not finalized");
  if (a.dim() == 0) throw std::invalid_argument("BandedLu::factor: empty matrix");
}

// Entry magnitude of the pivot search and the health probes.
double magnitude(double v) { return std::abs(v); }

// |v| without glibc's hypot, which costs about as much as a complex
// multiply-add of the elimination. While the larger part lies in
// [1e-150, 1e150], re^2 + im^2 can neither overflow nor lose the larger
// square to underflow, so the plain root is within about an ulp of
// std::abs. It is 0 only for 0 (which takes std::abs, as do NaN and inf:
// they fail the bounds).
double magnitude(const Complex& v) {
  const double re = std::abs(v.real());
  const double im = std::abs(v.imag());
  if (re <= 1e150 && im <= 1e150 && (re >= 1e-150 || im >= 1e-150))
    return std::sqrt(re * re + im * im);
  return std::abs(v);
}

}  // namespace

template <typename Scalar>
void BandedLu<Scalar>::analyzeWithOrder(const CsrMatrix<Scalar>& a,
                                        const std::vector<std::size_t>& order) {
  n_ = a.dim();
  order_ = order;
  pos_.assign(n_, 0);
  for (std::size_t k = 0; k < n_; ++k) pos_[order_[k]] = k;

  kl_ = ku_ = 0;
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t i = pos_[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t j = pos_[col_idx[k]];
      if (i > j) kl_ = std::max(kl_, i - j);
      if (j > i) ku_ = std::max(ku_, j - i);
    }
  }
  ldab_ = 2 * kl_ + ku_ + 1;  // kl spare superdiagonals absorb pivot growth
  shift_ = kl_ + ku_;
  ab_.assign(ldab_ * n_, Scalar(0.0));
  piv_.assign(n_, 0);
  analyzed_version_ = a.patternVersion();
}

template <typename Scalar>
void BandedLu<Scalar>::factor(const CsrMatrix<Scalar>& a) {
  checkInput(a);
  factored_ = false;
  if (a.dim() != n_ || a.patternVersion() != analyzed_version_) {
    analyzeWithOrder(a, reverseCuthillMcKee(a));
    ++orderings_computed_;
  }
  factorNumeric(a);
}

template <typename Scalar>
void BandedLu<Scalar>::factorWithOrder(const CsrMatrix<Scalar>& a,
                                       const std::vector<std::size_t>& order) {
  checkInput(a);
  if (order.size() != a.dim())
    throw std::invalid_argument("BandedLu::factorWithOrder: ordering size mismatch");
  factored_ = false;
  if (a.dim() != n_ || a.patternVersion() != analyzed_version_ || order_ != order)
    analyzeWithOrder(a, order);
  factorNumeric(a);
}

template <typename Scalar>
void BandedLu<Scalar>::factorNumeric(const CsrMatrix<Scalar>& a) {
  // Scatter the permuted matrix into band storage.
  std::fill(ab_.begin(), ab_.end(), Scalar(0.0));
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  const auto& values = a.values();
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t i = pos_[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      at(i, pos_[col_idx[k]]) += values[k];
  }

  // The pivot minimum (minAbsPivot) rides the pivot search below; the
  // growth probe is left to pivotGrowth().
  min_abs_pivot_ = 0.0;

  // Banded LU with partial pivoting (unblocked gbtrf). For column j the
  // pivot search spans rows j..j+kl — by construction of kl every
  // structurally nonzero candidate — and row swaps touch only columns
  // j..j+kl+ku, which all lie inside the widened band.
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t i_max = std::min(n_ - 1, j + kl_);
    std::size_t ip = j;
    double p_abs = magnitude(atc(j, j));
    for (std::size_t i = j + 1; i <= i_max; ++i) {
      const double v = magnitude(atc(i, j));
      if (v > p_abs) {
        p_abs = v;
        ip = i;
      }
    }
    if (p_abs == 0.0) throw std::runtime_error("BandedLu::factor: singular matrix");
    min_abs_pivot_ = j == 0 ? p_abs : std::min(min_abs_pivot_, p_abs);
    piv_[j] = ip;
    const std::size_t c_max = std::min(n_ - 1, j + kl_ + ku_);
    if (ip != j) {
      for (std::size_t c = j; c <= c_max; ++c) std::swap(at(j, c), at(ip, c));
    }
    const Scalar pivot = atc(j, j);
    for (std::size_t i = j + 1; i <= i_max; ++i) {
      const Scalar l = atc(i, j) / pivot;
      at(i, j) = l;
      if (l == Scalar(0.0)) continue;
      for (std::size_t c = j + 1; c <= c_max; ++c) at(i, c) -= l * atc(j, c);
    }
  }
  factored_ = true;
}

template <typename Scalar>
double BandedLu<Scalar>::pivotGrowth(const CsrMatrix<Scalar>& a) const {
  if (!factored_) return 0.0;
  if (a.dim() != n_ || a.patternVersion() != analyzed_version_)
    throw std::invalid_argument("BandedLu::pivotGrowth: not the factored matrix");
  // max|A| over the CSR values is max|A| over the scattered band: each
  // value lands alone in its band slot and the rest of the band is zero.
  // O(n * band) magnitudes against the O(n kl (kl + ku)) multiply-adds of
  // the elimination: at kl = ku = 2 about as many, which is why a complex
  // magnitude skips hypot (magnitude()).
  double max_abs_a = 0.0;
  for (const Scalar& v : a.values()) max_abs_a = std::max(max_abs_a, magnitude(v));
  if (max_abs_a == 0.0) return 0.0;
  double max_abs_u = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t i_min = j > kl_ + ku_ ? j - kl_ - ku_ : 0;
    for (std::size_t i = i_min; i <= j; ++i)
      max_abs_u = std::max(max_abs_u, magnitude(atc(i, j)));
  }
  return max_abs_u / max_abs_a;
}

template <typename Scalar>
void BandedLu<Scalar>::solve(const Vec& b, Vec& x) const {
  if (!factored_) throw std::logic_error("BandedLu::solve: not factored");
  if (b.size() != n_) throw std::invalid_argument("BandedLu::solve: size mismatch");
  Vec& work = work_;
  work.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) work[k] = b[order_[k]];
  // Forward: apply pivots interleaved with the L columns (gbtrs order).
  for (std::size_t j = 0; j < n_; ++j) {
    if (piv_[j] != j) std::swap(work[j], work[piv_[j]]);
    const Scalar yj = work[j];
    if (yj == Scalar(0.0)) continue;
    const std::size_t i_max = std::min(n_ - 1, j + kl_);
    for (std::size_t i = j + 1; i <= i_max; ++i) work[i] -= atc(i, j) * yj;
  }
  // Backward: U has bandwidth ku + kl after pivot growth.
  for (std::size_t j = n_; j-- > 0;) {
    const Scalar yj = work[j] / atc(j, j);
    work[j] = yj;
    if (yj == Scalar(0.0)) continue;
    const std::size_t i_min = j > kl_ + ku_ ? j - kl_ - ku_ : 0;
    for (std::size_t i = i_min; i < j; ++i) work[i] -= atc(i, j) * yj;
  }
  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order_[k]] = work[k];
}

template <typename Scalar>
typename BandedLu<Scalar>::Vec BandedLu<Scalar>::solve(const Vec& b) const {
  Vec x;
  solve(b, x);
  return x;
}

template <typename Scalar>
void BandedLu<Scalar>::solveTranspose(const Vec& b, Vec& x) const {
  if (!factored_) throw std::logic_error("BandedLu::solveTranspose: not factored");
  if (b.size() != n_)
    throw std::invalid_argument("BandedLu::solveTranspose: size mismatch");
  // The RCM permutation is symmetric (rows and columns reordered alike),
  // so the transpose of the permuted matrix is the permuted transpose:
  // the same order_ wrapping as solve() applies.
  Vec& work = work_;
  work.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) work[k] = b[order_[k]];
  // U^T z = b: U's band column j reaches up to kl + ku rows above the
  // diagonal, so U^T's forward substitution gathers from that range.
  for (std::size_t j = 0; j < n_; ++j) {
    Scalar acc = work[j];
    const std::size_t i_min = j > kl_ + ku_ ? j - kl_ - ku_ : 0;
    for (std::size_t i = i_min; i < j; ++i) acc -= atc(i, j) * work[i];
    work[j] = acc / atc(j, j);
  }
  // Undo the interleaved L_j / P_j factors in reverse (gbtrs TRANS='T'):
  // apply L_j^T's inverse (gather the multipliers of column j), then the
  // row interchange of step j.
  for (std::size_t j = n_; j-- > 0;) {
    const std::size_t i_max = std::min(n_ - 1, j + kl_);
    Scalar acc = work[j];
    for (std::size_t i = j + 1; i <= i_max; ++i) acc -= atc(i, j) * work[i];
    work[j] = acc;
    if (piv_[j] != j) std::swap(work[j], work[piv_[j]]);
  }
  x.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order_[k]] = work[k];
}

template class BandedLu<double>;
template class BandedLu<Complex>;

}  // namespace fdtdmm
