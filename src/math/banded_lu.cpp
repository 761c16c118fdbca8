#include "math/banded_lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fdtdmm {

std::vector<std::size_t> reverseCuthillMcKee(const SparseMatrix& a) {
  if (!a.finalized())
    throw std::invalid_argument("reverseCuthillMcKee: matrix not finalized");
  const std::size_t n = a.dim();
  // Structurally symmetrized adjacency (pattern of A + A^T, no diagonal).
  std::vector<std::vector<std::size_t>> adj(n);
  const auto& row_ptr = a.rowPtr();
  const auto& col_idx = a.colIdx();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<std::size_t> queue;
  std::size_t head = 0;
  auto degreeLess = [&](std::size_t u, std::size_t v) {
    return adj[u].size() != adj[v].size() ? adj[u].size() < adj[v].size() : u < v;
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
      for (std::size_t v : adj[u]) {
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

namespace {

// The per-scalar inputs of BandedLu: one CSR matrix (real) or a re/im pair
// on one pattern (complex). These overloads are the only code that tells
// the two apart; all of them resolve at compile time.

const SparseMatrix& patternOf(const SparseMatrix& a) { return a; }
const SparseMatrix& patternOf(const ComplexCsr& a) { return a.re; }

// Key of the symbolic cache: a complex pair's halves are versioned apart.
std::array<std::uint64_t, 2> patternVersions(const SparseMatrix& a) {
  return {a.patternVersion(), 0};
}
std::array<std::uint64_t, 2> patternVersions(const ComplexCsr& a) {
  return {a.re.patternVersion(), a.im.patternVersion()};
}

void checkInput(const SparseMatrix& a) {
  if (!a.finalized()) throw std::invalid_argument("BandedLu::factor: matrix not finalized");
  if (a.dim() == 0) throw std::invalid_argument("BandedLu::factor: empty matrix");
}
void checkInput(const ComplexCsr& a) {
  checkInput(a.re);
  checkInput(a.im);
  if (a.re.dim() != a.im.dim() || a.re.rowPtr() != a.im.rowPtr() ||
      a.re.colIdx() != a.im.colIdx())
    throw std::invalid_argument("BandedLu::factor: real/imaginary patterns differ");
}

// CSR entry k as a band scalar.
double csrEntry(const SparseMatrix& a, std::size_t k) { return a.values()[k]; }
Complex csrEntry(const ComplexCsr& a, std::size_t k) {
  return Complex(a.re.values()[k], a.im.values()[k]);
}

}  // namespace

template <typename Scalar>
void BandedLu<Scalar>::analyzeWithOrder(const Csr& a, std::vector<std::size_t> order) {
  const SparseMatrix& p = patternOf(a);
  n_ = p.dim();
  order_ = std::move(order);
  pos_.assign(n_, 0);
  for (std::size_t k = 0; k < n_; ++k) pos_[order_[k]] = k;

  kl_ = ku_ = 0;
  const auto& row_ptr = p.rowPtr();
  const auto& col_idx = p.colIdx();
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
  analyzed_versions_ = patternVersions(a);
}

template <typename Scalar>
void BandedLu<Scalar>::factor(const Csr& a) {
  checkInput(a);
  factored_ = false;
  const SparseMatrix& p = patternOf(a);
  if (p.dim() != n_ || patternVersions(a) != analyzed_versions_) {
    analyzeWithOrder(a, reverseCuthillMcKee(p));
    ++orderings_computed_;
  }
  factorNumeric(a);
}

template <typename Scalar>
void BandedLu<Scalar>::factorWithOrder(const Csr& a, const std::vector<std::size_t>& order) {
  checkInput(a);
  const SparseMatrix& p = patternOf(a);
  if (order.size() != p.dim())
    throw std::invalid_argument("BandedLu::factorWithOrder: ordering size mismatch");
  factored_ = false;
  if (p.dim() != n_ || patternVersions(a) != analyzed_versions_ || order_ != order)
    analyzeWithOrder(a, order);
  factorNumeric(a);
}

template <typename Scalar>
void BandedLu<Scalar>::factorNumeric(const Csr& a) {
  // Scatter the permuted matrix into band storage.
  std::fill(ab_.begin(), ab_.end(), Scalar(0.0));
  const SparseMatrix& p = patternOf(a);
  const auto& row_ptr = p.rowPtr();
  const auto& col_idx = p.colIdx();
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t i = pos_[r];
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      at(i, pos_[col_idx[k]]) += csrEntry(a, k);
  }

  // Health probes (minAbsPivot/pivotGrowth): the band holds exactly the
  // permuted A right after the scatter, so one pass gives max|A|; the
  // pivot minimum rides the pivot search below and max|U| is scanned from
  // the upper band afterwards. O(n * band) — free next to the O(n b^2)
  // elimination.
  max_abs_a_ = 0.0;
  for (const Scalar& v : ab_) max_abs_a_ = std::max(max_abs_a_, std::abs(v));
  min_abs_pivot_ = 0.0;
  max_abs_u_ = 0.0;

  // Banded LU with partial pivoting (unblocked gbtrf). For column j the
  // pivot search spans rows j..j+kl — by construction of kl every
  // structurally nonzero candidate — and row swaps touch only columns
  // j..j+kl+ku, which all lie inside the widened band.
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t i_max = std::min(n_ - 1, j + kl_);
    std::size_t ip = j;
    double p_abs = std::abs(atc(j, j));
    for (std::size_t i = j + 1; i <= i_max; ++i) {
      const double v = std::abs(atc(i, j));
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
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t i_min = j > kl_ + ku_ ? j - kl_ - ku_ : 0;
    for (std::size_t i = i_min; i <= j; ++i)
      max_abs_u_ = std::max(max_abs_u_, std::abs(atc(i, j)));
  }
  factored_ = true;
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
