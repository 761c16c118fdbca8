#include "math/sparse_matrix.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>

namespace fdtdmm {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

// One counter for both scalars, so a version names one pattern process-wide.
std::uint64_t nextVersion() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}
}  // namespace

template <typename Scalar>
void CsrMatrix<Scalar>::reset(std::size_t n) {
  n_ = n;
  finalized_ = false;
  version_ = 0;
  building_.clear();
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
}

template <typename Scalar>
void CsrMatrix<Scalar>::add(std::size_t r, std::size_t c, Scalar v) {
  if (r >= n_ || c >= n_)
    throw std::out_of_range("CsrMatrix::add: index out of range");
  if (!finalized_) {
    building_.push_back({r, c, v});
    return;
  }
  const std::size_t k = find(r, c);
  if (k == kNpos) throw std::logic_error("CsrMatrix::add: entry outside the finalized pattern");
  values_[k] += v;
}

template <typename Scalar>
std::size_t CsrMatrix<Scalar>::find(std::size_t r, std::size_t c) const {
  const auto first = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kNpos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

template <typename Scalar>
void CsrMatrix<Scalar>::finalize() {
  if (finalized_) throw std::logic_error("CsrMatrix::finalize: already finalized");
  std::sort(building_.begin(), building_.end(), [](const Triplet& a, const Triplet& b) {
    return a.r != b.r ? a.r < b.r : a.c < b.c;
  });
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(building_.size());
  values_.reserve(building_.size());
  for (std::size_t k = 0; k < building_.size();) {
    const std::size_t r = building_[k].r;
    const std::size_t c = building_[k].c;
    Scalar sum = 0.0;
    for (; k < building_.size() && building_[k].r == r && building_[k].c == c; ++k)
      sum += building_[k].v;
    row_ptr_[r + 1] += 1;
    col_idx_.push_back(c);
    values_.push_back(sum);
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  version_ = nextVersion();
  building_.clear();
  building_.shrink_to_fit();
  finalized_ = true;
}

template <typename Scalar>
CsrPattern CsrMatrix<Scalar>::pattern() const {
  if (!finalized_) throw std::logic_error("CsrMatrix::pattern: not finalized");
  return {n_, row_ptr_, col_idx_, version_};
}

template <typename Scalar>
void CsrMatrix<Scalar>::adoptPattern(const CsrPattern& p) {
  if (p.version == 0 || p.row_ptr.size() != p.n + 1 || p.row_ptr.back() != p.col_idx.size())
    throw std::invalid_argument("CsrMatrix::adoptPattern: not a compiled pattern");
  building_.clear();
  if (!finalized_ || version_ != p.version) {
    n_ = p.n;
    row_ptr_ = p.row_ptr;
    col_idx_ = p.col_idx;
    version_ = p.version;
    finalized_ = true;
  }
  values_.assign(col_idx_.size(), Scalar(0.0));
}

template <typename Scalar>
void CsrMatrix<Scalar>::setValuesFrom(const CsrMatrix& base) {
  if (!finalized_ || version_ != base.version_)
    throw std::logic_error("CsrMatrix::setValuesFrom: pattern mismatch");
  std::copy(base.values_.begin(), base.values_.end(), values_.begin());
}

template <typename Scalar>
void CsrMatrix<Scalar>::clearValues() {
  std::fill(values_.begin(), values_.end(), Scalar(0.0));
}

template <typename Scalar>
Scalar CsrMatrix<Scalar>::at(std::size_t r, std::size_t c) const {
  if (!finalized_) throw std::logic_error("CsrMatrix::at: not finalized");
  if (r >= n_ || c >= n_)
    throw std::out_of_range("CsrMatrix::at: index out of range");
  const std::size_t k = find(r, c);
  return k == kNpos ? Scalar(0.0) : values_[k];
}

template <>
Matrix CsrMatrix<double>::toDense() const {
  if (!finalized_) throw std::logic_error("CsrMatrix::toDense: not finalized");
  Matrix m(n_, n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      m(r, col_idx_[k]) += values_[k];
  return m;
}

template class CsrMatrix<double>;
template class CsrMatrix<Complex>;

}  // namespace fdtdmm
