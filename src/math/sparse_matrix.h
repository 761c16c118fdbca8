#pragma once
/// \file sparse_matrix.h
/// Compressed-sparse-row stamp target of the MNA engines: real for the
/// transient engine and the DC operating point, complex for the AC engine.
///
/// Lifecycle (two-phase, mirroring the engine's static/dynamic stamp split):
///
///  1. *Building*: after reset(n), add(r, c, v) accumulates coordinate
///     triplets. finalize() compiles them into CSR form — sorted column
///     indices per row, duplicates summed — fixing the *symbolic pattern*.
///  2. *Finalized*: add(r, c, v) scatters into the existing pattern by
///     binary search, refreshing numeric values in place with no
///     allocation. The pattern never grows: an add outside it throws.
///
/// A matrix can also skip the building phase: adoptPattern() starts it
/// finalized, with zero values, on a pattern another matrix compiled and
/// exported with pattern(). That is how the sessions of one structure
/// class share one compile (circuit/solver_state.h): each adopts the
/// class pattern and stamps its values straight into it.
///
/// Pattern identity is tracked by a process-unique version stamp, shared by
/// both scalars: two matrices with equal patternVersion() are guaranteed to
/// share the same pattern (copies and adopters inherit the stamp; any
/// pattern change takes a fresh one), which is what lets setValuesFrom() be
/// a plain memcpy.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/matrix.h"

namespace fdtdmm {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// A compiled CSR pattern without values: what pattern() exports and
/// adoptPattern() starts a matrix on. Scalar-independent, so one version
/// counter names it process-wide.
struct CsrPattern {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;  ///< n + 1 row offsets into col_idx
  std::vector<std::size_t> col_idx;  ///< sorted column indices per row
  std::uint64_t version = 0;         ///< patternVersion() of the exporter
};

/// Square sparse matrix over `Scalar` (double or Complex; both are
/// instantiated in sparse_matrix.cpp) in CSR form with a COO building
/// phase.
template <typename Scalar>
class CsrMatrix {
 public:
  /// Creates an empty (dimension-0, building) matrix; call reset().
  CsrMatrix() = default;

  /// Starts a building phase for an n x n matrix (previous content
  /// discarded).
  explicit CsrMatrix(std::size_t n) { reset(n); }

  void reset(std::size_t n);

  std::size_t dim() const { return n_; }
  bool finalized() const { return finalized_; }

  /// Building: appends a coordinate triplet. Finalized: adds v to the
  /// pattern entry (r, c).
  /// \throws std::out_of_range if r or c >= dim(); std::logic_error if the
  ///         matrix is finalized and (r, c) is not in its pattern.
  void add(std::size_t r, std::size_t c, Scalar v);

  /// Compiles the accumulated triplets to CSR and fixes the pattern.
  /// \throws std::logic_error if already finalized.
  void finalize();

  /// The compiled pattern with its version stamp (finalized only).
  /// \throws std::logic_error while building.
  CsrPattern pattern() const;

  /// Discards the current content and starts a finalized matrix on `p`:
  /// zero values and p's version stamp, so the adopter and
  /// the exporter still compare equal by patternVersion().
  /// \throws std::invalid_argument if `p` is not a compiled pattern
  ///         (version 0 or array sizes that do not fit n).
  void adoptPattern(const CsrPattern& p);

  /// Copies numeric values from `base`, which must share this matrix's
  /// pattern (equal patternVersion()). Allocation-free.
  /// \throws std::logic_error on a pattern mismatch.
  void setValuesFrom(const CsrMatrix& base);

  /// Zeroes the numeric values, keeping the pattern.
  void clearValues();

  /// Pattern identity stamp (see file comment). 0 while building.
  std::uint64_t patternVersion() const { return version_; }

  /// Number of stored entries (pattern size; finalized only).
  std::size_t nonZeros() const { return col_idx_.size(); }

  // CSR access (finalized only; row r spans [row_ptr[r], row_ptr[r+1])).
  const std::vector<std::size_t>& rowPtr() const { return row_ptr_; }
  const std::vector<std::size_t>& colIdx() const { return col_idx_; }
  const std::vector<Scalar>& values() const { return values_; }

  /// Entry lookup; 0 for positions outside the pattern (finalized only).
  Scalar at(std::size_t r, std::size_t c) const;

  /// Dense copy, for tests and diagnostics (finalized only; real matrices
  /// only).
  Matrix toDense() const;

 private:
  struct Triplet {
    std::size_t r, c;
    Scalar v;
  };

  /// Index into values_ for (r, c), or npos when absent.
  std::size_t find(std::size_t r, std::size_t c) const;

  std::size_t n_ = 0;
  bool finalized_ = false;
  std::uint64_t version_ = 0;
  std::vector<Triplet> building_;  ///< COO accumulator (building phase)
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<Scalar> values_;
};

/// The real system of the transient engine and the DC operating point.
using SparseMatrix = CsrMatrix<double>;

template <>
Matrix CsrMatrix<double>::toDense() const;

extern template class CsrMatrix<double>;
extern template class CsrMatrix<Complex>;

}  // namespace fdtdmm
