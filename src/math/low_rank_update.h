#pragma once
/// \file low_rank_update.h
/// Solves a system whose matrix differs from an already-factored base in a
/// few rows, without factoring it: the Woodbury identity on top of the
/// base's BandedLu<double>.
///
/// Let A0 be the base and A = A0 + dA, with dA confined to the row set R
/// (k = |R|) and the column set C, and M its k x |C| block of values. Then
///
///   y = A0^-1 b,   Z = A0^-1 E_R,   (I + M Z_C) w = M y_C,   x = y - Z w,
///
/// where E_R holds the unit columns of R and Z_C, y_C are the rows C of Z
/// and y. Z costs k substitutions and is kept while R stays the same, so a
/// nonlinear device that dirties the same rows at every Newton iteration
/// pays for it once per run. Each solve then costs one base substitution,
/// the O(nnz) value diff that finds R, C and M, and O(n k) for the
/// correction. The k x k system is solved by Gaussian elimination with
/// partial pivoting.
///
/// The update declines (and the caller factors A itself) when the change
/// is wider than kMaxUpdateRank rows or columns, or when the correction
/// would cancel (kMinCancellationRatio).

#include <array>
#include <cstddef>

#include "math/banded_lu.h"
#include "math/sparse_matrix.h"

namespace fdtdmm {

/// Most rows or columns a change may span. A two-terminal port dirties at
/// most two rows (one for a port to ground) and a MOSFET two rows and three
/// columns, so four covers two floating ports or one transistor. A change
/// wider than that comes from transistor-level circuits whose devices
/// dirty many rows and swap which ones from iteration to iteration, so
/// each new row set would pay k substitutions for Z on top of the
/// k-wide correction: there one banded refactorization is the cheaper
/// solve. The cap also keeps M, Z and the k x k system in fixed storage.
constexpr std::size_t kMaxUpdateRank = 4;

/// Smallest accepted ratio of a k x k pivot to the magnitude of the terms
/// that formed it (1 and |M Z_C|, plus what elimination added). A pivot
/// below it has cancelled: by the determinant lemma, det(A) = det(A0) *
/// det(I + M Z_C), so A is near-singular relative to A0. The same bound
/// caps |M Z_C| at its inverse: beyond that the base carries less than
/// that share of A in the rows of the change, so y is that much larger
/// than x and x = y - Z w cancels. Either way the correction would lose
/// more than seven of the sixteen digits. Seven still leave about 1e-9
/// relative error, the transient engine's Newton tolerance on volt-scale
/// unknowns (TransientOptions::v_tolerance); beyond it the caller
/// refactors instead.
constexpr double kMinCancellationRatio = 1e-7;

/// Woodbury solves against one factored base. Single-threaded, like the
/// BandedLu it wraps; allocation-free once Z has been built at the
/// largest rank the run needs.
class LowRankUpdate {
 public:
  /// Binds the base factorization. It is held by reference, must be
  /// factored before the first solve() and must not be refactored while
  /// this object is in use (the cached Z is A0^-1 E_R of that base).
  explicit LowRankUpdate(const BandedLu<double>& base) : base_(base) {}

  /// Finds dA = updated - base by a value diff. The two matrices must
  /// share one pattern (equal patternVersion()). Returns false when dA
  /// spans more than kMaxUpdateRank rows or columns; the change is then
  /// unusable for solve().
  /// \throws std::logic_error on a pattern mismatch.
  bool setChange(const SparseMatrix& base, const SparseMatrix& updated);

  /// Rows the last accepted change spans (0 when updated == base).
  std::size_t rank() const { return k_; }

  /// Solves (A0 + dA) x = b for the change of the last successful
  /// setChange() into x (resized; must not alias b). Returns false, with
  /// x unspecified, when the correction would cancel (see
  /// kMinCancellationRatio).
  /// \throws std::logic_error if the base is not factored (from BandedLu).
  bool solve(const Vector& b, Vector& x);

  /// How many times Z has been built (once per new row set R).
  std::size_t basisBuilds() const { return basis_builds_; }

 private:
  static constexpr std::size_t kMax = kMaxUpdateRank;

  const BandedLu<double>& base_;
  // The change: rows R, columns C and M (row-major, kMax columns).
  std::size_t k_ = 0;
  std::size_t n_cols_ = 0;
  std::array<std::size_t, kMax> rows_{};
  std::array<std::size_t, kMax> cols_{};
  std::array<double, kMax * kMax> m_{};
  // Z = A0^-1 E_R for the rows it was built for.
  std::size_t z_k_ = 0;
  std::array<std::size_t, kMax> z_rows_{};
  std::array<Vector, kMax> z_;
  Vector unit_;
  std::size_t basis_builds_ = 0;
};

}  // namespace fdtdmm
