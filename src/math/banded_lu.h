#pragma once
/// \file banded_lu.h
/// Direct solver for the CSR systems of the MNA engines, real (transient)
/// and complex (AC): a fill-reducing reverse Cuthill-McKee ordering
/// followed by banded LU with partial pivoting (LAPACK gbtrf-style band
/// storage with kl spare superdiagonals for pivot growth).
///
/// Why banded + RCM rather than a general sparse LU: segmented RLGC board
/// models produce chain-structured graphs whose RCM-permuted matrices have
/// tiny bandwidth (a handful of diagonals regardless of segment count), so
/// factorization is O(n b^2) and each substitution O(n b) — versus O(n^3) /
/// O(n^2) dense. Partial pivoting within the band is exactly as robust as
/// dense partial pivoting here, because every structurally possible pivot
/// candidate of column j lies within kl rows of the diagonal by the band's
/// definition. On a pathological (dense-ish) pattern the band degrades
/// towards n and the solver remains correct, merely not faster.
///
/// The symbolic stage (ordering + band extents + storage) is cached by the
/// matrix's pattern-version stamp: refactoring a matrix with an unchanged
/// pattern reuses it and performs no allocations.
///
/// One class template serves both scalars. The AC system A(omega) = G +
/// j*omega*B is assembled as two real CSR targets sharing one pattern (see
/// circuit/elements.h AcStampSystem), so BandedLu<Complex> factors a
/// ComplexCsr (re, im) pair rather than a native complex storage type — the
/// CSR SparseMatrix stays the only sparse assembly substrate. Only the
/// scatter of the CSR values into the band differs between the scalars;
/// the ordering, elimination, substitutions and health probes are one code
/// path. Because the symbolic stage is a pure function of the pattern, an
/// ordering published through the SolverStateCache seeds factorWithOrder
/// in either engine, and every frequency point of an AC sweep reuses one
/// symbolic analysis (the AcSession economy, src/freq/ac_engine.h).

#include <array>
#include <complex>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "math/sparse_matrix.h"

namespace fdtdmm {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/// The CSR input of a complex factorization, A = re + j*im. Both matrices
/// must be finalized with the SAME pattern (equal rowPtr/colIdx — the
/// AcStampSystem writes both targets on every add, which guarantees it).
struct ComplexCsr {
  const SparseMatrix& re;
  const SparseMatrix& im;
};

/// Reverse Cuthill-McKee ordering of a (structurally symmetrized) CSR
/// pattern. Returns `order` with order[new_index] = old_index; handles
/// disconnected components (each seeded at a minimum-degree vertex).
std::vector<std::size_t> reverseCuthillMcKee(const SparseMatrix& a);

/// Banded LU factorization of a finalized CSR system over `Scalar` (double
/// or Complex; both are instantiated in banded_lu.cpp). Factor once, solve
/// many right-hand sides; re-factoring with the same pattern reuses all
/// storage.
template <typename Scalar>
class BandedLu {
 public:
  /// What factor() reads: one SparseMatrix for real systems, a ComplexCsr
  /// pair for complex ones.
  using Csr = std::conditional_t<std::is_same_v<Scalar, double>, SparseMatrix, ComplexCsr>;
  using Vec = std::vector<Scalar>;

  /// Factors A. Re-runs the symbolic analysis only when A's pattern version
  /// (both versions, for a complex pair) differs from the last factored
  /// one. \throws std::invalid_argument if A is not finalized, has
  /// dimension 0, or (complex) its real and imaginary patterns differ;
  /// std::runtime_error if A is numerically singular (the factorization is
  /// left empty).
  void factor(const Csr& a);

  /// Factors A like factor(), but seeds the symbolic stage with a
  /// precomputed fill-reducing ordering (order[new] = old) instead of
  /// recomputing RCM — the cross-run symbolic-sharing hook: an ordering
  /// computed from an identical pattern yields a bit-identical
  /// factorization, so runs of one structure class (and every frequency
  /// point of an AC sweep) pay for RCM once.
  /// \throws std::invalid_argument if `order` is not dim()-sized (on top of
  ///         factor()'s errors). An ordering from a *different* pattern is
  ///         still a valid permutation (the result stays correct, merely
  ///         not band-optimal), but then the sharing key was wrong.
  void factorWithOrder(const Csr& a, const std::vector<std::size_t>& order);

  /// Ordering of the last symbolic analysis (order[new] = old; empty until
  /// the first factor). Publishable to other instances via factorWithOrder.
  const std::vector<std::size_t>& ordering() const { return order_; }

  /// RCM orderings this instance computed itself (factor() on a new
  /// pattern); factorWithOrder never adds to it.
  std::size_t orderingsComputed() const { return orderings_computed_; }

  bool factored() const { return factored_; }
  std::size_t dim() const { return n_; }

  /// Band extents of the RCM-permuted matrix (valid after factor()).
  std::size_t lowerBandwidth() const { return kl_; }
  std::size_t upperBandwidth() const { return ku_; }

  /// Solves A x = b into x (resized; must not alias b). Allocation-free
  /// after the first call at a given dimension. NOT safe for concurrent
  /// calls on one instance (uses an internal scratch vector); concurrent
  /// sharers use the caller-workspace overload below.
  /// \throws std::invalid_argument on size mismatch, std::logic_error if
  ///         nothing has been factored.
  void solve(const Vec& b, Vec& x) const;

  /// Thread-safe solve into caller storage: identical numerics to
  /// solve(b, x), but the permutation/substitution scratch lives in `work`
  /// (resized; must alias neither b nor x), so any number of threads can
  /// solve against one shared factorization concurrently — the enabling
  /// detail of cross-run numeric-base sharing.
  void solve(const Vec& b, Vec& x, Vec& work) const;

  /// Convenience allocating overload.
  Vec solve(const Vec& b) const;

  /// Solves A^T x = b into x (the plain transpose, also for complex A):
  /// the banded factorization applied backwards (U^T forward, then the L
  /// columns and row interchanges in reverse — the gbtrs TRANS='T'
  /// order), wrapped in the same RCM permutation as solve() (transposing
  /// commutes with the symmetric reordering). Used by the Hager condition
  /// estimator (obs/health.h) against already-cached real factorizations.
  /// Same aliasing/threading contract as solve(): the two-argument form
  /// uses the internal scratch, the `work` overload is safe against a
  /// concurrently shared factorization.
  void solveTranspose(const Vec& b, Vec& x) const;
  void solveTranspose(const Vec& b, Vec& x, Vec& work) const;

  /// Numerical-health probes of the last successful factorization (see
  /// LuFactorization), magnitudes taken as std::abs of the entries:
  /// smallest selected pivot magnitude and band element growth
  /// max|U| / max|A|. Both 0 before the first factor().
  double minAbsPivot() const { return min_abs_pivot_; }
  double pivotGrowth() const {
    return max_abs_a_ > 0.0 ? max_abs_u_ / max_abs_a_ : 0.0;
  }

 private:
  void analyzeWithOrder(const Csr& a, std::vector<std::size_t> order);
  void factorNumeric(const Csr& a);

  Scalar& at(std::size_t i, std::size_t j) { return ab_[j * ldab_ + (i + shift_ - j)]; }
  Scalar atc(std::size_t i, std::size_t j) const { return ab_[j * ldab_ + (i + shift_ - j)]; }

  std::size_t n_ = 0;
  std::size_t kl_ = 0, ku_ = 0;
  std::size_t ldab_ = 0;   ///< band-storage column height = 2*kl + ku + 1
  std::size_t shift_ = 0;  ///< row offset in a storage column = kl + ku
  /// Pattern versions of the last analysis (the imaginary half's second;
  /// 0 for real systems).
  std::array<std::uint64_t, 2> analyzed_versions_{};
  std::size_t orderings_computed_ = 0;
  std::vector<std::size_t> order_;  ///< order_[new] = old
  std::vector<std::size_t> pos_;    ///< pos_[old] = new
  Vec ab_;                          ///< band storage, column-major
  std::vector<std::size_t> piv_;
  mutable Vec work_;
  bool factored_ = false;
  double min_abs_pivot_ = 0.0;
  double max_abs_a_ = 0.0;
  double max_abs_u_ = 0.0;
};

extern template class BandedLu<double>;
extern template class BandedLu<Complex>;

}  // namespace fdtdmm
