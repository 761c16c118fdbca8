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
/// One class template serves both scalars: BandedLu<double> factors the
/// real CsrMatrix of the transient engine and the DC operating point,
/// BandedLu<Complex> the complex CsrMatrix of the AC engine (A(omega) =
/// G + j*omega*B, assembled through circuit/elements.h AcStampSystem).
/// The ordering, band scatter, elimination, substitutions and health probes
/// are one code path. Because the symbolic stage is a pure function of the
/// pattern, an ordering published through the SolverStateCache seeds
/// factorWithOrder in either engine, and every frequency point of an AC
/// sweep reuses one symbolic analysis (the AcSession economy,
/// src/freq/ac_engine.h). A factorization itself is never shared between
/// runs: each instance is owned by one session, which is why solve() may
/// use internal scratch.

#include <cstdint>
#include <vector>

#include "math/sparse_matrix.h"

namespace fdtdmm {

/// Reverse Cuthill-McKee ordering of a (structurally symmetrized) CSR
/// pattern. Returns `order` with order[new_index] = old_index; handles
/// disconnected components (each seeded at a minimum-degree vertex).
/// Reads only the pattern, so it orders real and complex matrices alike.
template <typename Scalar>
std::vector<std::size_t> reverseCuthillMcKee(const CsrMatrix<Scalar>& a);

/// Banded LU factorization of a finalized CSR system over `Scalar` (double
/// or Complex; both are instantiated in banded_lu.cpp). Factor once, solve
/// many right-hand sides; re-factoring with the same pattern reuses all
/// storage.
template <typename Scalar>
class BandedLu {
 public:
  using Vec = std::vector<Scalar>;

  /// Factors A. Re-runs the symbolic analysis only when A's pattern version
  /// differs from the last factored one. \throws std::invalid_argument if A
  /// is not finalized or has dimension 0; std::runtime_error if A is
  /// numerically singular (the factorization is left empty).
  void factor(const CsrMatrix<Scalar>& a);

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
  void factorWithOrder(const CsrMatrix<Scalar>& a, const std::vector<std::size_t>& order);

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
  /// calls on one instance (uses an internal scratch vector).
  /// \throws std::invalid_argument on size mismatch, std::logic_error if
  ///         nothing has been factored.
  void solve(const Vec& b, Vec& x) const;

  /// Convenience allocating overload.
  Vec solve(const Vec& b) const;

  /// Solves A^T x = b into x (the plain transpose, also for complex A):
  /// the banded factorization applied backwards (U^T forward, then the L
  /// columns and row interchanges in reverse — the gbtrs TRANS='T'
  /// order), wrapped in the same RCM permutation as solve() (transposing
  /// commutes with the symmetric reordering). Used by the Hager condition
  /// estimator (obs/health.h) against already-cached real factorizations.
  /// Same aliasing/threading contract as solve().
  void solveTranspose(const Vec& b, Vec& x) const;

  /// Numerical-health probes of the last successful factorization
  /// (obs/health.h), magnitudes taken as |entry| (std::abs, or for a
  /// complex entry sqrt(re^2 + im^2) wherever that cannot overflow or
  /// underflow — within about an ulp of std::abs): smallest selected pivot
  /// magnitude and band element growth max|U| / max|A|. Both 0 before the
  /// first factor().
  double minAbsPivot() const { return min_abs_pivot_; }
  double pivotGrowth() const {
    return max_abs_a_ > 0.0 ? max_abs_u_ / max_abs_a_ : 0.0;
  }

 private:
  void analyzeWithOrder(const CsrMatrix<Scalar>& a, std::vector<std::size_t> order);
  void factorNumeric(const CsrMatrix<Scalar>& a);

  Scalar& at(std::size_t i, std::size_t j) { return ab_[j * ldab_ + (i + shift_ - j)]; }
  Scalar atc(std::size_t i, std::size_t j) const { return ab_[j * ldab_ + (i + shift_ - j)]; }

  std::size_t n_ = 0;
  std::size_t kl_ = 0, ku_ = 0;
  std::size_t ldab_ = 0;   ///< band-storage column height = 2*kl + ku + 1
  std::size_t shift_ = 0;  ///< row offset in a storage column = kl + ku
  std::uint64_t analyzed_version_ = 0;  ///< pattern version of the analysis
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
