// Unit tests of the banded LU (math/banded_lu.h). One typed suite runs
// every case on both scalars: the real systems of the transient engine and
// the complex re/im pairs of the AC engine. References are dense
// LuFactorization solves — of A itself, or of the real 2n x 2n equivalent
// of a complex A (tests/dense_oracle.h).
#include "math/banded_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "dense_oracle.h"
#include "math/linear_solve.h"
#include "math/rng.h"

namespace fdtdmm {
namespace {

template <typename Scalar>
constexpr bool kIsComplex = std::is_same_v<Scalar, Complex>;

// A test entry: `re` on real systems, re + j*im on complex ones.
template <typename Scalar>
Scalar val(double re, double im) {
  if constexpr (kIsComplex<Scalar>) {
    return Complex(re, im);
  } else {
    return re;
  }
}

// A CSR system over Scalar: one SparseMatrix (`re`) for real systems, the
// re/im pair of the AC engine for complex ones.
template <typename Scalar>
struct System {
  SparseMatrix re, im;

  explicit System(std::size_t n) : re(n), im(n) {}
  void add(std::size_t r, std::size_t c, Scalar v) {
    re.add(r, c, std::real(v));
    if constexpr (kIsComplex<Scalar>) im.add(r, c, std::imag(v));
  }
  void finalize() {
    re.finalize();
    if constexpr (kIsComplex<Scalar>) im.finalize();
  }
};

const SparseMatrix& csr(const System<double>& s) { return s.re; }
ComplexCsr csr(const System<Complex>& s) { return {s.re, s.im}; }

Vector denseSolve(const System<double>& s, const Vector& b) {
  return solveLinear(s.re.toDense(), b);
}
ComplexVector denseSolve(const System<Complex>& s, const ComplexVector& b) {
  return oracle::solveComplexDense(s.re.toDense(), s.im.toDense(), b);
}

// max |A x - b| (transposed: max |A^T x - b|) straight from the CSR values.
template <typename Scalar>
double residual(const System<Scalar>& s, const std::vector<Scalar>& x,
                const std::vector<Scalar>& b, bool transposed = false) {
  std::vector<Scalar> ax(b.size(), Scalar(0.0));
  const auto& row_ptr = s.re.rowPtr();
  const auto& col_idx = s.re.colIdx();
  for (std::size_t r = 0; r < s.re.dim(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      Scalar a = s.re.values()[k];
      if constexpr (kIsComplex<Scalar>) a += Complex(0.0, s.im.values()[k]);
      const std::size_t c = col_idx[k];
      if (transposed) {
        ax[c] += a * x[r];
      } else {
        ax[r] += a * x[c];
      }
    }
  }
  double worst = 0.0;
  for (std::size_t k = 0; k < b.size(); ++k) worst = std::max(worst, std::abs(ax[k] - b[k]));
  return worst;
}

template <typename Scalar>
double maxGap(const std::vector<Scalar>& x, const std::vector<Scalar>& y) {
  double gap = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) gap = std::max(gap, std::abs(x[k] - y[k]));
  return gap;
}

// Solves with BandedLu and with the dense reference, returns max |dx|.
template <typename Scalar>
double solveGap(const System<Scalar>& s, const std::vector<Scalar>& b) {
  BandedLu<Scalar> lu;
  lu.factor(csr(s));
  return maxGap(lu.solve(b), denseSolve(s, b));
}

// Complex tridiagonal system (its real part on real systems).
template <typename Scalar>
System<Scalar> tridiagonal(std::size_t n) {
  System<Scalar> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, val<Scalar>(4.0 + 0.1 * static_cast<double>(i), 0.7));
    if (i > 0) s.add(i, i - 1, val<Scalar>(-1.0, 0.2));
    if (i + 1 < n) s.add(i, i + 1, val<Scalar>(-1.5, -0.3));
  }
  s.finalize();
  return s;
}

// Diagonally dominant-ish random sparse system with a random RHS.
template <typename Scalar>
System<Scalar> randomSparse(Rng& rng, std::size_t n, std::vector<Scalar>& b) {
  System<Scalar> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, val<Scalar>(5.0 + rng.uniform(), rng.uniform()));
    for (int k = 0; k < 3; ++k) {
      const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
      if (j < n && j != i) s.add(i, j, val<Scalar>(rng.uniform() - 0.5, rng.uniform() - 0.5));
    }
  }
  s.finalize();
  b.resize(n);
  for (auto& v : b) v = val<Scalar>(rng.uniform() - 0.5, rng.uniform() - 0.5);
  return s;
}

template <typename Scalar>
class BandedLuTest : public ::testing::Test {};

using Scalars = ::testing::Types<double, Complex>;
TYPED_TEST_SUITE(BandedLuTest, Scalars);

TYPED_TEST(BandedLuTest, MatchesDenseOnTridiagonalSystem) {
  using S = TypeParam;
  const std::size_t n = 50;
  const System<S> s = tridiagonal<S>(n);
  std::vector<S> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = val<S>(std::sin(static_cast<double>(i)), std::cos(static_cast<double>(i)));
  EXPECT_LT(solveGap(s, b), 1e-12);
}

TYPED_TEST(BandedLuTest, MatchesDenseOnMnaLikeSystemWithZeroDiagonal) {
  // MNA shape: admittance block plus a voltage-source branch row/column
  // with a structurally zero diagonal — unpivoted elimination would die
  // here; partial pivoting inside the band must not.
  //   nodes 0..2 in a resistive chain, branch unknown 3 forcing node 0.
  using S = TypeParam;
  System<S> s(4);
  s.add(0, 0, val<S>(1.0 / 10.0, 0.05));
  s.add(0, 1, val<S>(-1.0 / 10.0, 0.0));
  s.add(1, 0, val<S>(-1.0 / 10.0, 0.0));
  s.add(1, 1, val<S>(1.0 / 10.0 + 1.0 / 20.0, -0.04));
  s.add(1, 2, val<S>(-1.0 / 20.0, 0.0));
  s.add(2, 1, val<S>(-1.0 / 20.0, 0.0));
  s.add(2, 2, val<S>(1.0 / 20.0 + 1.0 / 50.0, 0.01));
  s.add(0, 3, val<S>(1.0, 0.0));  // branch current into node 0
  s.add(3, 0, val<S>(1.0, 0.0));  // branch row: v0 = vs
  s.finalize();
  ASSERT_DOUBLE_EQ(s.re.at(3, 3), 0.0);
  const std::vector<S> b = {val<S>(0.0, 0.0), val<S>(0.0, 0.0), val<S>(0.0, 0.0),
                            val<S>(5.0, 0.0)};
  BandedLu<S> lu;
  lu.factor(csr(s));
  EXPECT_LT(std::abs(lu.solve(b)[0] - val<S>(5.0, 0.0)), 1e-12);  // forced node
  EXPECT_LT(solveGap(s, b), 1e-12);
}

TYPED_TEST(BandedLuTest, MatchesDenseOnRandomSparseSystem) {
  using S = TypeParam;
  Rng rng(42);
  std::vector<S> b;
  const System<S> s = randomSparse<S>(rng, 60, b);
  EXPECT_LT(solveGap(s, b), 1e-10);
}

TYPED_TEST(BandedLuTest, RandomDenseSystemsSolveToRoundoff) {
  // A fully populated pattern is the band's worst case (kl = ku = n - 1);
  // n >= 4 exercises multi-level pivot interchanges.
  using S = TypeParam;
  Rng rng(7);
  for (std::size_t n : {1, 2, 3, 4, 8, 16, 31}) {
    System<S> s(n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        s.add(r, c, val<S>(rng.uniform() - 0.5, rng.uniform() - 0.5));
    s.finalize();
    std::vector<S> b(n);
    for (auto& v : b) v = val<S>(rng.uniform(), rng.uniform());
    BandedLu<S> lu;
    lu.factor(csr(s));
    EXPECT_LT(residual(s, lu.solve(b), b), 1e-11) << "n=" << n;
  }
}

TYPED_TEST(BandedLuTest, RcmShrinksLadderWithTrailingBranchesToNarrowBand) {
  // Chain of n nodes where node i also couples to a trailing "branch"
  // unknown n+i (the RLGC inductor layout): natural ordering has bandwidth
  // ~n, RCM must bring it down to a small constant.
  using S = TypeParam;
  const std::size_t n = 40;
  System<S> s(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, val<S>(3.0, 0.4));
    if (i > 0) {
      s.add(i, i - 1, val<S>(-1.0, 0.0));
      s.add(i - 1, i, val<S>(-1.0, 0.0));
    }
    const std::size_t br = n + i;
    s.add(br, br, val<S>(1.0, -0.6));
    s.add(br, i, val<S>(-0.5, 0.0));
    s.add(i, br, val<S>(1.0, 0.0));
  }
  s.finalize();
  BandedLu<S> lu;
  lu.factor(csr(s));
  EXPECT_LE(lu.lowerBandwidth(), 4u);
  EXPECT_LE(lu.upperBandwidth(), 4u);
  EXPECT_LT(solveGap(s, std::vector<S>(2 * n, val<S>(1.0, 0.5))), 1e-12);
}

TYPED_TEST(BandedLuTest, RefactorReusesAnalysisAndTracksValueChanges) {
  using S = TypeParam;
  System<S> s(3);
  s.add(0, 0, val<S>(2.0, 0.5));
  s.add(1, 1, val<S>(3.0, 0.0));
  s.add(2, 2, val<S>(4.0, -1.0));
  s.add(0, 1, val<S>(-1.0, 0.0));
  s.add(1, 0, val<S>(-1.0, 0.0));
  s.finalize();
  const std::vector<S> e0 = {val<S>(1.0, 0.0), val<S>(0.0, 0.0), val<S>(0.0, 0.0)};
  BandedLu<S> lu;
  lu.factor(csr(s));
  const double x0 = std::abs(lu.solve(e0)[0]);
  s.add(0, 0, val<S>(3.0, 0.0));  // value-only change, same pattern
  lu.factor(csr(s));
  EXPECT_LT(std::abs(lu.solve(e0)[0]), x0);  // stiffer matrix, smaller response
  EXPECT_EQ(lu.orderingsComputed(), 1u);      // one analysis for both
  EXPECT_LT(solveGap(s, e0), 1e-13);
}

TYPED_TEST(BandedLuTest, FactorWithOrderMatchesPrivateAnalysis) {
  using S = TypeParam;
  const std::size_t n = 40;
  const System<S> s = tridiagonal<S>(n);
  const std::vector<S> b(n, val<S>(1.0, -0.5));

  BandedLu<S> private_order;
  private_order.factor(csr(s));
  // The shared-symbolic path: seed the exact ordering a sibling session
  // computed (RCM is a pure function of the pattern), which must give a
  // bit-identical factorization and computes no ordering of its own.
  BandedLu<S> shared_order;
  shared_order.factorWithOrder(csr(s), reverseCuthillMcKee(s.re));
  EXPECT_EQ(private_order.solve(b), shared_order.solve(b));
  EXPECT_EQ(private_order.lowerBandwidth(), shared_order.lowerBandwidth());
  EXPECT_EQ(private_order.orderingsComputed(), 1u);
  EXPECT_EQ(shared_order.orderingsComputed(), 0u);

  BandedLu<S> bad;
  EXPECT_THROW(bad.factorWithOrder(csr(s), std::vector<std::size_t>(n - 1)),
               std::invalid_argument);
}

TYPED_TEST(BandedLuTest, SolveTransposeSolvesTheTransposedSystem) {
  using S = TypeParam;
  Rng rng(11);
  std::vector<S> b;
  const System<S> s = randomSparse<S>(rng, 40, b);
  BandedLu<S> lu;
  lu.factor(csr(s));
  std::vector<S> x;
  lu.solveTranspose(b, x);
  EXPECT_LT(residual(s, x, b, /*transposed=*/true), 1e-12);
}

TYPED_TEST(BandedLuTest, SingularMatrixThrows) {
  using S = TypeParam;
  System<S> s(2);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) s.add(r, c, val<S>(1.0, 1.0));
  s.finalize();
  BandedLu<S> lu;
  EXPECT_THROW(lu.factor(csr(s)), std::runtime_error);
  // A failed factor must not leave the object claiming to be factored.
  EXPECT_FALSE(lu.factored());
  std::vector<S> x;
  EXPECT_THROW(lu.solve(std::vector<S>(2, val<S>(1.0, 0.0)), x), std::logic_error);
  EXPECT_THROW(lu.solveTranspose(std::vector<S>(2, val<S>(1.0, 0.0)), x),
               std::logic_error);
}

TYPED_TEST(BandedLuTest, ErrorsOnUnfinalizedOrEmptyOrMismatch) {
  using S = TypeParam;
  BandedLu<S> lu;
  System<S> building(2);
  building.add(0, 0, val<S>(1.0, 0.0));
  EXPECT_THROW(lu.factor(csr(building)), std::invalid_argument);
  System<S> empty(0);
  empty.finalize();
  EXPECT_THROW(lu.factor(csr(empty)), std::invalid_argument);

  System<S> ok(2);
  ok.add(0, 0, val<S>(1.0, 0.0));
  ok.add(1, 1, val<S>(1.0, 1.0));
  ok.finalize();
  lu.factor(csr(ok));
  std::vector<S> x;
  EXPECT_THROW(lu.solve(std::vector<S>(3), x), std::invalid_argument);
  EXPECT_THROW(lu.solveTranspose(std::vector<S>(3), x), std::invalid_argument);
}

TEST(ComplexBandedLu, SolvesKnownTwoByTwoSystem) {
  // A = [[1+i, 2], [3, 4-i]], x = [1-i, 2+i]  =>  b = A x.
  System<Complex> s(2);
  s.add(0, 0, Complex(1.0, 1.0));
  s.add(0, 1, Complex(2.0, 0.0));
  s.add(1, 0, Complex(3.0, 0.0));
  s.add(1, 1, Complex(4.0, -1.0));
  s.finalize();
  const ComplexVector x_ref = {Complex(1.0, -1.0), Complex(2.0, 1.0)};
  const ComplexVector b = {Complex(1.0, 1.0) * x_ref[0] + 2.0 * x_ref[1],
                           3.0 * x_ref[0] + Complex(4.0, -1.0) * x_ref[1]};
  BandedLu<Complex> lu;
  lu.factor(csr(s));
  EXPECT_LT(maxGap(lu.solve(b), x_ref), 1e-13);
}

TEST(ComplexBandedLu, RejectsMismatchedPatterns) {
  SparseMatrix re(2), im(2);
  re.add(0, 0, 1.0);
  re.add(1, 1, 1.0);
  re.add(0, 1, 1.0);  // entry the imaginary half does not have
  im.add(0, 0, 1.0);
  im.add(1, 1, 1.0);
  re.finalize();
  im.finalize();
  BandedLu<Complex> lu;
  EXPECT_THROW(lu.factor({re, im}), std::invalid_argument);
}

TEST(ComplexBandedLu, EitherPatternVersionTriggersReanalysis) {
  // The symbolic cache is keyed on both halves: rebuilding only the
  // imaginary matrix (same entries, new pattern version) re-runs RCM once.
  const std::size_t n = 20;
  System<Complex> s = tridiagonal<Complex>(n);
  BandedLu<Complex> lu;
  lu.factor(csr(s));
  lu.factor(csr(s));
  EXPECT_EQ(lu.orderingsComputed(), 1u);

  const SparseMatrix im_before = s.im;
  s.im.reset(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (r + 1 >= c && c + 1 >= r) s.im.add(r, c, im_before.at(r, c));
  s.im.finalize();
  ASSERT_NE(s.im.patternVersion(), im_before.patternVersion());
  lu.factor(csr(s));
  EXPECT_EQ(lu.orderingsComputed(), 2u);
  const ComplexVector b(n, Complex(1.0, 0.0));
  EXPECT_LT(residual(s, lu.solve(b), b), 1e-12);
}

TEST(ReverseCuthillMcKee, ProducesAPermutation) {
  SparseMatrix a(5);
  for (std::size_t i = 0; i < 5; ++i) a.add(i, i, 1.0);
  a.add(0, 4, 1.0);
  a.finalize();
  const auto order = reverseCuthillMcKee(a);
  ASSERT_EQ(order.size(), 5u);
  std::vector<bool> seen(5, false);
  for (std::size_t v : order) {
    ASSERT_LT(v, 5u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

}  // namespace
}  // namespace fdtdmm
