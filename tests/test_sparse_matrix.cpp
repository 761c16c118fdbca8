// Unit tests of the CSR stamp target (math/sparse_matrix.h). The operations
// both engines use run as one typed suite over the real (transient, DC) and
// complex (AC) scalars; pattern growth and base/work re-alignment, which
// only the transient engine uses, run on the real matrix.
#include "math/sparse_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/health.h"

namespace fdtdmm {
namespace {

// A test entry: `re` on real matrices, re + j*im on complex ones.
template <typename Scalar>
Scalar val(double re, double im) {
  if constexpr (std::is_same_v<Scalar, Complex>) {
    return Complex(re, im);
  } else {
    return re;
  }
}

template <typename Scalar>
class CsrMatrixTest : public ::testing::Test {};

using Scalars = ::testing::Types<double, Complex>;
TYPED_TEST_SUITE(CsrMatrixTest, Scalars);

TYPED_TEST(CsrMatrixTest, BuildFinalizeDedupesAndSorts) {
  using S = TypeParam;
  CsrMatrix<S> m(3);
  EXPECT_FALSE(m.finalized());
  m.add(0, 2, val<S>(1.0, -2.0));
  m.add(0, 0, val<S>(2.0, 0.5));
  m.add(0, 2, val<S>(0.5, 0.25));  // duplicate position: summed at finalize
  m.add(2, 1, val<S>(-3.0, 1.0));
  m.finalize();
  EXPECT_TRUE(m.finalized());
  EXPECT_EQ(m.nonZeros(), 3u);
  EXPECT_EQ(m.at(0, 0), val<S>(2.0, 0.5));
  EXPECT_EQ(m.at(0, 2), val<S>(1.5, -1.75));
  EXPECT_EQ(m.at(2, 1), val<S>(-3.0, 1.0));
  EXPECT_EQ(m.at(1, 1), val<S>(0.0, 0.0));  // outside pattern
  // Column indices sorted per row.
  ASSERT_EQ(m.rowPtr().size(), 4u);
  EXPECT_EQ(m.colIdx()[0], 0u);
  EXPECT_EQ(m.colIdx()[1], 2u);
  EXPECT_GT(m.patternVersion(), 0u);
}

TYPED_TEST(CsrMatrixTest, FinalizeTwiceAndRangeChecksThrow) {
  using S = TypeParam;
  CsrMatrix<S> m(2);
  EXPECT_THROW(m.add(0, 2, val<S>(1.0, 0.0)), std::out_of_range);
  m.add(0, 0, val<S>(1.0, 1.0));
  m.finalize();
  EXPECT_THROW(m.finalize(), std::logic_error);
  EXPECT_THROW(m.add(2, 0, val<S>(1.0, 0.0)), std::out_of_range);
  EXPECT_THROW(m.at(0, 5), std::out_of_range);
}

TYPED_TEST(CsrMatrixTest, FinalizedAddScattersInPlace) {
  using S = TypeParam;
  CsrMatrix<S> m(2);
  m.add(0, 0, val<S>(1.0, -1.0));
  m.add(1, 1, val<S>(1.0, 0.0));
  m.finalize();
  const auto v = m.patternVersion();
  m.add(0, 0, val<S>(2.5, 0.5));
  EXPECT_EQ(m.at(0, 0), val<S>(3.5, -0.5));
  EXPECT_EQ(m.patternVersion(), v);
}

// A finalized pattern never grows: an add outside it throws and leaves
// the matrix as it was.
TYPED_TEST(CsrMatrixTest, FinalizedAddOutsideThePatternThrows) {
  using S = TypeParam;
  CsrMatrix<S> m(2);
  m.add(0, 0, val<S>(1.0, -1.0));
  m.add(1, 1, val<S>(1.0, 0.0));
  m.finalize();
  const auto v = m.patternVersion();
  EXPECT_THROW(m.add(0, 1, val<S>(4.0, 0.0)), std::logic_error);
  EXPECT_EQ(m.nonZeros(), 2u);
  EXPECT_EQ(m.patternVersion(), v);
  EXPECT_EQ(m.at(0, 0), val<S>(1.0, -1.0));
  EXPECT_EQ(m.at(0, 1), val<S>(0.0, 0.0));
}

TYPED_TEST(CsrMatrixTest, ClearValuesKeepsPattern) {
  using S = TypeParam;
  CsrMatrix<S> m(2);
  m.add(0, 0, val<S>(1.0, 2.0));
  m.add(1, 0, val<S>(2.0, -1.0));
  m.finalize();
  const auto v = m.patternVersion();
  m.clearValues();
  EXPECT_EQ(m.nonZeros(), 2u);
  EXPECT_EQ(m.patternVersion(), v);
  EXPECT_EQ(m.at(1, 0), val<S>(0.0, 0.0));
}

TYPED_TEST(CsrMatrixTest, AdoptedPatternStartsFinalizedWithZeroValues) {
  // The symbolic checkout's round trip: one matrix compiles and exports its
  // pattern, another adopts it and stamps values straight into it.
  using S = TypeParam;
  CsrMatrix<S> src(3);
  src.add(0, 0, val<S>(1.0, 1.0));
  src.add(0, 2, val<S>(2.0, 0.0));
  src.add(1, 1, val<S>(3.0, -1.0));
  src.add(2, 0, val<S>(-1.0, 0.5));
  src.finalize();
  const CsrPattern p = src.pattern();
  EXPECT_EQ(p.n, 3u);
  EXPECT_EQ(p.version, src.patternVersion());
  EXPECT_EQ(p.row_ptr, src.rowPtr());
  EXPECT_EQ(p.col_idx, src.colIdx());

  CsrMatrix<S> m(1);
  m.add(0, 0, val<S>(5.0, 0.0));  // building content is discarded
  m.adoptPattern(p);
  EXPECT_TRUE(m.finalized());
  EXPECT_EQ(m.dim(), 3u);
  EXPECT_EQ(m.patternVersion(), p.version);
  EXPECT_EQ(m.rowPtr(), src.rowPtr());
  EXPECT_EQ(m.colIdx(), src.colIdx());
  for (const S& v : m.values()) EXPECT_EQ(v, val<S>(0.0, 0.0));

  // In-pattern adds scatter; equal versions allow the value copy.
  m.add(0, 2, val<S>(1.5, -0.5));
  EXPECT_EQ(m.at(0, 2), val<S>(1.5, -0.5));
  m.setValuesFrom(src);
  EXPECT_EQ(m.at(1, 1), val<S>(3.0, -1.0));

  // Re-adopting the pattern a matrix already holds zeroes its values.
  CsrMatrix<S> same = src;
  same.adoptPattern(p);
  EXPECT_EQ(same.patternVersion(), p.version);
  EXPECT_EQ(same.nonZeros(), 4u);
  EXPECT_EQ(same.at(0, 0), val<S>(0.0, 0.0));

  // The adopted pattern is as closed as a compiled one.
  EXPECT_THROW(m.add(2, 2, val<S>(4.0, 0.0)), std::logic_error);
  EXPECT_EQ(m.patternVersion(), p.version);

  CsrMatrix<S> building(2);
  EXPECT_THROW(building.pattern(), std::logic_error);
  EXPECT_THROW(building.adoptPattern(CsrPattern{}), std::invalid_argument);
  CsrPattern torn = p;
  torn.col_idx.pop_back();
  EXPECT_THROW(building.adoptPattern(torn), std::invalid_argument);
}

TEST(CsrMatrix, PatternVersionsAreUniqueAcrossScalars) {
  // One version counter serves both scalars, so a version names one
  // pattern process-wide.
  SparseMatrix real(1);
  CsrMatrix<Complex> complex(1);
  real.add(0, 0, 1.0);
  complex.add(0, 0, Complex(1.0, 0.0));
  real.finalize();
  complex.finalize();
  EXPECT_GT(real.patternVersion(), 0u);
  EXPECT_GT(complex.patternVersion(), 0u);
  EXPECT_NE(real.patternVersion(), complex.patternVersion());
}

TYPED_TEST(CsrMatrixTest, RelativeResidualMatchesDenseArithmetic) {
  // obs::relativeResidual, the post-solve probe of both engines, against
  // ||A x - b||inf / ||b||inf computed entry by entry.
  using S = TypeParam;
  CsrMatrix<S> m(4);
  m.add(0, 0, val<S>(2.0, 1.0));
  m.add(0, 3, val<S>(-1.0, 0.0));
  m.add(1, 1, val<S>(1.5, -0.5));
  m.add(2, 1, val<S>(0.5, 0.0));
  m.add(2, 2, val<S>(4.0, 2.0));
  m.add(3, 0, val<S>(1.0, 0.0));
  m.add(3, 3, val<S>(1.0, -1.0));
  m.finalize();
  const std::vector<S> x = {val<S>(1.0, 0.5), val<S>(2.0, 0.0), val<S>(3.0, -1.0),
                            val<S>(4.0, 2.0)};
  std::vector<S> b(4, val<S>(0.0, 0.0));
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) b[r] += m.at(r, c) * x[c];
  // Exact solution (small dyadic values: every product and sum is exact).
  EXPECT_EQ(obs::relativeResidual(m, x, b), 0.0);

  const S delta = val<S>(0.5, -0.25);
  b[2] += delta;
  double b_inf = 0.0;
  for (const S& v : b) b_inf = std::max(b_inf, std::abs(v));
  EXPECT_DOUBLE_EQ(obs::relativeResidual(m, x, b), std::abs(delta) / b_inf);

  // A zero RHS reports the absolute residual.
  const std::vector<S> zero(4, val<S>(0.0, 0.0));
  double ax_inf = 0.0;
  for (std::size_t r = 0; r < 4; ++r) {
    S acc = val<S>(0.0, 0.0);
    for (std::size_t c = 0; c < 4; ++c) acc += m.at(r, c) * x[c];
    ax_inf = std::max(ax_inf, std::abs(acc));
  }
  EXPECT_DOUBLE_EQ(obs::relativeResidual(m, x, zero), ax_inf);

  EXPECT_THROW(obs::relativeResidual(m, std::vector<S>(3), b), std::invalid_argument);
  CsrMatrix<S> building(4);
  EXPECT_THROW(obs::relativeResidual(building, x, b), std::invalid_argument);
}

TEST(SparseMatrix, SetValuesFromRequiresTheSamePattern) {
  SparseMatrix base(3);
  base.add(0, 0, 1.0);
  base.add(1, 1, 2.0);
  base.add(2, 2, 3.0);
  base.finalize();

  SparseMatrix work = base;  // copies pattern + version
  EXPECT_EQ(work.patternVersion(), base.patternVersion());
  work.add(1, 1, 10.0);
  work.setValuesFrom(base);  // memcpy path restores base values
  EXPECT_DOUBLE_EQ(work.at(1, 1), 2.0);

  // The same entries compiled again take a fresh version.
  SparseMatrix other(3);
  other.add(0, 0, 1.0);
  other.add(1, 1, 2.0);
  other.add(2, 2, 3.0);
  other.finalize();
  EXPECT_THROW(other.setValuesFrom(base), std::logic_error);  // versions differ
}

TEST(SparseMatrix, ToDenseCopiesEveryEntry) {
  SparseMatrix m(3);
  m.add(0, 2, -1.0);
  m.add(1, 1, 1.5);
  m.add(2, 0, 0.25);
  m.finalize();
  const Matrix d = m.toDense();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(d(r, c), m.at(r, c));
}

}  // namespace
}  // namespace fdtdmm
