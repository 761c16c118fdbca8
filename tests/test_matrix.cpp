// Unit tests for the dense matrix/vector substrate.
#include "math/matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fdtdmm {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, InitializerListRaggedThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, MatVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = m * Vector{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecSizeMismatchThrows) {
  Matrix m(2, 3);
  const Vector bad{1.0, 2.0};
  EXPECT_THROW((void)(m * bad), std::invalid_argument);
}

TEST(Matrix, MatMat) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, PlusMinusScale) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  b -= a;
  EXPECT_DOUBLE_EQ(b(1, 1), 4.0);
  b *= 0.5;
  EXPECT_DOUBLE_EQ(b(0, 0), 0.5);
}

TEST(VectorOps, Norm2) {
  const Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

TEST(VectorOps, Dot) {
  EXPECT_DOUBLE_EQ(dot(Vector{1.0, 2.0}, Vector{3.0, 4.0}), 11.0);
  EXPECT_THROW(dot(Vector{1.0}, Vector{1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace fdtdmm
