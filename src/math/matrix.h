#pragma once
/// \file matrix.h
/// Dense row-major matrix with the small set of operations required by the
/// macromodel identification and implicit solver code paths. Not a general
/// linear-algebra library: sizes are small (regression problems with a few
/// thousand rows, state matrices of order r <= ~8).

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace fdtdmm {

/// Dense real vector used throughout the library.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a matrix from nested initializer lists (rows of equal length).
  /// \throws std::invalid_argument if rows have inconsistent lengths.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Bounds-checked element access. \throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw storage (row-major), for tight loops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Returns the identity matrix of dimension n.
  static Matrix identity(std::size_t n);

  /// Matrix-vector product. \throws std::invalid_argument on size mismatch.
  Vector operator*(const Vector& x) const;

  /// Matrix-matrix product. \throws std::invalid_argument on size mismatch.
  Matrix operator*(const Matrix& rhs) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(const Vector& v);

/// Dot product. \throws std::invalid_argument on size mismatch.
double dot(const Vector& a, const Vector& b);

}  // namespace fdtdmm
