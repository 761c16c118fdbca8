#include "math/matrix.h"

#include <cmath>
#include <stdexcept>

namespace fdtdmm {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: initializer rows have inconsistent lengths");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at: index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at: index out of range");
  return data_[r * cols_ + c];
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::operator*(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("Matrix*Vector: size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix*Matrix: size mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix+=: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix-=: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double norm2(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace fdtdmm
