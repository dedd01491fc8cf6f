#include "linalg/matrix.hpp"

#include <cmath>

#include "util/numeric.hpp"

namespace metas::linalg {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

Vector Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  Vector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  if (r >= rows_ || v.size() != cols_)
    throw std::invalid_argument("Matrix::set_row: shape mismatch");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::operator*: dimension mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (mac::exact_zero(a)) continue;
      for (std::size_t j = 0; j < other.cols_; ++j)
        out(i, j) += a * other(k, j);
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size())
    throw std::invalid_argument("Matrix::operator*(Vector): dimension mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j) * v[j];
  return out;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator-: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  MAC_ENSURE(s >= 0.0, "s=", s);
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  double d = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    d = std::max(d, std::fabs(data_[i] - other.data_[i]));
  return d;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = i; j < cols_; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < rows_; ++k) s += (*this)(k, i) * (*this)(k, j);
      g(i, j) = s;
      g(j, i) = s;
    }
  MAC_ENSURE(g.is_square(), "gram must be square: ", g.rows(), "x", g.cols());
  return g;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const Vector& a) { return std::sqrt(dot(a, a)); }

}  // namespace metas::linalg
