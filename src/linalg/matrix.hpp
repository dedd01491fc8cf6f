// Minimal dense linear algebra written from scratch for metAScritic.
//
// The recommender core only needs small ridge-regularized SPD solves inside
// ALS (dimension = effective rank, <= ~64) and elementwise matrix plumbing
// for the connectivity matrices (up to a few thousand ASes per metro).  A
// hand-rolled row-major double matrix is both sufficient and exactly
// reproducible.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/contracts.hpp"

namespace metas::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    MAC_ASSERT(r < rows_ && c < cols_, "r=", r, " c=", c, " shape=", rows_,
               "x", cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MAC_ASSERT(r < rows_ && c < cols_, "r=", r, " c=", c, " shape=", rows_,
               "x", cols_);
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws std::out_of_range).
  double& at(std::size_t r, std::size_t c);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Returns row r as a copy.
  Vector row(std::size_t r) const;
  /// Returns column c as a copy.
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);

  Matrix transpose() const;

  /// Matrix product; throws std::invalid_argument on inner-dimension mismatch.
  Matrix operator*(const Matrix& other) const;
  Vector operator*(const Vector& v) const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double s);

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max |a_ij - b_ij|; throws on shape mismatch.
  double max_abs_diff(const Matrix& other) const;

  bool is_square() const { return rows_ == cols_; }

  /// A^T * A (used for singular values of rectangular factors).
  Matrix gram() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; throws on size mismatch.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm(const Vector& a);

}  // namespace metas::linalg
