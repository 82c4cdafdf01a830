// Dense row-major matrix and small vector helpers.
//
// This is the numerical substrate shared by the MNA circuit solver, the
// system-identification estimators (least squares / OLS) and the modal
// decomposition of coupled transmission lines. Sizes in this project are
// small (tens to a few hundred rows), so a simple dense representation is
// the right tool.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace emc::linalg {

/// Dense row-major matrix of double.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Set every entry to `value`.
  void fill(double value);

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; throws std::invalid_argument on shape mismatch.
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix * vector.
  std::vector<double> apply(std::span<const double> x) const;

  /// Matrix * vector into caller storage: y.size() == rows(), and y must
  /// not alias x.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// Human-readable dump (testing / debugging aid).
  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(std::span<const double> v);

/// Infinity norm of a vector.
double norm_inf(std::span<const double> v);

/// Dot product; spans must have equal length.
double dot(std::span<const double> a, std::span<const double> b);

/// y += alpha * x (sizes must match).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace emc::linalg
