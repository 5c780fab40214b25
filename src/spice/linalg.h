#pragma once
// Dense LU with partial pivoting, templated over the scalar so the same
// code serves real (DC/transient) and complex (AC) systems.
//
// No analysis runs on it: every MNA solve goes through the
// structure-caching SparseLU (sparse_lu.h). DenseMatrix and solveDense
// are the reference the tests and bench_micro check that solver against.

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "util/error.h"

namespace ahfic::spice {

/// Magnitude used for pivoting: |x| for real, abs for complex.
inline double pivotMag(double x) { return std::fabs(x); }
inline double pivotMag(const std::complex<double>& x) { return std::abs(x); }

/// Dense row-major matrix.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  const T& at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  void setZero() { std::fill(data_.begin(), data_.end(), T{}); }

  /// In-place LU factorisation with partial pivoting.
  /// Returns false if the matrix is numerically singular; when
  /// `singularCol` is given it receives the column that lacked a usable
  /// pivot (columns are never permuted, so this is the original unknown
  /// index), or -1 on success.
  bool luFactor(std::vector<int>& perm, int* singularCol = nullptr) {
    if (rows_ != cols_) throw Error("luFactor: matrix must be square");
    if (singularCol != nullptr) *singularCol = -1;
    const int n = rows_;
    perm.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      int p = k;
      double best = pivotMag(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double m = pivotMag(at(i, k));
        if (m > best) {
          best = m;
          p = i;
        }
      }
      if (best < 1e-300) {
        if (singularCol != nullptr) *singularCol = k;
        return false;
      }
      if (p != k) {
        for (int c = 0; c < n; ++c) std::swap(at(k, c), at(p, c));
        std::swap(perm[static_cast<size_t>(k)], perm[static_cast<size_t>(p)]);
      }
      const T pivot = at(k, k);
      for (int i = k + 1; i < n; ++i) {
        const T m = at(i, k) / pivot;
        at(i, k) = m;
        if (m != T{}) {
          for (int c = k + 1; c < n; ++c) at(i, c) -= m * at(k, c);
        }
      }
    }
    return true;
  }

  /// Solves L U x = P b using factors produced by luFactor.
  void luSolve(const std::vector<int>& perm, const std::vector<T>& b,
               std::vector<T>& x) const {
    const int n = rows_;
    x.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      x[static_cast<size_t>(i)] = b[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    for (int i = 1; i < n; ++i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s;
    }
    for (int i = n - 1; i >= 0; --i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = i + 1; j < n; ++j) s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s / at(i, i);
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

/// Convenience one-shot dense solve: returns x with A x = b.
/// Throws ahfic::Error on singular A.
template <typename T>
std::vector<T> solveDense(DenseMatrix<T> a, std::vector<T> b) {
  std::vector<int> perm;
  if (!a.luFactor(perm)) throw Error("solveDense: singular matrix");
  std::vector<T> x;
  a.luSolve(perm, b, x);
  return x;
}

}  // namespace ahfic::spice
