#ifndef SSIN_COMMON_MATRIX_H_
#define SSIN_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace ssin {

/// Dense row-major double matrix used by the classical interpolators
/// (thin-plate splines, kriging systems). Deliberately separate from the
/// float32 autograd Tensor in src/tensor: solver code wants double precision
/// and no tape overhead.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    SSIN_CHECK_GE(rows, 0);
    SSIN_CHECK_GE(cols, 0);
  }

  static Matrix Identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    SSIN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    SSIN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Solves A X = B for the right-hand-side columns of B (A is n x n, B is
/// n x k) by LU decomposition with partial pivoting. Returns false when A
/// is (numerically) singular; on success *x holds the n x k solution.
bool SolveLinearSystem(const Matrix& a, const Matrix& b, Matrix* x);

/// Inverts a square matrix via LU; returns false if singular.
bool Invert(const Matrix& a, Matrix* inv);

}  // namespace ssin

#endif  // SSIN_COMMON_MATRIX_H_
