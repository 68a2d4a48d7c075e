#include "common/matrix.h"

#include <cmath>
#include <utility>

namespace ssin {

namespace {

// In-place LU decomposition with partial pivoting. Returns false when a
// pivot is numerically zero. `perm` records row swaps.
bool LuDecompose(Matrix* a, std::vector<int>* perm) {
  const int n = a->rows();
  SSIN_CHECK_EQ(n, a->cols());
  perm->resize(n);
  for (int i = 0; i < n; ++i) (*perm)[i] = i;

  for (int col = 0; col < n; ++col) {
    // Pivot selection.
    int pivot = col;
    double best = std::fabs((*a)(col, col));
    for (int r = col + 1; r < n; ++r) {
      const double v = std::fabs((*a)(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-13) return false;
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap((*a)(col, c), (*a)(pivot, c));
      std::swap((*perm)[col], (*perm)[pivot]);
    }
    const double diag = (*a)(col, col);
    for (int r = col + 1; r < n; ++r) {
      const double factor = (*a)(r, col) / diag;
      (*a)(r, col) = factor;
      for (int c = col + 1; c < n; ++c) {
        (*a)(r, c) -= factor * (*a)(col, c);
      }
    }
  }
  return true;
}

// Solves using a prior LU factorization (L has unit diagonal, stored below
// the diagonal of `lu`).
void LuSolve(const Matrix& lu, const std::vector<int>& perm,
             const std::vector<double>& b, std::vector<double>* x) {
  const int n = lu.rows();
  x->resize(n);
  // Forward substitution with permuted b.
  for (int i = 0; i < n; ++i) {
    double sum = b[perm[i]];
    for (int j = 0; j < i; ++j) sum -= lu(i, j) * (*x)[j];
    (*x)[i] = sum;
  }
  // Back substitution.
  for (int i = n - 1; i >= 0; --i) {
    double sum = (*x)[i];
    for (int j = i + 1; j < n; ++j) sum -= lu(i, j) * (*x)[j];
    (*x)[i] = sum / lu(i, i);
  }
}

}  // namespace

bool SolveLinearSystem(const Matrix& a, const Matrix& b, Matrix* x) {
  SSIN_CHECK_EQ(a.rows(), a.cols());
  SSIN_CHECK_EQ(a.rows(), b.rows());
  Matrix lu = a;
  std::vector<int> perm;
  if (!LuDecompose(&lu, &perm)) return false;
  *x = Matrix(b.rows(), b.cols());
  std::vector<double> col(b.rows()), sol;
  for (int c = 0; c < b.cols(); ++c) {
    for (int r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    LuSolve(lu, perm, col, &sol);
    for (int r = 0; r < b.rows(); ++r) (*x)(r, c) = sol[r];
  }
  return true;
}

bool Invert(const Matrix& a, Matrix* inv) {
  return SolveLinearSystem(a, Matrix::Identity(a.rows()), inv);
}

}  // namespace ssin
