#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace ssin {
namespace {

// Solves A x = b through the matrix-RHS solver (b as an n x 1 column), the
// LU path Invert runs; returns x as a vector.
bool SolveColumn(const Matrix& a, const std::vector<double>& b,
                 std::vector<double>* x) {
  Matrix rhs(static_cast<int>(b.size()), 1);
  for (size_t i = 0; i < b.size(); ++i) rhs(static_cast<int>(i), 0) = b[i];
  Matrix solution;
  if (!SolveLinearSystem(a, rhs, &solution)) return false;
  x->assign(solution.data().begin(), solution.data().end());
  return true;
}

TEST(MatrixTest, BasicOps) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
  // Row-major storage.
  EXPECT_DOUBLE_EQ(a.data()[4], 5.0);
  EXPECT_DOUBLE_EQ(Matrix(2, 2, 7.0)(1, 0), 7.0);
}

TEST(MatrixTest, IdentityAndNorm) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  double sq = 0.0;  // Frobenius norm.
  for (double v : id.data()) sq += v * v;
  EXPECT_NEAR(std::sqrt(sq), std::sqrt(3.0), 1e-12);
}

TEST(SolveTest, KnownSystem) {
  // x + 2y = 5; 3x + 4y = 11  ->  x = 1, y = 2.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  std::vector<double> x;
  ASSERT_TRUE(SolveColumn(a, {5.0, 11.0}, &x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveTest, SingularReturnsFalse) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  std::vector<double> x;
  EXPECT_FALSE(SolveColumn(a, {1.0, 2.0}, &x));
  Matrix inv;
  EXPECT_FALSE(Invert(a, &inv));
}

TEST(SolveTest, NeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  std::vector<double> x;
  ASSERT_TRUE(SolveColumn(a, {3.0, 7.0}, &x));
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

class RandomSystemTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemTest, SolveRecoversSolution) {
  const int n = GetParam();
  Rng rng(1000 + n);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.Normal();
    a(i, i) += n;  // Diagonally dominant -> well conditioned.
  }
  std::vector<double> truth(n);
  for (double& v : truth) v = rng.Normal();
  std::vector<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += a(i, j) * truth[j];
  }
  std::vector<double> x;
  ASSERT_TRUE(SolveColumn(a, b, &x));
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-8);
}

TEST_P(RandomSystemTest, InverseTimesMatrixIsIdentity) {
  const int n = GetParam();
  Rng rng(2000 + n);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.Normal();
    a(i, i) += n;
  }
  Matrix inv;
  ASSERT_TRUE(Invert(a, &inv));
  // Frobenius norm of A * inv - I.
  double residual_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double product = 0.0;
      for (int k = 0; k < n; ++k) product += a(i, k) * inv(k, j);
      const double residual = product - (i == j ? 1.0 : 0.0);
      residual_sq += residual * residual;
    }
  }
  EXPECT_LT(std::sqrt(residual_sq), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomSystemTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

}  // namespace
}  // namespace ssin
