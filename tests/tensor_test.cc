#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace ssin {
namespace {

TEST(TensorTest, ConstructionAndFill) {
  Tensor t({2, 3}, 1.5);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_DOUBLE_EQ(t.At(1, 2), 1.5);
  t.Fill(0.0);
  EXPECT_DOUBLE_EQ(t[5], 0.0);
}

TEST(TensorTest, FromData) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 3.0);
}

TEST(TensorTest, Scalar) {
  Tensor s = Tensor::Scalar(7.0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_DOUBLE_EQ(s[0], 7.0);
}

TEST(TensorTest, Accumulate) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a[0], 11.0);
  EXPECT_DOUBLE_EQ(a[2], 33.0);
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
  EXPECT_FALSE(Tensor({6}).SameShape(Tensor({2, 3})));
}

TEST(TensorTest, RandnMoments) {
  Rng rng(5);
  Tensor t = Tensor::Randn({100, 100}, &rng, 2.0);
  double sum = 0.0, sq = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += t[i];
    sq += t[i] * t[i];
  }
  const double mean = sum / t.numel();
  const double var = sq / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(6);
  Tensor t = Tensor::RandUniform({1000}, &rng, -0.5, 0.5);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -0.5);
    EXPECT_LT(t[i], 0.5);
  }
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "[2x3]");
  EXPECT_EQ(Tensor({7}).ShapeString(), "[7]");
}

TEST(TensorTest, ZeroSizedDims) {
  Tensor t({0, 4});
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace ssin
