#include <gtest/gtest.h>

#include "tensor/graph.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace ssin {
namespace {

using testing_util::CheckGradients;

constexpr double kGradTol = 1e-6;

Tensor RandomTensor(std::vector<int> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng);
}

TEST(GraphTest, LeafBackwardThroughAddChain) {
  Tensor x({3}, {1.0, 2.0, 3.0});
  Tensor grad({3});
  Graph g;
  Var leaf = g.Leaf(x, &grad);
  Var doubled = Add(leaf, leaf);
  Var loss = Sum(doubled);
  EXPECT_DOUBLE_EQ(loss.value()[0], 12.0);
  g.Backward(loss);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(grad[i], 2.0);
}

TEST(GraphTest, ExternalGradAccumulatesAcrossGraphs) {
  Tensor x({2}, {1.0, 1.0});
  Tensor grad({2});
  for (int pass = 0; pass < 3; ++pass) {
    Graph g;
    Var loss = Sum(g.Leaf(x, &grad));
    g.Backward(loss);
  }
  EXPECT_DOUBLE_EQ(grad[0], 3.0);
}

TEST(GraphTest, ConstantsBlockGradients) {
  Tensor x({2}, {2.0, 3.0});
  Graph g;
  Var c = g.Constant(x);
  Var loss = Sum(Mul(c, c));
  g.Backward(loss);  // Must not crash; nothing requires grad upstream.
  EXPECT_DOUBLE_EQ(loss.value()[0], 13.0);
}

TEST(GraphTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x*x): d/dx = 4x.
  Tensor x({2}, {3.0, -1.0});
  Tensor grad({2});
  Graph g;
  Var leaf = g.Leaf(x, &grad);
  Var a = Mul(leaf, leaf);
  Var b = Mul(leaf, leaf);
  g.Backward(Sum(Add(a, b)));
  EXPECT_DOUBLE_EQ(grad[0], 12.0);
  EXPECT_DOUBLE_EQ(grad[1], -4.0);
}

TEST(OpsGradTest, MatMul) {
  auto r = CheckGradients(
      {RandomTensor({3, 4}, 1), RandomTensor({4, 2}, 2)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(MatMul(v[0], v[1]));
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsGradTest, AddSubMul) {
  auto r = CheckGradients(
      {RandomTensor({2, 3}, 3), RandomTensor({2, 3}, 4),
       RandomTensor({2, 3}, 5)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(Mul(Sub(Add(v[0], v[1]), v[2]), v[0]));
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsGradTest, AddRowBias) {
  auto r = CheckGradients(
      {RandomTensor({4, 3}, 6), RandomTensor({3}, 7)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(AddRow(v[0], v[1]));
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsGradTest, ScaleAndMean) {
  auto r = CheckGradients({RandomTensor({5}, 8)},
                          [](Graph*, const std::vector<Var>& v) {
                            return Mean(Scale(v[0], -2.5));
                          });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsGradTest, ReluAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  Tensor x({6}, {1.0, -1.0, 2.0, -0.5, 0.7, -2.0});
  auto r = CheckGradients({x}, [](Graph*, const std::vector<Var>& v) {
    return Sum(Relu(v[0]));
  });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsForwardTest, ReluClampsNegatives) {
  Graph g;
  Var x = g.Constant(Tensor({3}, {-1.0, 0.0, 2.0}));
  const Tensor& out = Relu(x).value();
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(OpsGradTest, ConcatCols) {
  auto r = CheckGradients(
      {RandomTensor({3, 2}, 9), RandomTensor({3, 4}, 10),
       RandomTensor({3, 1}, 11)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(ConcatCols({v[0], v[1], v[2]}));
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsForwardTest, ConcatColsLayout) {
  Graph g;
  Var a = g.Constant(Tensor({2, 1}, {1, 2}));
  Var b = g.Constant(Tensor({2, 2}, {3, 4, 5, 6}));
  const Tensor& out = ConcatCols({a, b}).value();
  EXPECT_EQ(out.dim(1), 3);
  EXPECT_DOUBLE_EQ(out.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.At(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(out.At(1, 1), 5.0);
}

TEST(OpsGradTest, LayerNorm) {
  auto r = CheckGradients(
      {RandomTensor({4, 6}, 12), RandomTensor({6}, 13),
       RandomTensor({6}, 14)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(Mul(LayerNorm(v[0], v[1], v[2]),
                       LayerNorm(v[0], v[1], v[2])));
      });
  EXPECT_LT(r.max_rel_err, 1e-5);
}

TEST(OpsForwardTest, LayerNormNormalizesRows) {
  Graph g;
  Rng rng(15);
  Var x = g.Constant(Tensor::Randn({3, 8}, &rng, 5.0));
  Var gamma = g.Constant(Tensor({8}, 1.0));
  Var beta = g.Constant(Tensor({8}, 0.0));
  const Tensor& out = LayerNorm(x, gamma, beta).value();
  for (int i = 0; i < 3; ++i) {
    double mean = 0.0, var = 0.0;
    for (int j = 0; j < 8; ++j) mean += out.At(i, j);
    mean /= 8;
    for (int j = 0; j < 8; ++j) {
      var += (out.At(i, j) - mean) * (out.At(i, j) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);  // eps shifts variance slightly below 1.
  }
}

TEST(OpsGradTest, GatherRows) {
  auto r = CheckGradients(
      {RandomTensor({5, 3}, 16)},
      [](Graph*, const std::vector<Var>& v) {
        return Sum(GatherRows(v[0], {0, 2, 2, 4}));
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsGradTest, MseLoss) {
  Tensor target = RandomTensor({4, 1}, 18);
  auto r = CheckGradients(
      {RandomTensor({4, 1}, 19)},
      [target](Graph*, const std::vector<Var>& v) {
        return MseLoss(v[0], target);
      });
  EXPECT_LT(r.max_rel_err, kGradTol);
}

TEST(OpsForwardTest, MseLossValue) {
  Graph g;
  Var pred = g.Constant(Tensor({2}, {1.0, 3.0}));
  Var loss = MseLoss(pred, Tensor({2}, {0.0, 0.0}));
  EXPECT_DOUBLE_EQ(loss.value()[0], 5.0);  // (1 + 9) / 2.
}

TEST(OpsForwardTest, DropoutIdentityWhenEval) {
  Rng rng(20);
  Graph g;
  Tensor x = RandomTensor({10}, 21);
  Var v = g.Constant(x);
  Var out = Dropout(v, 0.5, &rng, /*training=*/false);
  EXPECT_EQ(out.id, v.id);  // No-op returns the same node.
}

TEST(OpsForwardTest, DropoutScalesSurvivors) {
  Rng rng(22);
  Graph g;
  Var v = g.Constant(Tensor({1000}, 1.0));
  const Tensor& out = Dropout(v, 0.25, &rng, /*training=*/true).value();
  int zeros = 0;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(out[i], 1.0 / 0.75, 1e-12);  // Inverted dropout scaling.
    }
  }
  EXPECT_NEAR(zeros, 250, 60);
}

TEST(OpsGradTest, ComposedMiniNetwork) {
  // A small MLP: checks gradient flow through a realistic composition.
  Tensor target = RandomTensor({5, 1}, 23);
  auto r = CheckGradients(
      {RandomTensor({5, 3}, 24), RandomTensor({3, 4}, 25),
       RandomTensor({4}, 26), RandomTensor({4, 1}, 27)},
      [target](Graph*, const std::vector<Var>& v) {
        Var h = Relu(AddRow(MatMul(v[0], v[1]), v[2]));
        return MseLoss(MatMul(h, v[3]), target);
      });
  EXPECT_LT(r.max_rel_err, 1e-5);
}

}  // namespace
}  // namespace ssin
