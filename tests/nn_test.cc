#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/transformer.h"

namespace ssin {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear layer(3, 5, /*bias=*/true, &rng);
  EXPECT_EQ(layer.ParameterCount(), 3 * 5 + 5);

  Graph g;
  Var x = g.Constant(Tensor({4, 3}, 1.0));
  Var out = layer.Forward(x);
  EXPECT_EQ(out.value().dim(0), 4);
  EXPECT_EQ(out.value().dim(1), 5);
}

TEST(LinearTest, NoBiasMapsZeroToZero) {
  // The zero-embedding problem of the paper's emb:*-l ablations: a linear
  // layer without bias sends input 0 to embedding 0.
  Rng rng(2);
  Linear layer(1, 4, /*bias=*/false, &rng);
  Graph g;
  Var out = layer.Forward(g.Constant(Tensor({1, 1}, 0.0)));
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(out.value().At(0, j), 0.0);
}

TEST(Fcn2Test, BiasAvoidsZeroEmbedding) {
  Rng rng(3);
  Fcn2 fcn(1, 4, 4, /*relu=*/false, /*bias=*/true, &rng);
  Graph g;
  Var out = fcn.Forward(g.Constant(Tensor({1, 1}, 0.0)));
  double norm = 0.0;
  for (int j = 0; j < 4; ++j) norm += std::fabs(out.value().At(0, j));
  EXPECT_GT(norm, 1e-6);  // Bias keeps zero inputs representable.
}

TEST(Fcn2Test, ParameterCount) {
  Rng rng(4);
  Fcn2 fcn(2, 8, 3, /*relu=*/true, /*bias=*/true, &rng);
  EXPECT_EQ(fcn.ParameterCount(), (2 * 8 + 8) + (8 * 3 + 3));
}

TEST(LayerNormLayerTest, LearnableAffine) {
  Rng rng(5);
  LayerNormLayer norm(6);
  EXPECT_EQ(norm.ParameterCount(), 12);
  Graph g;
  Var out = norm.Forward(g.Constant(Tensor::Randn({3, 6}, &rng)));
  EXPECT_EQ(out.value().dim(1), 6);
}

TEST(ModuleTest, ZeroGradClearsAccumulators) {
  Rng rng(6);
  Linear layer(2, 2, true, &rng);
  Graph g;
  Var loss = Sum(layer.Forward(g.Constant(Tensor({1, 2}, 1.0))));
  g.Backward(loss);
  double before = 0.0;
  for (Parameter* p : layer.Parameters()) {
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      before += std::fabs(p->grad[i]);
    }
  }
  EXPECT_GT(before, 0.0);
  layer.ZeroGrad();
  for (Parameter* p : layer.Parameters()) {
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_DOUBLE_EQ(p->grad[i], 0.0);
    }
  }
}

TEST(ModuleTest, QualifiedParameterNames) {
  Rng rng(7);
  Fcn2 fcn(2, 3, 4, false, true, &rng);
  std::vector<Parameter*> params = fcn.Parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "fc1.weight");
  EXPECT_EQ(params[3]->name, "fc2.bias");
}

TEST(AttentionModuleTest, OutputShapeAndParamCount) {
  Rng rng(8);
  AttentionConfig cfg;
  MultiHeadSpaAttention attn(16, 2, 16, cfg, &rng);
  // Per head: 3 projections of 16x16; output projection 32x16.
  EXPECT_EQ(attn.ParameterCount(), 2 * 3 * 256 + 32 * 16);

  const int length = 7;
  Graph g;
  Var e = g.Constant(Tensor::Randn({length, 16}, &rng));
  std::vector<uint8_t> observed(length, 1);
  observed[2] = 0;
  auto plan = std::make_shared<AttentionPlan>();
  BuildAttentionPlan(observed, cfg.shielded, plan.get());
  Var c = g.Constant(
      Tensor::Randn({static_cast<int>(plan->num_pairs()), 16}, &rng));
  Var out = attn.Forward(e, c, plan);
  EXPECT_EQ(out.value().dim(0), length);
  EXPECT_EQ(out.value().dim(1), 16);
}

TEST(EncoderTest, StackForwardAndGradFlow) {
  Rng rng(9);
  AttentionConfig cfg;
  Encoder encoder(2, 8, 2, 8, 32, cfg, &rng);
  const int length = 5;
  Graph g;
  Var e = g.Constant(Tensor::Randn({length, 8}, &rng));
  std::vector<uint8_t> observed(length, 1);
  observed[1] = 0;
  auto plan = std::make_shared<AttentionPlan>();
  BuildAttentionPlan(observed, cfg.shielded, plan.get());
  Var c = g.Constant(
      Tensor::Randn({static_cast<int>(plan->num_pairs()), 8}, &rng));
  Var out = encoder.Forward(e, c, plan);
  g.Backward(Sum(out));
  // Every parameter must receive some gradient signal.
  int touched = 0;
  for (Parameter* p : encoder.Parameters()) {
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      if (p->grad[i] != 0.0) {
        ++touched;
        break;
      }
    }
  }
  EXPECT_EQ(touched, static_cast<int>(encoder.Parameters().size()));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Rng rng(12);
  Linear layer(1, 1, false, &rng);
  Adam opt(layer.Parameters());
  opt.set_learning_rate(0.05);
  for (int step = 0; step < 400; ++step) {
    layer.ZeroGrad();
    Graph g;
    Var w_out = layer.Forward(g.Constant(Tensor({1, 1}, 1.0)));
    Var loss = MseLoss(w_out, Tensor({1, 1}, -2.0));
    g.Backward(loss);
    opt.Step();
  }
  EXPECT_NEAR(layer.Parameters()[0]->value[0], -2.0, 1e-3);
}

TEST(AdamTest, StepClearsGradients) {
  Rng rng(13);
  Linear layer(2, 2, true, &rng);
  Adam opt(layer.Parameters());
  Graph g;
  g.Backward(Sum(layer.Forward(g.Constant(Tensor({1, 2}, 1.0)))));
  opt.Step();
  for (Parameter* p : layer.Parameters()) {
    for (int64_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_DOUBLE_EQ(p->grad[i], 0.0);
    }
  }
}

TEST(NoamScheduleTest, WarmupThenDecay) {
  NoamSchedule schedule(16, 100);
  // Rising during warmup.
  EXPECT_LT(schedule.LearningRate(10), schedule.LearningRate(50));
  EXPECT_LT(schedule.LearningRate(50), schedule.LearningRate(100));
  // Decaying afterwards.
  EXPECT_GT(schedule.LearningRate(100), schedule.LearningRate(400));
  // Peak at warmup boundary.
  EXPECT_NEAR(schedule.LearningRate(100),
              1.0 / std::sqrt(16.0) / std::sqrt(100.0), 1e-12);
}

TEST(NoamScheduleTest, StepAppliesRate) {
  Rng rng(14);
  Linear layer(1, 1, false, &rng);
  Adam opt(layer.Parameters());
  NoamSchedule schedule(16, 100, 2.0);
  schedule.Step(&opt);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), schedule.LearningRate(1));
  EXPECT_EQ(schedule.step(), 1);
}

TEST(SerializeTest, RoundTrip) {
  Rng rng(15);
  Fcn2 a(3, 8, 2, true, true, &rng);
  Fcn2 b(3, 8, 2, true, true, &rng);  // Different random init.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ssin_nn_test.bin").string();
  ASSERT_TRUE(SaveModule(&a, path));
  ASSERT_TRUE(LoadModule(&b, path));
  std::vector<Parameter*> pa = a.Parameters();
  std::vector<Parameter*> pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t e = 0; e < pa[i]->value.numel(); ++e) {
      EXPECT_DOUBLE_EQ(pa[i]->value[e], pb[i]->value[e]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ArchitectureMismatchFails) {
  Rng rng(16);
  Fcn2 a(3, 8, 2, true, true, &rng);
  Fcn2 wrong(3, 9, 2, true, true, &rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ssin_nn_test2.bin")
          .string();
  ASSERT_TRUE(SaveModule(&a, path));
  EXPECT_FALSE(LoadModule(&wrong, path));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Rng rng(17);
  Fcn2 a(2, 2, 2, false, true, &rng);
  EXPECT_FALSE(LoadModule(&a, "/nonexistent/ckpt.bin"));
}

}  // namespace
}  // namespace ssin
