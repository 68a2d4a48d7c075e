/// Equivalence contract of the legal-pair-sparse SRPE pipeline:
///
///  * Training with packed_srpe (the default) reproduces the dense
///    [L*L, d_k] reference pipeline — epoch losses, evaluation metrics and
///    final parameters to 1e-12 — across masking modes and thread counts.
///    The two paths score the same legal pairs with the same c_ij values;
///    only the fp association of the position-embedding backward differs.
///  * One SpaFormer::Forward builds exactly one AttentionPlan, no matter
///    how many layers and heads consume it, and backward builds none.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "eval/runner.h"
#include "tensor/attention_kernels.h"
#include "tensor/ops.h"

namespace ssin {
namespace {

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 26;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel(bool packed_srpe) {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  config.packed_srpe = packed_srpe;
  return config;
}

TrainConfig FastTraining(int num_threads) {
  TrainConfig config;
  config.epochs = 3;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 30;
  config.lr_factor = 0.2;
  config.seed = 11;
  config.num_threads = num_threads;
  return config;
}

struct TrainResult {
  std::vector<double> epoch_loss;
  std::vector<double> params;
  Metrics metrics;
};

/// Trains a fresh tiny model and evaluates it on a held-out split.
TrainResult TrainOnce(const SpatialDataset& data, bool packed_srpe,
                      int num_threads, bool dynamic_masking) {
  std::vector<int> train_ids, test_ids;
  for (int i = 0; i < 26; ++i) {
    (i % 5 == 4 ? test_ids : train_ids).push_back(i);
  }
  TrainConfig config = FastTraining(num_threads);
  config.dynamic_masking = dynamic_masking;
  SsinInterpolator ssin(TinyModel(packed_srpe), config);
  ssin.Fit(data, train_ids);

  TrainResult result;
  result.epoch_loss = ssin.train_stats().epoch_loss;
  for (Parameter* p : ssin.model()->Parameters()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      result.params.push_back(p->value[i]);
    }
  }
  NodeSplit split;
  split.train_ids = train_ids;
  split.test_ids = test_ids;
  result.metrics = EvaluateWithoutFit(&ssin, data, split, {}).metrics;
  return result;
}

void ExpectEquivalent(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.epoch_loss.size(), b.epoch_loss.size());
  for (size_t e = 0; e < a.epoch_loss.size(); ++e) {
    EXPECT_NEAR(a.epoch_loss[e], b.epoch_loss[e], 1e-12) << "epoch " << e;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    EXPECT_NEAR(a.params[i], b.params[i], 1e-12) << "parameter scalar " << i;
  }
  EXPECT_NEAR(a.metrics.rmse, b.metrics.rmse, 1e-12);
  EXPECT_NEAR(a.metrics.mae, b.metrics.mae, 1e-12);
  EXPECT_NEAR(a.metrics.nse, b.metrics.nse, 1e-12);
}

class PackedSrpeEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(PackedSrpeEquivalence, PackedPipelineMatchesDenseReference) {
  const auto [dynamic_masking, num_threads] = GetParam();
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(20, 1);

  const TrainResult dense =
      TrainOnce(data, /*packed_srpe=*/false, num_threads, dynamic_masking);
  const TrainResult packed =
      TrainOnce(data, /*packed_srpe=*/true, num_threads, dynamic_masking);
  ExpectEquivalent(dense, packed);
}

INSTANTIATE_TEST_SUITE_P(
    MaskingAndThreads, PackedSrpeEquivalence,
    ::testing::Combine(::testing::Values(true, false),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "DynamicMasking"
                                                 : "StaticMasking") +
             (std::get<1>(info.param) == 1 ? "_Serial" : "_FourThreads");
    });

TEST(AttentionPlanLifecycle, BuiltExactlyOncePerSequenceForward) {
  // T=2 layers x H=2 heads = 4 kernel invocations, one plan.
  Rng rng(21);
  SpaFormer model(TinyModel(/*packed_srpe=*/true), &rng);
  const int length = 10;
  Tensor x = Tensor::Randn({length, 1}, &rng);
  Tensor relpos = Tensor::Randn({length * length, 2}, &rng);
  Tensor abspos;
  std::vector<uint8_t> observed(length, 1);
  observed[3] = observed[7] = 0;

  const int64_t before = AttentionPlanBuildCount();
  Graph graph;
  Var pred = model.Forward(&graph, x, relpos, abspos, observed);
  EXPECT_EQ(AttentionPlanBuildCount() - before, 1)
      << "Forward must build one plan shared by all layers and heads";
  graph.Backward(Sum(pred));
  EXPECT_EQ(AttentionPlanBuildCount() - before, 1)
      << "Backward must reuse the forward plan, not rebuild it";
}

TEST(AttentionPlanLifecycle, DensePipelineAlsoBuildsOnce) {
  Rng rng(22);
  SpaFormer model(TinyModel(/*packed_srpe=*/false), &rng);
  const int length = 8;
  Tensor x = Tensor::Randn({length, 1}, &rng);
  Tensor relpos = Tensor::Randn({length * length, 2}, &rng);
  Tensor abspos;
  std::vector<uint8_t> observed(length, 1);
  observed[2] = 0;

  const int64_t before = AttentionPlanBuildCount();
  Graph graph;
  model.Forward(&graph, x, relpos, abspos, observed);
  EXPECT_EQ(AttentionPlanBuildCount() - before, 1);
}

}  // namespace
}  // namespace ssin
