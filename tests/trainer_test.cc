#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "core/ssin_interpolator.h"
#include "core/spatial_context.h"
#include "core/trainer.h"
#include "data/rainfall_generator.h"
#include "eval/metrics.h"
#include "tensor/ops.h"

namespace ssin {
namespace {

/// A small, fast region for training tests.
RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 30;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 1;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining() {
  TrainConfig config;
  config.epochs = 3;
  config.masks_per_sequence = 2;
  config.batch_size = 16;
  config.warmup_steps = 30;
  // Short warmups need a smaller Noam factor: keep peak lr ~0.01.
  config.lr_factor = 0.2;
  config.seed = 7;
  return config;
}

TEST(TrainerTest, LossDecreases) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(40, 1);
  std::vector<int> train_ids;
  for (int i = 0; i < 24; ++i) train_ids.push_back(i);

  SsinInterpolator ssin(TinyModel(), FastTraining());
  ssin.Fit(data, train_ids);
  const TrainStats& stats = ssin.train_stats();
  ASSERT_EQ(stats.epoch_loss.size(), 3u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
  EXPECT_GT(stats.steps, 0);
}

TEST(TrainerTest, OversizedWarmupIsClampedToRunLength) {
  // With the paper's 1200-step warmup but only ~tens of steps available,
  // the schedule must still traverse warmup and decay (regression test:
  // an unclamped warmup left the model effectively untrained).
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(40, 9);
  std::vector<int> train_ids;
  for (int i = 0; i < 24; ++i) train_ids.push_back(i);

  TrainConfig config = FastTraining();
  config.epochs = 6;
  config.lr_factor = 0.15;
  config.warmup_steps = 10000;  // Absurdly large on purpose.
  SsinInterpolator ssin(TinyModel(), config);
  ssin.Fit(data, train_ids);
  const TrainStats& stats = ssin.train_stats();
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(TrainerTest, DeterministicWithSameSeed) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(15, 2);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);
  std::vector<int> test_ids = {20, 25, 29};

  auto run = [&]() {
    SsinInterpolator ssin(TinyModel(), FastTraining());
    ssin.Fit(data, train_ids);
    return ssin.InterpolateTimestamp(data.Values(0), train_ids, test_ids);
  };
  const std::vector<double> a = run();
  const std::vector<double> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(TrainerTest, InterpolationBeatsGlobalMeanAfterTraining) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(60, 3);
  std::vector<int> train_ids, test_ids;
  for (int i = 0; i < 30; ++i) {
    (i % 5 == 4 ? test_ids : train_ids).push_back(i);
  }

  TrainConfig train_config = FastTraining();
  train_config.epochs = 6;
  SsinInterpolator ssin(TinyModel(), train_config);
  ssin.Fit(data, train_ids);

  MetricsAccumulator model_acc, mean_acc;
  for (int t = 0; t < data.num_timestamps(); ++t) {
    const std::vector<double> pred =
        ssin.InterpolateTimestamp(data.Values(t), train_ids, test_ids);
    double mean = 0.0;
    for (int id : train_ids) mean += data.Value(t, id);
    mean /= train_ids.size();
    for (size_t q = 0; q < test_ids.size(); ++q) {
      model_acc.Add(data.Value(t, test_ids[q]), pred[q]);
      mean_acc.Add(data.Value(t, test_ids[q]), mean);
    }
  }
  EXPECT_LT(model_acc.Compute().rmse, mean_acc.Compute().rmse);
}

TEST(TrainerTest, StaticMaskingAndZeroFillVariantsRun) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(12, 4);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);

  TrainConfig variant = FastTraining();
  variant.epochs = 2;
  variant.dynamic_masking = false;
  variant.mean_fill = false;
  SsinInterpolator ssin(TinyModel(), variant);
  ssin.Fit(data, train_ids);
  const std::vector<double> pred =
      ssin.InterpolateTimestamp(data.Values(0), train_ids, {25, 29});
  for (double p : pred) EXPECT_TRUE(std::isfinite(p));
}

TEST(TrainerTest, ContinueTrainingExtendsStats) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(10, 5);
  std::vector<int> train_ids;
  for (int i = 0; i < 18; ++i) train_ids.push_back(i);

  TrainConfig config = FastTraining();
  config.epochs = 2;
  SsinInterpolator ssin(TinyModel(), config);
  ssin.Fit(data, train_ids);
  EXPECT_EQ(ssin.train_stats().epoch_loss.size(), 2u);

  SpatialDataset more = data.ConcatTimestamps(gen.GenerateHours(10, 6));
  ssin.ContinueTraining(more, train_ids);
  EXPECT_EQ(ssin.train_stats().epoch_loss.size(), 4u);
}

TEST(TrainerTest, CopyParametersTransfersBehavior) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(20, 7);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);
  std::vector<int> test_ids = {22, 27};

  SsinInterpolator source(TinyModel(), FastTraining());
  source.Fit(data, train_ids);

  SsinInterpolator target(TinyModel(), FastTraining());
  target.Prepare(data, train_ids);  // Same context; no training.
  target.CopyParametersFrom(source);

  const std::vector<double> a =
      source.InterpolateTimestamp(data.Values(0), train_ids, test_ids);
  const std::vector<double> b =
      target.InterpolateTimestamp(data.Values(0), train_ids, test_ids);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(TrainerTest, WarmupIsClampedToQuarterOfPlannedSteps) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(20, 10);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);

  TrainConfig config = FastTraining();
  config.warmup_steps = 10000;  // Far beyond this run's step budget.
  const int64_t items =
      static_cast<int64_t>(data.num_timestamps()) * config.masks_per_sequence;
  const int64_t steps_per_epoch =
      (items + config.batch_size - 1) / config.batch_size;
  const int64_t planned = steps_per_epoch * config.epochs;

  Rng init_rng(3);
  SpaFormer model(TinyModel(), &init_rng);
  SsinTrainer trainer(&model, &context, config);
  EXPECT_EQ(trainer.schedule(), nullptr);  // Created by the first Train().
  trainer.Train(data, train_ids);
  ASSERT_NE(trainer.schedule(), nullptr);
  EXPECT_EQ(trainer.schedule()->warmup_steps(),
            static_cast<int>(std::max<int64_t>(1, planned / 4)));

  // A warmup that already fits the budget is left untouched.
  TrainConfig small = FastTraining();
  small.warmup_steps = 2;
  Rng init_rng2(3);
  SpaFormer model2(TinyModel(), &init_rng2);
  SsinTrainer trainer2(&model2, &context, small);
  trainer2.Train(data, train_ids);
  ASSERT_NE(trainer2.schedule(), nullptr);
  EXPECT_EQ(trainer2.schedule()->warmup_steps(), 2);
}

TEST(TrainerTest, StepCountIsCeilItemsOverBatchTimesEpochs) {
  RainfallGenerator gen(TinyRegion());
  // 7 timestamps x 3 masks = 21 items; batch 4 -> ceil = 6 steps/epoch.
  SpatialDataset data = gen.GenerateHours(7, 11);
  std::vector<int> train_ids;
  for (int i = 0; i < 18; ++i) train_ids.push_back(i);

  TrainConfig config = FastTraining();
  config.epochs = 2;
  config.masks_per_sequence = 3;
  config.batch_size = 4;
  SsinInterpolator ssin(TinyModel(), config);
  ssin.Fit(data, train_ids);

  const int64_t items =
      static_cast<int64_t>(data.num_timestamps()) * config.masks_per_sequence;
  const int64_t steps_per_epoch =
      (items + config.batch_size - 1) / config.batch_size;
  EXPECT_EQ(ssin.train_stats().steps, steps_per_epoch * config.epochs);
}

TEST(TrainerTest, PartialLastBatchGradientIsMeanOverItsOwnItems) {
  // Pins the batch-averaging semantics: every optimizer step consumes the
  // *mean* gradient of the items its batch actually holds — for a partial
  // final batch that divisor is the partial size, not batch_size — while
  // epoch_loss is the mean per-item loss over the whole epoch. The trainer
  // run must be bit-identical to this manual replication of that contract.
  RainfallGenerator gen(TinyRegion());
  // 5 timestamps x 1 mask = 5 items; batch 2 -> batches of 2, 2 and 1.
  SpatialDataset data = gen.GenerateHours(5, 12);
  std::vector<int> train_ids;
  for (int i = 0; i < 12; ++i) train_ids.push_back(i);
  const int length = static_cast<int>(train_ids.size());
  SpatialContext context;
  context.Build(data, train_ids);

  TrainConfig config = FastTraining();
  config.epochs = 2;
  config.masks_per_sequence = 1;
  config.batch_size = 2;

  Rng init_a(99);
  SpaFormer trained(TinyModel(), &init_a);
  SsinTrainer trainer(&trained, &context, config);
  const TrainStats stats = trainer.Train(data, train_ids);

  // Manual replication on an identically initialized twin.
  Rng init_b(99);
  SpaFormer manual(TinyModel(), &init_b);
  const Tensor abspos = context.AbsposFor(train_ids);
  MaskingOptions mask_options;
  mask_options.mask_ratio = config.mask_ratio;
  mask_options.mean_fill = config.mean_fill;

  std::vector<std::vector<double>> sequences(data.num_timestamps());
  for (int t = 0; t < data.num_timestamps(); ++t) {
    for (int i = 0; i < length; ++i) {
      sequences[t].push_back(data.Value(t, train_ids[i]));
    }
  }
  std::vector<int> items(sequences.size() * config.masks_per_sequence);
  std::iota(items.begin(), items.end(), 0);

  const int64_t steps_per_epoch =
      (static_cast<int64_t>(items.size()) + config.batch_size - 1) /
      config.batch_size;
  const int warmup = static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(config.warmup_steps,
                           steps_per_epoch * config.epochs / 4)));
  Adam adam(manual.Parameters(), 0.9, 0.98, 1e-9);
  NoamSchedule schedule(manual.config().d_model, warmup, config.lr_factor);
  Rng rng(config.seed);

  std::vector<double> manual_epoch_loss;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&items);
    double loss_sum = 0.0;
    int64_t loss_count = 0;
    for (size_t start = 0; start < items.size();
         start += config.batch_size) {
      const size_t end = std::min(items.size(),
                                  start + config.batch_size);
      // The pinned divisor: the batch's own item count (1 for the final
      // batch here), not config.batch_size.
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      manual.ZeroGrad();
      for (size_t it = start; it < end; ++it) {
        const int t = items[it] % data.num_timestamps();
        const std::vector<int> mask =
            SampleMask(length, config.mask_ratio, &rng);
        MaskedSequence seq =
            BuildMaskedSequence(sequences[t], mask, mask_options);
        auto plan = std::make_shared<AttentionPlan>();
        BuildAttentionPlan(seq.observed, /*shielded=*/true, plan.get());
        const Tensor relpos = context.RelposForPairs(train_ids,
                                                     plan->pair_rows);
        Graph graph;
        Var pred = manual.ForwardWithPlan(&graph, seq.input, std::move(plan),
                                          relpos, abspos);
        Var loss = MseLoss(GatherRows(pred, seq.target_positions),
                           seq.targets);
        loss_sum += loss.value()[0];
        ++loss_count;
        graph.Backward(Scale(loss, inv_batch));
      }
      schedule.Step(&adam);
      adam.Step();
    }
    manual_epoch_loss.push_back(
        loss_sum / static_cast<double>(std::max<int64_t>(1, loss_count)));
  }

  ASSERT_EQ(stats.epoch_loss.size(), manual_epoch_loss.size());
  for (size_t e = 0; e < manual_epoch_loss.size(); ++e) {
    EXPECT_DOUBLE_EQ(stats.epoch_loss[e], manual_epoch_loss[e]);
  }
  std::vector<Parameter*> got = trained.Parameters();
  std::vector<Parameter*> want = manual.Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p]->value.numel(), want[p]->value.numel());
    for (int64_t i = 0; i < got[p]->value.numel(); ++i) {
      EXPECT_DOUBLE_EQ(got[p]->value[i], want[p]->value[i])
          << got[p]->name << "[" << i << "]";
    }
  }
}

TEST(TrainerTest, QueryIndependenceAtSystemLevel) {
  // End-to-end version of the shielded consistency property: the answer
  // for station q is identical whether it is queried alone or with others.
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(10, 8);
  std::vector<int> train_ids;
  for (int i = 0; i < 20; ++i) train_ids.push_back(i);

  SsinInterpolator ssin(TinyModel(), FastTraining());
  ssin.Fit(data, train_ids);

  const std::vector<double> alone =
      ssin.InterpolateTimestamp(data.Values(0), train_ids, {25});
  const std::vector<double> with_others = ssin.InterpolateTimestamp(
      data.Values(0), train_ids, {21, 25, 28});
  EXPECT_DOUBLE_EQ(alone[0], with_others[1]);
}

}  // namespace
}  // namespace ssin
