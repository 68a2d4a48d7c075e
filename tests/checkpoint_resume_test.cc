/// End-to-end tests of the crash-safe checkpoint/resume contract
/// (SsinTrainer::SaveCheckpoint / ResumeFrom): killing a run after epoch K
/// and resuming from its checkpoint must reproduce the uninterrupted run's
/// losses, parameters, and predictions to <= 1e-12, in both serial and
/// thread-parallel training and under dynamic and static masking.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/masking.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "core/trainer.h"
#include "data/rainfall_generator.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace ssin {
namespace {

constexpr double kTol = 1e-12;

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 20;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 1;
  config.num_heads = 1;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 16;
  return config;
}

/// 8 timestamps x 2 masks = 16 items, batch 4 -> 4 steps/epoch. With
/// warmup_steps=2 the warmup clamp (quarter of planned steps) is a no-op
/// for both the 2-epoch interrupted run and the 4-epoch full run, so the
/// two schedules are identical — the resume-equivalence comparisons below
/// depend on that.
TrainConfig ResumableConfig() {
  TrainConfig config;
  config.epochs = 4;
  config.masks_per_sequence = 2;
  config.batch_size = 4;
  config.warmup_steps = 2;
  config.lr_factor = 0.2;
  config.seed = 7;
  return config;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "ssin_resume_test";
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "train.ckpt").string();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void ExpectModelsEqual(SpaFormer* a, SpaFormer* b) {
    std::vector<Parameter*> pa = a->Parameters();
    std::vector<Parameter*> pb = b->Parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t p = 0; p < pa.size(); ++p) {
      ASSERT_TRUE(pa[p]->value.SameShape(pb[p]->value)) << pa[p]->name;
      for (int64_t i = 0; i < pa[p]->value.numel(); ++i) {
        EXPECT_NEAR(pa[p]->value[i], pb[p]->value[i], kTol)
            << pa[p]->name << "[" << i << "]";
      }
    }
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CheckpointResumeTest, ResumeReproducesUninterruptedRun) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 1);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);
  const Tensor abspos = context.AbsposFor(train_ids);

  for (int threads : {1, 4}) {
    for (bool dynamic : {true, false}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads) +
                   " dynamic_masking=" + std::to_string(dynamic));
      TrainConfig base = ResumableConfig();
      base.num_threads = threads;
      base.dynamic_masking = dynamic;

      // Reference: an uninterrupted 4-epoch run.
      TrainConfig full_config = base;
      Rng init_full(21);
      SpaFormer full_model(TinyModel(), &init_full);
      SsinTrainer full_trainer(&full_model, &context, full_config);
      const TrainStats full_stats = full_trainer.Train(data, train_ids);
      ASSERT_EQ(full_stats.epoch_loss.size(), 4u);

      // The same run killed after epoch 2, checkpointing each epoch.
      TrainConfig part_config = base;
      part_config.epochs = 2;
      part_config.checkpoint_path = path_;
      Rng init_part(21);
      SpaFormer part_model(TinyModel(), &init_part);
      SsinTrainer part_trainer(&part_model, &context, part_config);
      const TrainStats part1 = part_trainer.Train(data, train_ids);
      ASSERT_EQ(part1.epoch_loss.size(), 2u);

      // Resume into a *differently initialized* fresh model: everything
      // that matters must come from the checkpoint, not from the process
      // that died.
      TrainConfig rest_config = base;
      Rng init_rest(99);
      SpaFormer rest_model(TinyModel(), &init_rest);
      SsinTrainer rest_trainer(&rest_model, &context, rest_config);
      ASSERT_TRUE(rest_trainer.ResumeFrom(path_));
      EXPECT_EQ(rest_trainer.epochs_completed(), 2);
      const TrainStats part2 = rest_trainer.Train(data, train_ids);
      ASSERT_EQ(part2.epoch_loss.size(), 2u);
      EXPECT_EQ(rest_trainer.epochs_completed(), 4);

      // Concatenated epoch losses match the uninterrupted run.
      for (int e = 0; e < 4; ++e) {
        const double resumed =
            e < 2 ? part1.epoch_loss[e] : part2.epoch_loss[e - 2];
        EXPECT_NEAR(resumed, full_stats.epoch_loss[e], kTol) << "epoch " << e;
      }
      ExpectModelsEqual(&full_model, &rest_model);

      // And the two models answer a fixed masked query identically.
      std::vector<double> row;
      for (int id : train_ids) row.push_back(data.Value(0, id));
      MaskingOptions mask_options;
      MaskedSequence seq =
          BuildMaskedSequence(row, {0, 3, 7}, mask_options);
      auto plan = std::make_shared<AttentionPlan>();
      BuildAttentionPlan(seq.observed, /*shielded=*/true, plan.get());
      const Tensor relpos = context.RelposForPairs(train_ids,
                                                   plan->pair_rows);
      Graph ga, gb;
      Var pred_full =
          full_model.ForwardWithPlan(&ga, seq.input, plan, relpos, abspos);
      Var pred_rest =
          rest_model.ForwardWithPlan(&gb, seq.input, plan, relpos, abspos);
      ASSERT_EQ(pred_full.value().numel(), pred_rest.value().numel());
      for (int64_t i = 0; i < pred_full.value().numel(); ++i) {
        EXPECT_NEAR(pred_full.value()[i], pred_rest.value()[i], kTol);
      }
    }
  }
}

TEST_F(CheckpointResumeTest, FinishedRunCheckpointWarmStarts) {
  // A checkpoint whose cursor equals its run's epoch count is a finished
  // run: resuming from it and training again must equal calling Train() a
  // second time on the original trainer (the Figure 11 model-update path).
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 2);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);

  TrainConfig config = ResumableConfig();
  config.epochs = 2;
  config.checkpoint_path = path_;
  Rng init_a(21);
  SpaFormer original(TinyModel(), &init_a);
  SsinTrainer original_trainer(&original, &context, config);
  original_trainer.Train(data, train_ids);

  // The second Train() below overwrites path_, so keep the finished-run
  // checkpoint aside first.
  const std::string frozen = (dir_ / "frozen.ckpt").string();
  std::filesystem::copy_file(path_, frozen);
  const TrainStats second = original_trainer.Train(data, train_ids);

  TrainConfig resumed_config = ResumableConfig();
  resumed_config.epochs = 2;  // No checkpoint_path: compare runs only.
  Rng init_b(99);
  SpaFormer resumed(TinyModel(), &init_b);
  SsinTrainer resumed_trainer(&resumed, &context, resumed_config);
  ASSERT_TRUE(resumed_trainer.ResumeFrom(frozen));
  const TrainStats continued = resumed_trainer.Train(data, train_ids);

  ASSERT_EQ(continued.epoch_loss.size(), second.epoch_loss.size());
  for (size_t e = 0; e < second.epoch_loss.size(); ++e) {
    EXPECT_NEAR(continued.epoch_loss[e], second.epoch_loss[e], kTol);
  }
  ExpectModelsEqual(&original, &resumed);
}

TEST_F(CheckpointResumeTest, ResumeRejectsArchitectureMismatch) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 3);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);

  TrainConfig config = ResumableConfig();
  config.epochs = 1;
  config.checkpoint_path = path_;
  Rng init_a(21);
  SpaFormer source(TinyModel(), &init_a);
  SsinTrainer source_trainer(&source, &context, config);
  source_trainer.Train(data, train_ids);

  SpaFormerConfig other_arch = TinyModel();
  other_arch.d_ff = 32;  // Different feed-forward width.
  Rng init_b(22);
  SpaFormer other(other_arch, &init_b);
  SsinTrainer other_trainer(&other, &context, config);

  std::vector<Tensor> before;
  for (Parameter* p : other.Parameters()) before.push_back(p->value);
  EXPECT_FALSE(other_trainer.ResumeFrom(path_));
  EXPECT_EQ(other_trainer.epochs_completed(), 0);
  std::vector<Parameter*> params = other.Parameters();
  ASSERT_EQ(params.size(), before.size());
  for (size_t p = 0; p < params.size(); ++p) {
    for (int64_t i = 0; i < before[p].numel(); ++i) {
      ASSERT_EQ(params[p]->value[i], before[p][i]) << params[p]->name;
    }
  }
}

TEST_F(CheckpointResumeTest, CheckpointRecordsEpochCursorAndShuffleState) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 4);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);
  SpatialContext context;
  context.Build(data, train_ids);

  TrainConfig config = ResumableConfig();
  config.epochs = 3;
  config.dynamic_masking = false;
  config.checkpoint_path = path_;
  Rng init(21);
  SpaFormer model(TinyModel(), &init);
  SsinTrainer trainer(&model, &context, config);
  trainer.Train(data, train_ids);

  TrainingCheckpoint cp;
  ASSERT_TRUE(LoadTrainingCheckpoint(&cp, path_));
  EXPECT_EQ(cp.epochs_completed, 3);
  const size_t num_items = static_cast<size_t>(data.num_timestamps()) *
                           config.masks_per_sequence;
  EXPECT_EQ(cp.item_order.size(), num_items);
  // Static-masking run: the preprocessing masks ride along so a resume
  // replays them instead of redrawing from a later RNG state.
  EXPECT_EQ(cp.static_masks.size(), num_items);
  EXPECT_TRUE(cp.has_schedule);
  EXPECT_GT(cp.adam_step, 0);
}

TEST_F(CheckpointResumeTest, InterpolatorCheckpointRoundTrip) {
  RainfallGenerator gen(TinyRegion());
  SpatialDataset data = gen.GenerateHours(8, 5);
  std::vector<int> train_ids;
  for (int i = 0; i < 16; ++i) train_ids.push_back(i);
  const std::vector<int> query_ids = {17, 19};

  TrainConfig config = ResumableConfig();
  config.epochs = 2;
  SsinInterpolator source(TinyModel(), config);
  source.Fit(data, train_ids);
  ASSERT_TRUE(source.SaveTrainerCheckpoint(path_));

  SsinInterpolator target(TinyModel(), config);
  target.Prepare(data, train_ids);
  ASSERT_TRUE(target.ResumeTrainerFrom(path_));

  const std::vector<double> a =
      source.InterpolateTimestamp(data.Values(0), train_ids, query_ids);
  const std::vector<double> b =
      target.InterpolateTimestamp(data.Values(0), train_ids, query_ids);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace ssin
