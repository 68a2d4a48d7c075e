/// Pins the contract of the graph-free serving chain: SpaFormer::Predict
/// (through SsinInterpolator::InterpolateTimestamp / InterpolateBatch)
/// reproduces the autograd reference forward to <= 1e-12 across the
/// Table 6 ablation variants, fill modes and thread counts
/// (PredictF32 within the f32 serving gate), and the layout cache serves
/// repeated station sets without rebuilding plans or embeddings — until a
/// weight mutation invalidates it (a rejected checkpoint load is none).
/// Store-backed layouts — one PairStore row per station pair, shared by
/// every cached layout — predict bit for bit what standalone layouts do,
/// hold only their plan plus an int32 row index, and resolve only the
/// pairs of their queries' cone.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "core/inference_engine.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "eval/runner.h"
#include "nn/inference.h"
#include "tensor/attention_kernels.h"

namespace ssin {
namespace {

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 24;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

// Tiny dimensions over `config`'s architecture switches (embeddings,
// position mode, shielding, head count).
SpaFormerConfig TinyModel(SpaFormerConfig config = SpaFormerConfig()) {
  config.num_layers = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(bool mean_fill) {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = 13;
  config.mean_fill = mean_fill;
  return config;
}

struct Fixture {
  Fixture() : generator(TinyRegion()), data(generator.GenerateHours(16, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
    }
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
};

// Accuracy budget for f32 serving on the tiny fixture, in output units
// (mm): single-precision arithmetic through a 2-layer encoder stays well
// under this, and a regression (e.g. accidental f32 accumulation in the
// destandardize path) blows through it.
constexpr double kF32ServingGate = 1e-3;

// ------------------------------------------- engine == autograd reference

struct EquivalenceParams {
  std::string variant;  ///< Table 6 ablation (or head-count) variant.
  SpaFormerConfig model;
  bool mean_fill;
};

// Every Table 6 named constructor plus a single-head model, each with both
// fill modes: the linear-embedding, SAPE, unshielded and one-head paths of
// the serving chain all stay pinned.
std::vector<EquivalenceParams> AllEquivalenceParams() {
  SpaFormerConfig one_head;
  one_head.num_heads = 1;
  const std::vector<std::pair<std::string, SpaFormerConfig>> variants = {
      {"Paper", SpaFormerConfig::Paper()},
      {"EmbPosLinear", SpaFormerConfig::EmbPosLinear()},
      {"EmbInputLinear", SpaFormerConfig::EmbInputLinear()},
      {"EmbBothLinear", SpaFormerConfig::EmbBothLinear()},
      {"WithSape", SpaFormerConfig::WithSape()},
      {"WithoutShield", SpaFormerConfig::WithoutShield()},
      {"NaiveTransformer", SpaFormerConfig::NaiveTransformer()},
      {"OneHead", one_head},
  };
  std::vector<EquivalenceParams> params;
  for (const auto& [name, config] : variants) {
    for (bool mean_fill : {true, false}) {
      params.push_back({name, config, mean_fill});
    }
  }
  return params;
}

class InferenceEquivalence
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(InferenceEquivalence, EngineMatchesAutogradReference) {
  const EquivalenceParams p = GetParam();
  Fixture f;
  SsinInterpolator ssin(TinyModel(p.model),
                        FastTraining(p.mean_fill));
  ssin.Fit(f.data, f.observed_ids);

  for (int t = 0; t < 6; ++t) {
    const std::vector<double> reference = ssin.InterpolateTimestampAutograd(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
    const std::vector<double> engine = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
    const std::vector<double> engine_f32 = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ASSERT_EQ(reference.size(), engine.size());
    ASSERT_EQ(reference.size(), engine_f32.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      EXPECT_NEAR(engine[q], reference[q], 1e-12)
          << "timestamp " << t << " query " << q;
      EXPECT_NEAR(engine_f32[q], reference[q], kF32ServingGate)
          << "f32 timestamp " << t << " query " << q;
    }
  }
}

TEST_P(InferenceEquivalence, BatchMatchesSerialAcrossThreadCounts) {
  const EquivalenceParams p = GetParam();
  Fixture f;
  SsinInterpolator ssin(TinyModel(p.model),
                        FastTraining(p.mean_fill));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  const std::vector<std::vector<double>> serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const std::vector<double> single = ssin.InterpolateTimestamp(
        *batch[i], f.observed_ids, f.query_ids);
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    ASSERT_EQ(serial[i].size(), single.size());
    for (size_t q = 0; q < serial[i].size(); ++q) {
      EXPECT_NEAR(parallel[i][q], serial[i][q], 1e-12);
      EXPECT_NEAR(single[q], serial[i][q], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AblationsAndFillModes, InferenceEquivalence,
    ::testing::ValuesIn(AllEquivalenceParams()),
    [](const ::testing::TestParamInfo<EquivalenceParams>& info) {
      return info.param.variant +
             (info.param.mean_fill ? "MeanFill" : "ZeroFill");
    });

TEST(InferenceEquivalenceTelemetry, TelemetryOnChangesNoPrediction) {
  // The serve-path instrumentation (latency histogram, spans, cache
  // counters) is read-only: predictions with telemetry enabled are
  // bit-identical to a disabled run, serial and parallel.
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  telemetry::SetEnabled(false);
  const std::vector<std::vector<double>> off =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  telemetry::SetEnabled(true);
  const std::vector<std::vector<double>> on_serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> on_parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  telemetry::SetEnabled(false);

  ASSERT_EQ(off.size(), on_serial.size());
  ASSERT_EQ(off.size(), on_parallel.size());
  for (size_t i = 0; i < off.size(); ++i) {
    ASSERT_EQ(off[i].size(), on_serial[i].size());
    for (size_t q = 0; q < off[i].size(); ++q) {
      EXPECT_EQ(on_serial[i][q], off[i][q]);  // Bit-identical.
      EXPECT_NEAR(on_parallel[i][q], off[i][q], 1e-12);
    }
  }
  if (telemetry::CompiledIn()) {
    // The per-call latency histogram saw every prediction of the two
    // enabled sweeps.
    EXPECT_GE(telemetry::GetHistogram("serve.predict_us")->Snapshot().count,
              static_cast<int64_t>(2 * batch.size()));
  }
}

// ------------------------------------------------------- layout caching

TEST(LayoutCacheBehavior, RepeatedStationSetHitsWithoutPlanRebuild) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().misses(), 1);
  EXPECT_EQ(ssin.layout_cache().hits(), 0);
  EXPECT_EQ(ssin.layout_cache().size(), 1u);

  // Repeated timestamps with the same station set: the layout (plan,
  // geometry, embedded SRPE) is served from the cache — no plan rebuild.
  const int64_t plans_before = AttentionPlanBuildCount();
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  ssin.InterpolateTimestamp(f.data.Values(2), f.observed_ids, f.query_ids);
  EXPECT_EQ(AttentionPlanBuildCount(), plans_before);
  EXPECT_EQ(ssin.layout_cache().hits(), 2);
  EXPECT_EQ(ssin.layout_cache().misses(), 1);

  // A different station split is a different layout.
  std::vector<int> fewer_observed(f.observed_ids.begin(),
                                  f.observed_ids.end() - 1);
  ssin.InterpolateTimestamp(f.data.Values(0), fewer_observed, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().misses(), 2);
  EXPECT_EQ(ssin.layout_cache().size(), 2u);
}

TEST(LayoutCacheBehavior, LayoutSizeRecordedOncePerBuild) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  telemetry::Histogram* rows = telemetry::GetHistogram("serve.layout.rows");
  telemetry::Histogram* pairs = telemetry::GetHistogram("serve.layout.pairs");
  const telemetry::HistogramSnapshot rows_before = rows->Snapshot();
  const telemetry::HistogramSnapshot pairs_before = pairs->Snapshot();

  // A miss builds a layout and records its rows and pairs once.
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  ASSERT_EQ(ssin.layout_cache().misses(), 1);
  std::vector<int> request = f.observed_ids;
  request.insert(request.end(), f.query_ids.begin(), f.query_ids.end());
  const std::shared_ptr<const SequenceLayout> layout =
      ssin.layout_cache().Lookup(request,
                                 static_cast<int>(f.observed_ids.size()));
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(rows->Snapshot().count, rows_before.count + 1);
  EXPECT_EQ(pairs->Snapshot().count, pairs_before.count + 1);
  EXPECT_EQ(rows->Snapshot().sum - rows_before.sum,
            static_cast<double>(layout->length()));
  EXPECT_EQ(pairs->Snapshot().sum - pairs_before.sum,
            static_cast<double>(layout->plan->num_pairs()));

  // Hits record nothing.
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  ssin.InterpolateTimestamp(f.data.Values(2), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().misses(), 1);
  EXPECT_EQ(rows->Snapshot().count, rows_before.count + 1);
  EXPECT_EQ(pairs->Snapshot().count, pairs_before.count + 1);
}

TEST(LayoutCacheBehavior, WeightMutationsInvalidate) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 1u);

  // Continued training rewrites the weights the cached SRPE was embedded
  // with — the cache must drop it and rebuild on the next request.
  ssin.ContinueTraining(f.data, f.observed_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  const std::vector<double> after_training = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  const std::vector<double> reference = ssin.InterpolateTimestampAutograd(
      f.data.Values(0), f.observed_ids, f.query_ids);
  for (size_t q = 0; q < reference.size(); ++q) {
    EXPECT_NEAR(after_training[q], reference[q], 1e-12);
  }

  // Parameter copy from another model likewise invalidates.
  SsinInterpolator other(TinyModel(), FastTraining(/*mean_fill=*/true));
  other.Fit(f.data, f.observed_ids);
  ssin.CopyParametersFrom(other);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  const std::vector<double> copied = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  const std::vector<double> other_pred = other.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  for (size_t q = 0; q < copied.size(); ++q) {
    EXPECT_NEAR(copied[q], other_pred[q], 1e-12);
  }
}

TEST(LayoutCacheBehavior, RejectedLoadKeepsServingCaches) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  const std::shared_ptr<const PairStore> store =
      ssin.layout_cache().pair_store();
  ASSERT_NE(store, nullptr);
  ASSERT_FALSE(ssin.f32_weights().empty());

  // A missing file, a file that is no checkpoint at all, and a valid file
  // of another architecture: all rejected before any weight is written.
  const std::string dir = ::testing::TempDir();
  const std::string missing = dir + "no_such_checkpoint.ssin";
  const std::string garbage = dir + "garbage_checkpoint.ssin";
  { std::ofstream(garbage) << "not a checkpoint"; }
  SpaFormerConfig wider = TinyModel();
  wider.d_model = 12;
  SsinInterpolator other(wider, FastTraining(/*mean_fill=*/true));
  other.Prepare(f.data, f.observed_ids);
  const std::string other_model = dir + "other_arch_model.ssin";
  const std::string other_trainer = dir + "other_arch_trainer.ssin";
  ASSERT_TRUE(other.Save(other_model));
  ASSERT_TRUE(other.SaveTrainerCheckpoint(other_trainer));

  const int64_t invalidations = ssin.layout_cache().invalidations();
  const size_t size = ssin.layout_cache().size();
  for (const std::string& path : {missing, garbage, other_model}) {
    EXPECT_FALSE(ssin.Load(path)) << path;
  }
  for (const std::string& path : {missing, garbage, other_trainer}) {
    EXPECT_FALSE(ssin.ResumeTrainerFrom(path)) << path;
  }
  EXPECT_EQ(ssin.layout_cache().invalidations(), invalidations);
  EXPECT_EQ(ssin.layout_cache().size(), size);
  EXPECT_EQ(ssin.layout_cache().pair_store(), store);
  EXPECT_FALSE(ssin.f32_weights().empty());
  const int64_t hits = ssin.layout_cache().hits();
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().hits(), hits + 1);

  // Accepted files still drop every weight-derived cache.
  const std::string model_path = dir + "accepted_model.ssin";
  const std::string trainer_path = dir + "accepted_trainer.ssin";
  ASSERT_TRUE(ssin.Save(model_path));
  ASSERT_TRUE(ssin.SaveTrainerCheckpoint(trainer_path));
  ASSERT_TRUE(ssin.Load(model_path));
  EXPECT_EQ(ssin.layout_cache().invalidations(), invalidations + 1);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  EXPECT_EQ(ssin.layout_cache().pair_store(), nullptr);
  EXPECT_TRUE(ssin.f32_weights().empty());
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  ASSERT_TRUE(ssin.ResumeTrainerFrom(trainer_path));
  EXPECT_EQ(ssin.layout_cache().invalidations(), invalidations + 2);
  EXPECT_EQ(ssin.layout_cache().size(), 0u);
  EXPECT_EQ(ssin.layout_cache().pair_store(), nullptr);
}

// ------------------------------------------------------ shared pair store

// Station-pair keys of every legal pair of a layout, in plan order.
std::vector<uint64_t> PairKeys(const SequenceLayout& layout) {
  const AttentionPlan& plan = *layout.plan;
  std::vector<uint64_t> keys;
  for (int i = 0; i < plan.length; ++i) {
    for (int64_t t = plan.offset[i]; t < plan.offset[i + 1]; ++t) {
      keys.push_back(PairStore::Key(layout.node_ids[i],
                                    layout.node_ids[plan.key_index[t]]));
    }
  }
  return keys;
}

/// A deployment at one network size under one architecture, with layouts
/// built directly (no interpolator, no cache).
struct StoreRig {
  StoreRig(RainfallRegionConfig region, const SpaFormerConfig& config,
           int num_observed)
      : generator(region), data(generator.GenerateHours(1, 7)), rng(7),
        model(config, &rng) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i < num_observed ? observed_ids : query_ids).push_back(i);
    }
    context.Build(data, observed_ids);
  }

  std::shared_ptr<const SequenceLayout> Build(
      const std::vector<int>& observed, const std::vector<int>& query,
      std::shared_ptr<PairStore> store) {
    return BuildSequenceLayout(&model, context, observed, query,
                               std::move(store), &ws);
  }

  RainfallGenerator generator;
  SpatialDataset data;
  Rng rng;
  SpaFormer model;
  SpatialContext context;
  InferenceWorkspace ws;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
};

/// For the same standardized request input, the layout `served` predicts
/// the query values of the full layout `full` (request order), bit for
/// bit, in f64 and f32. `served` reads its own rows of that input.
void ExpectSamePredictions(SpaFormer* model, const SequenceLayout& full,
                           const SequenceLayout& served) {
  Rng rng(17);
  const Tensor x = Tensor::Randn({full.length(), 1}, &rng);
  Tensor served_x({served.length(), 1});
  for (int r = 0; r < served.length(); ++r) {
    served_x[r] = x[served.request_rows[r]];
  }
  InferenceWorkspace ws_a, ws_b;
  const Tensor& f64_a = model->Predict(x, full, &ws_a);
  const Tensor& f64_b = model->Predict(served_x, served, &ws_b);
  ASSERT_TRUE(f64_a.SameShape(f64_b));
  EXPECT_EQ(0, std::memcmp(f64_a.data(), f64_b.data(),
                           f64_a.numel() * sizeof(double)));
  F32WeightCache f32_weights;
  const F32WeightCache::Map& w = *f32_weights.EnsureFrom(model);
  const TensorF32& f32_a = model->PredictF32(x, full, w, &ws_a);
  const TensorF32& f32_b = model->PredictF32(served_x, served, w, &ws_b);
  ASSERT_TRUE(f32_a.SameShape(f32_b));
  EXPECT_EQ(0, std::memcmp(f32_a.data(), f32_b.data(),
                           f32_a.numel() * sizeof(float)));
}

TEST(PairStoreTest, ServingLayoutHoldsPlanPlusRowIndexOnly) {
  StoreRig rig(TinyRegion(), TinyModel(), 18);
  auto store = std::make_shared<PairStore>();
  const std::shared_ptr<const SequenceLayout> layout =
      rig.Build(rig.observed_ids, rig.query_ids, store);
  const int64_t pairs = layout->plan->num_pairs();

  // No per-pair SRPE in either precision: one int32 store row per pair.
  static_assert(
      std::is_same_v<decltype(layout->store_rows)::value_type, int32_t>);
  EXPECT_TRUE(layout->srpe.empty());
  EXPECT_TRUE(layout->srpe_f32.empty());
  EXPECT_TRUE(layout->sape.empty());
  EXPECT_EQ(layout->store, store);
  ASSERT_EQ(static_cast<int64_t>(layout->store_rows.size()), pairs);

  // The first layout on a store appends its rows in plan order.
  for (int64_t t = 0; t < pairs; ++t) {
    EXPECT_EQ(layout->store_rows[t], t);
  }
  EXPECT_EQ(store->rows(), pairs);
  EXPECT_EQ(store->misses(), pairs);
  EXPECT_EQ(store->hits(), 0);

  // A rebuild of the same sequence embeds nothing.
  const std::shared_ptr<const SequenceLayout> again =
      rig.Build(rig.observed_ids, rig.query_ids, store);
  EXPECT_EQ(again->store_rows, layout->store_rows);
  EXPECT_EQ(store->rows(), pairs);
  EXPECT_EQ(store->hits(), pairs);
}

TEST(PairStoreTest, OneOutageEmbedsExactlyItsNovelPairs) {
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 4;  // Limited plans: an outage brings in new keys.
  StoreRig rig(TinyRegion(), config, 18);
  auto store = std::make_shared<PairStore>();
  const std::shared_ptr<const SequenceLayout> a =
      rig.Build(rig.observed_ids, rig.query_ids, store);

  std::vector<int> outage(rig.observed_ids.begin() + 1,
                          rig.observed_ids.end());
  const int64_t hits_before = store->hits();
  const int64_t misses_before = store->misses();
  const int64_t global_hits =
      telemetry::GetCounter("serve.pair_store.hits")->Value();
  const int64_t global_misses =
      telemetry::GetCounter("serve.pair_store.misses")->Value();
  const std::shared_ptr<const SequenceLayout> b =
      rig.Build(outage, rig.query_ids, store);

  const std::vector<uint64_t> keys_a = PairKeys(*a);
  const std::set<uint64_t> known(keys_a.begin(), keys_a.end());
  int64_t novel = 0;
  for (uint64_t key : PairKeys(*b)) novel += known.count(key) == 0;
  const int64_t pairs_b = b->plan->num_pairs();
  ASSERT_GT(novel, 0);
  ASSERT_LT(novel, pairs_b);

  EXPECT_EQ(store->misses() - misses_before, novel);
  EXPECT_EQ(store->hits() - hits_before, pairs_b - novel);
  EXPECT_EQ(store->rows(), a->plan->num_pairs() + novel);
  EXPECT_EQ(telemetry::GetCounter("serve.pair_store.misses")->Value() -
                global_misses,
            novel);
  EXPECT_EQ(
      telemetry::GetCounter("serve.pair_store.hits")->Value() - global_hits,
      pairs_b - novel);
  // Novel pairs take the next rows, in plan order.
  int32_t next = static_cast<int32_t>(a->plan->num_pairs());
  for (size_t t = 0; t < b->store_rows.size(); ++t) {
    if (b->store_rows[t] >= a->plan->num_pairs()) {
      EXPECT_EQ(b->store_rows[t], next++);
    }
  }
}

TEST(PairStoreTest, CatchmentEmbedsOnlyConePairs) {
  // A catchment on the HK network under a k-NN cap: three neighbouring
  // stations queried, the two gauges next to them out.
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 4;
  StoreRig rig(HkRegionConfig(), config, 123);
  const std::vector<int> query = {40, 41, 42};
  std::vector<int> observed;
  for (int id : rig.observed_ids) {
    if (id < 38 || id > 44) observed.push_back(id);
  }
  std::vector<int> request = observed;
  request.insert(request.end(), query.begin(), query.end());
  std::vector<uint8_t> flags(request.size(), 0);
  std::fill_n(flags.begin(), observed.size(), 1);
  const std::shared_ptr<const AttentionPlan> full =
      BuildSequencePlan(config, rig.context, request, flags);

  auto store = std::make_shared<PairStore>();
  const int64_t global_misses =
      telemetry::GetCounter("serve.pair_store.misses")->Value();
  const std::shared_ptr<const SequenceLayout> cone =
      rig.Build(observed, query, store);

  // The pairs of the S_1 rows, counted from the full plan.
  int64_t cone_pairs = 0;
  for (int r = cone->layer_begin[1]; r < cone->length(); ++r) {
    const int p = cone->request_rows[r];
    cone_pairs += full->offset[p + 1] - full->offset[p];
  }
  EXPECT_EQ(store->misses(), cone_pairs);
  EXPECT_EQ(store->hits(), 0);
  EXPECT_EQ(cone->plan->num_pairs(), cone_pairs);
  EXPECT_LT(cone_pairs, full->num_pairs());
  EXPECT_LT(cone->length(), static_cast<int>(request.size()));
  EXPECT_EQ(telemetry::GetCounter("serve.pair_store.misses")->Value() -
                global_misses,
            cone_pairs);
}

TEST(PairStoreTest, RowsNeverExceedPairsBuiltSinceStoreStarted) {
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 4;
  StoreRig rig(TinyRegion(), config, 18);
  LayoutCache cache(/*capacity=*/3);
  std::shared_ptr<const PairStore> current;
  int64_t pairs_since_start = 0;
  int stores = 0;
  for (int l = 0; l < 10; ++l) {
    // Each layout drops a different observed station and queries a
    // different station: distinct keys with overlapping pairs.
    std::vector<int> observed = rig.observed_ids;
    observed.erase(observed.begin() + l);
    std::vector<int> query = {rig.query_ids[l % rig.query_ids.size()]};
    std::shared_ptr<PairStore> store = cache.StoreForBuild();
    if (store != current) {
      current = store;
      pairs_since_start = 0;
      ++stores;
      EXPECT_EQ(store->rows(), 0);
    }
    const std::shared_ptr<const SequenceLayout> layout =
        rig.Build(observed, query, store);
    std::vector<int> request = observed;
    request.insert(request.end(), query.begin(), query.end());
    cache.Insert(request, static_cast<int>(observed.size()), layout);
    pairs_since_start += layout->plan->num_pairs();
    EXPECT_LE(store->rows(), pairs_since_start);
    EXPECT_EQ(cache.pair_store(), store);
  }
  // Ten layouts through a three-entry cache: every fill evicted the cache
  // and started a fresh store.
  EXPECT_EQ(stores, 4);
  EXPECT_EQ(cache.evictions(), 9);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.pair_store(), nullptr);
}

TEST(PairStoreTest, BytesGaugeTracksLiveStores) {
  StoreRig rig(TinyRegion(), TinyModel(), 18);
  telemetry::Gauge* gauge = telemetry::GetGauge("serve.pair_store.bytes");
  const double before = gauge->Value();
  {
    auto store = std::make_shared<PairStore>();
    rig.Build(rig.observed_ids, rig.query_ids, store);
    EXPECT_GT(store->bytes(), 0);
    EXPECT_EQ(gauge->Value(), before + static_cast<double>(store->bytes()));
  }
  EXPECT_EQ(gauge->Value(), before);
}

TEST(PairStoreEquivalence, HkFullShieldingMatchesStandaloneLayout) {
  // Paper config at HK size (123 gauges, 113 observed). The store-backed
  // layout is built second on its store, after a layout with two stations
  // out, so its rows are not in plan order.
  StoreRig rig(HkRegionConfig(), SpaFormerConfig::Paper(), 113);
  const std::shared_ptr<const SequenceLayout> standalone =
      BuildSequenceLayout(&rig.model, rig.context, rig.observed_ids,
                          rig.query_ids, &rig.ws);
  auto store = std::make_shared<PairStore>();
  rig.Build(std::vector<int>(rig.observed_ids.begin() + 2,
                             rig.observed_ids.end()),
            rig.query_ids, store);
  const std::shared_ptr<const SequenceLayout> shared =
      rig.Build(rig.observed_ids, rig.query_ids, store);
  EXPECT_NE(shared->store_rows, standalone->store_rows);
  ExpectSamePredictions(&rig.model, *standalone, *shared);

  // The standalone layout keeps the per-layout meaning of srpe: the
  // whole-layout embedding of its legal pairs, and srpe_f32 its narrowing.
  SequenceLayout manual;
  manual.node_ids = standalone->node_ids;
  manual.plan = standalone->plan;
  rig.model.EmbedLayoutPositions(
      &manual,
      RelposRowsForPlan(rig.context, manual.node_ids, *manual.plan,
                        rig.model.config()),
      &rig.ws);
  ASSERT_TRUE(manual.srpe.SameShape(standalone->srpe));
  EXPECT_EQ(0, std::memcmp(manual.srpe.data(), standalone->srpe.data(),
                           manual.srpe.numel() * sizeof(double)));
  const TensorF32 narrowed = TensorF32::From(manual.srpe);
  EXPECT_EQ(0, std::memcmp(narrowed.data(), standalone->srpe_f32.data(),
                           narrowed.numel() * sizeof(float)));
}

TEST(PairStoreEquivalence, OverlappingLimitedPoolMatchesStandaloneLayouts) {
  SpaFormerConfig config = TinyModel();
  config.neighbor_k = 4;
  StoreRig rig(TinyRegion(), config, 18);
  auto store = std::make_shared<PairStore>();
  int64_t pairs = 0;
  for (int l = 0; l < 6; ++l) {
    std::vector<int> observed = rig.observed_ids;
    observed.erase(observed.begin() + 3 * l);
    const std::vector<int> query = {rig.query_ids[l % rig.query_ids.size()],
                                    rig.observed_ids[3 * l]};
    const std::shared_ptr<const SequenceLayout> shared =
        rig.Build(observed, query, store);
    pairs += shared->plan->num_pairs();
    ExpectSamePredictions(
        &rig.model,
        *BuildSequenceLayout(&rig.model, rig.context, observed, query,
                             &rig.ws),
        *shared);
  }
  EXPECT_LT(store->rows(), pairs);  // The pool shares rows.
}

TEST(PairStoreEquivalence, WithoutShieldMatchesStandaloneLayout) {
  StoreRig rig(TinyRegion(), TinyModel(SpaFormerConfig::WithoutShield()),
               18);
  auto store = std::make_shared<PairStore>();
  rig.Build(std::vector<int>(rig.observed_ids.begin() + 1,
                             rig.observed_ids.end()),
            rig.query_ids, store);
  ExpectSamePredictions(
      &rig.model,
      *BuildSequenceLayout(&rig.model, rig.context, rig.observed_ids,
                           rig.query_ids, &rig.ws),
      *rig.Build(rig.observed_ids, rig.query_ids, store));
}

TEST(PairStoreEquivalence, SapeBuildsNoStore) {
  StoreRig rig(TinyRegion(), TinyModel(SpaFormerConfig::WithSape()), 18);
  const std::shared_ptr<const SequenceLayout> standalone =
      BuildSequenceLayout(&rig.model, rig.context, rig.observed_ids,
                          rig.query_ids, &rig.ws);
  EXPECT_EQ(standalone->store, nullptr);
  EXPECT_TRUE(standalone->store_rows.empty());
  EXPECT_TRUE(standalone->srpe.empty());
  EXPECT_FALSE(standalone->sape_f32.empty());

  Fixture f;
  SsinInterpolator ssin(TinyModel(SpaFormerConfig::WithSape()),
                        FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.layout_cache().size(), 1u);
  EXPECT_EQ(ssin.layout_cache().pair_store(), nullptr);
}

// ------------------------------------------------- float32 serving mode

TEST(F32ServingTest, GatedEnableMatchesF64WithinBudget) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }

  // Measuring alone must not switch the precision.
  const double delta =
      ssin.MeasureF32ServingDelta(batch, f.observed_ids, f.query_ids);
  EXPECT_LE(delta, kF32ServingGate);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);

  // An unreachable gate keeps f64; the checked-in gate enables f32.
  ssin.EnableF32Serving(batch, f.observed_ids, f.query_ids,
                        /*max_abs_delta=*/-1.0);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);
  const double enabled_delta = ssin.EnableF32Serving(
      batch, f.observed_ids, f.query_ids, kF32ServingGate);
  EXPECT_LE(enabled_delta, kF32ServingGate);
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat32);

  // f32 serving is deterministic: serial == parallel bit-for-bit, and both
  // stay within the gate of the f64 reference.
  const std::vector<std::vector<double>> serial =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  const std::vector<std::vector<double>> parallel =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/4);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
  const std::vector<std::vector<double>> reference =
      ssin.InterpolateBatch(batch, f.observed_ids, f.query_ids,
                            /*num_threads=*/1);
  ASSERT_EQ(serial.size(), reference.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), reference[i].size());
    for (size_t q = 0; q < serial[i].size(); ++q) {
      EXPECT_EQ(serial[i][q], parallel[i][q]);
      EXPECT_NEAR(serial[i][q], reference[i][q], kF32ServingGate);
    }
  }
}

TEST(F32ServingTest, NonNegativeClampAppliesInF32) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.set_non_negative(true);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);

  // Rainfall data is non-negative, so the fitted dataset turns the clamp
  // on; the f32 path must apply the same f64-side clamp.
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    const std::vector<double> out = ssin.InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    for (double v : out) EXPECT_GE(v, 0.0);
  }
}

TEST(F32ServingTest, WeightSnapshotConvertsOnceAndInvalidates) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  // Fit leaves no stale snapshot and nothing converted yet.
  EXPECT_TRUE(ssin.f32_weights().empty());
  EXPECT_EQ(ssin.f32_weights().conversions(), 0);

  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  ssin.InterpolateTimestamp(f.data.Values(1), f.observed_ids, f.query_ids);
  // One conversion serves every subsequent prediction.
  EXPECT_FALSE(ssin.f32_weights().empty());
  EXPECT_EQ(ssin.f32_weights().conversions(), 1);

  // Weight mutations evict the snapshot: continued training...
  const int64_t invalidations_before = ssin.f32_weights().invalidations();
  ssin.ContinueTraining(f.data, f.observed_ids);
  EXPECT_TRUE(ssin.f32_weights().empty());
  EXPECT_GT(ssin.f32_weights().invalidations(), invalidations_before);

  // ...and the next prediction reconverts from the *new* weights: it must
  // agree with the fresh f64 reference, not the stale pre-training one.
  const std::vector<double> f32_pred = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.f32_weights().conversions(), 2);
  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat64);
  const std::vector<double> f64_pred = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, f.query_ids);
  ASSERT_EQ(f32_pred.size(), f64_pred.size());
  for (size_t q = 0; q < f32_pred.size(); ++q) {
    EXPECT_NEAR(f32_pred[q], f64_pred[q], kF32ServingGate);
  }

  // Checkpoint load and trainer resume are weight mutations too.
  const std::string model_path = ::testing::TempDir() + "f32_model.ssin";
  const std::string trainer_path = ::testing::TempDir() + "f32_trainer.ssin";
  ASSERT_TRUE(ssin.Save(model_path));
  ASSERT_TRUE(ssin.SaveTrainerCheckpoint(trainer_path));

  ssin.set_serving_precision(SsinInterpolator::ServingPrecision::kFloat32);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_FALSE(ssin.f32_weights().empty());
  ASSERT_TRUE(ssin.Load(model_path));
  EXPECT_TRUE(ssin.f32_weights().empty());

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_FALSE(ssin.f32_weights().empty());
  ASSERT_TRUE(ssin.ResumeTrainerFrom(trainer_path));
  EXPECT_TRUE(ssin.f32_weights().empty());
}

TEST(F32ServingTest,
     MeasureDeltaLeavesConcurrentRequestsAtConfiguredPrecision) {
  using Precision = SsinInterpolator::ServingPrecision;
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  // With the clamp off, every prediction keeps its precision's rounding, so
  // a request served at the wrong precision shows up bit for bit.
  ssin.set_non_negative(false);

  std::vector<const std::vector<double>*> batch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    batch.push_back(&f.data.Values(t));
  }
  std::vector<std::vector<double>> reference[2];
  for (Precision p : {Precision::kFloat64, Precision::kFloat32}) {
    ssin.set_serving_precision(p);
    for (const std::vector<double>* values : batch) {
      reference[static_cast<int>(p)].push_back(
          ssin.InterpolateTimestamp(*values, f.observed_ids, f.query_ids));
    }
  }
  ASSERT_NE(reference[0], reference[1]);

  for (Precision configured : {Precision::kFloat64, Precision::kFloat32}) {
    SCOPED_TRACE(configured == Precision::kFloat64 ? "f64" : "f32");
    ssin.set_serving_precision(configured);
    const std::vector<std::vector<double>>& expected =
        reference[static_cast<int>(configured)];

    // One client serves while the calibration measures both precisions.
    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::atomic<int> mismatches{0};
    std::thread client([&] {
      for (size_t t = 0; !stop.load(std::memory_order_acquire);
           t = (t + 1) % batch.size()) {
        const std::vector<double> out = ssin.InterpolateTimestamp(
            *batch[t], f.observed_ids, f.query_ids);
        if (out.size() != expected[t].size() ||
            std::memcmp(out.data(), expected[t].data(),
                        out.size() * sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
        served.fetch_add(1);
      }
    });
    for (int i = 0; i < 10 || served.load() < 20; ++i) {
      ssin.MeasureF32ServingDelta(batch, f.observed_ids, f.query_ids);
    }
    stop.store(true, std::memory_order_release);
    client.join();
    EXPECT_EQ(mismatches.load(), 0) << "of " << served.load() << " requests";
    EXPECT_EQ(ssin.serving_precision(), configured);
  }
}

TEST(ServingArenaPeak, InstancePeakResetsOnWeightMutation) {
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  SsinInterpolator other(TinyModel(), FastTraining(/*mean_fill=*/true));
  other.Fit(f.data, f.observed_ids);

  EXPECT_EQ(ssin.arena_peak_bytes(), 0u);
  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  const size_t peak = ssin.arena_peak_bytes();
  EXPECT_GT(peak, 0u);

  // The peak is tied to this instance's serving caches: a weight mutation
  // (hot-swap path) resets it instead of letting a stale high-water mark
  // from the previous weight generation linger...
  ssin.CopyParametersFrom(other);
  EXPECT_EQ(ssin.arena_peak_bytes(), 0u);
  if (telemetry::CompiledIn()) {
    EXPECT_EQ(telemetry::GetGauge("serve.arena_peak_bytes")->Value(), 0.0);
    // ...while the clearly-labeled process-lifetime aggregate stays
    // monotone across the reset.
    EXPECT_GE(telemetry::GetGauge("serve.arena_peak_bytes_process")->Value(),
              static_cast<double>(peak));
  }

  ssin.InterpolateTimestamp(f.data.Values(0), f.observed_ids, f.query_ids);
  EXPECT_EQ(ssin.arena_peak_bytes(), peak);  // Same geometry, same arena.
}

TEST(ServingArenaPeak, EmptyQueryStillObservesLatency) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  // An empty query list is a legal request; the early return that skips
  // the network must not skip the serve.predict_us observation the call
  // already started.
  telemetry::SetEnabled(true);
  const int64_t count_before =
      telemetry::GetHistogram("serve.predict_us")->Snapshot().count;
  const std::vector<double> out = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, /*query_ids=*/{});
  telemetry::SetEnabled(false);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(telemetry::GetHistogram("serve.predict_us")->Snapshot().count,
            count_before + 1);
}

TEST(ServingArenaPeak, EmptyQueryStillObservesLatencyUnderKnn) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  ssin.SetNeighborK(4);

  // Under a k-NN cap an empty query list has an empty cone: the layout
  // holds no rows, and the request is still served and observed.
  telemetry::SetEnabled(true);
  const int64_t count_before =
      telemetry::GetHistogram("serve.predict_us")->Snapshot().count;
  const std::vector<double> out = ssin.InterpolateTimestamp(
      f.data.Values(0), f.observed_ids, /*query_ids=*/{});
  telemetry::SetEnabled(false);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(telemetry::GetHistogram("serve.predict_us")->Snapshot().count,
            count_before + 1);
  const std::shared_ptr<const SequenceLayout> layout =
      ssin.layout_cache().Lookup(f.observed_ids,
                                 static_cast<int>(f.observed_ids.size()));
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->length(), 0);
}

// ------------------------------------------------- arena footprint

TEST(ServingArenaPeak, PaperConfigStaysUnderCeilings) {
  // Workspace arena high-water mark of one prediction at the paper's
  // serving geometry (L=123, m=113, d_ff=256), per precision. The
  // ceilings are the footprint of the serving chain as built: the FFN
  // hidden activation lives in a [d_ff] row tile and the per-head q/k/v
  // projections in two head-major slots, so any new [L, *] intermediate
  // in the arena breaks them.
  RainfallGenerator generator(HkRegionConfig());  // 123 gauges.
  SpatialDataset data = generator.GenerateHours(1, 7);
  std::vector<int> observed_ids, query_ids;
  for (int i = 0; i < data.num_stations(); ++i) {
    (i < 113 ? observed_ids : query_ids).push_back(i);
  }
  SpatialContext context;
  context.Build(data, observed_ids);
  Rng rng(7);
  SpaFormer model(SpaFormerConfig::Paper(), &rng);
  InferenceWorkspace layout_ws;
  std::shared_ptr<const SequenceLayout> layout = BuildSequenceLayout(
      &model, context, observed_ids, query_ids, &layout_ws);
  const Tensor x({layout->length(), 1});

  InferenceWorkspace f64_ws;
  model.Predict(x, *layout, &f64_ws);
  EXPECT_GT(f64_ws.ArenaBytes(), 0u);
  EXPECT_LE(f64_ws.ArenaBytes(), 420560u);

  F32WeightCache f32_weights;
  InferenceWorkspace f32_ws;
  model.PredictF32(x, *layout, *f32_weights.EnsureFrom(&model), &f32_ws);
  EXPECT_GT(f32_ws.ArenaBytes(), 0u);
  EXPECT_LE(f32_ws.ArenaBytes(), 210772u);
}

// ------------------------------------------------- workspace + validation

TEST(InferenceWorkspaceTest, ArenaReusesSlotsAfterReset) {
  InferenceWorkspace ws;
  InferenceWorkspace::Arena<double>& arena = ws.arena<double>();
  Tensor* a = arena.Acquire({4, 8});
  Tensor* b = arena.Acquire({4, 8});
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.num_slots(), 2u);

  ws.Reset();
  Tensor* a2 = arena.Acquire({4, 8});
  Tensor* b2 = arena.Acquire({4, 8});
  EXPECT_EQ(a, a2);  // Same storage handed out again.
  EXPECT_EQ(b, b2);
  EXPECT_EQ(arena.num_slots(), 2u);  // Steady state: no growth.

  ws.Reset();
  Tensor* c = arena.Acquire({2, 3});  // Shape change reshapes in place.
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->dim(0), 2);
  EXPECT_EQ(c->dim(1), 3);
}

TEST(InferenceWorkspaceTest, F32ArenaIsIndependentOfF64Arena) {
  InferenceWorkspace ws;
  Tensor* a = ws.arena<double>().Acquire({4, 8});
  TensorF32* fa = ws.arena<float>().Acquire({4, 8});
  TensorF32* fb = ws.arena<float>().Acquire({2, 2});
  EXPECT_NE(fa, fb);
  EXPECT_EQ(ws.arena<double>().num_slots(), 1u);
  EXPECT_EQ(ws.arena<float>().num_slots(), 2u);
  EXPECT_EQ(ws.ArenaBytes(),
            32 * sizeof(double) + (32 + 4) * sizeof(float));

  ws.Reset();  // Rewinds both cursors.
  EXPECT_EQ(ws.arena<double>().Acquire({4, 8}), a);
  EXPECT_EQ(ws.arena<float>().Acquire({4, 8}), fa);
  EXPECT_EQ(ws.arena<float>().num_slots(), 2u);
  (void)a;
}

TEST(InferenceValidationDeath, RejectsMalformedIdLists) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);
  const std::vector<double>& values = f.data.Values(0);

  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 9999}, {2}),
               "outside station network");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, -1}, {2}),
               "outside station network");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 1}, {2}),
               "duplicate observed id");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 2}, {2}),
               "both observed and queried");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {0, 1, 2}, {3, 3}),
               "queried twice");
  EXPECT_DEATH(ssin.InterpolateTimestamp(values, {}, {2}),
               "at least one observed");
  // A batch checks every entry's observed values, not only the first's.
  std::vector<double> poisoned = f.data.Values(1);
  poisoned[2] = std::nan("");
  EXPECT_DEATH(ssin.InterpolateBatch({&values, &poisoned}, {0, 1, 2}, {3}),
               "observed id 2 has non-finite value nan");
}

TEST(InferenceValidationDeath, EmptyF32CalibrationBatchRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Fixture f;
  SsinInterpolator ssin(TinyModel(), FastTraining(/*mean_fill=*/true));
  ssin.Fit(f.data, f.observed_ids);

  // Gating f32 serving on zero calibration points would report delta 0.0
  // and enable the narrowed path with no accuracy evidence at all: loud
  // rejection, not silent enablement.
  EXPECT_DEATH(ssin.EnableF32Serving({}, f.observed_ids, f.query_ids,
                                     kF32ServingGate),
               "empty calibration batch");
  EXPECT_EQ(ssin.serving_precision(),
            SsinInterpolator::ServingPrecision::kFloat64);
}

}  // namespace
}  // namespace ssin
