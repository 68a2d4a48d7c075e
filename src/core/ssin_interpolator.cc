#include "core/ssin_interpolator.h"

#include <atomic>
#include <cmath>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/masking.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace ssin {

namespace {

telemetry::Histogram* PredictLatencyHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.predict_us");
  return histogram;
}

telemetry::Gauge* WorkspaceArenaGauge() {
  static telemetry::Gauge* gauge =
      telemetry::GetGauge("serve.workspace_arena_bytes");
  return gauge;
}

/// High-water mark of InferenceWorkspace::ArenaBytes (tier-1 ceilings in
/// tests/inference_equivalence_test.cc). `serve.arena_peak_bytes` mirrors the
/// peak of the most recently serving *interpolator instance*, which resets
/// with its caches on every weight mutation (a hot-swapped smaller model
/// must not keep reporting the old model's high-water mark);
/// `serve.arena_peak_bytes_process` is the process-lifetime monotone
/// across every instance.
telemetry::Gauge* ArenaPeakGauge() {
  static telemetry::Gauge* gauge =
      telemetry::GetGauge("serve.arena_peak_bytes");
  return gauge;
}

telemetry::Gauge* ProcessArenaPeakGauge() {
  static telemetry::Gauge* gauge =
      telemetry::GetGauge("serve.arena_peak_bytes_process");
  return gauge;
}

/// Monotone CAS-max fold so concurrent serving threads race safely.
void FoldPeak(std::atomic<size_t>* peak, size_t value) {
  size_t seen = peak->load(std::memory_order_relaxed);
  while (value > seen &&
         !peak->compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

void RecordArenaPeak(std::atomic<size_t>* instance_peak,
                     size_t arena_bytes) {
  static std::atomic<size_t> process_peak{0};
  FoldPeak(instance_peak, arena_bytes);
  FoldPeak(&process_peak, arena_bytes);
  ArenaPeakGauge()->Set(
      static_cast<double>(instance_peak->load(std::memory_order_relaxed)));
  ProcessArenaPeakGauge()->Set(
      static_cast<double>(process_peak.load(std::memory_order_relaxed)));
}

}  // namespace

SsinInterpolator::SsinInterpolator(const SpaFormerConfig& model_config,
                                   const TrainConfig& train_config)
    : model_config_(model_config), train_config_(train_config) {}

SsinInterpolator::~SsinInterpolator() = default;

void SsinInterpolator::InvalidateServingCaches() {
  layout_cache_.Clear();
  f32_weights_.Clear();
  // New weights start a fresh arena high-water story; the process-wide
  // monotone (serve.arena_peak_bytes_process) is deliberately untouched.
  arena_peak_bytes_.store(0, std::memory_order_relaxed);
  ArenaPeakGauge()->Set(0.0);
}

void SsinInterpolator::Prepare(const SpatialDataset& data,
                               const std::vector<int>& train_ids) {
  context_.Build(data, train_ids);
  Rng init_rng(train_config_.seed ^ 0x9e3779b9u);
  model_ = std::make_unique<SpaFormer>(model_config_, &init_rng);
  trainer_ =
      std::make_unique<SsinTrainer>(model_.get(), &context_, train_config_);
  non_negative_ = data.non_negative();
  InvalidateServingCaches();  // Fresh weights invalidate serving caches.
  prepared_ = true;
}

void SsinInterpolator::Fit(const SpatialDataset& data,
                           const std::vector<int>& train_ids) {
  Prepare(data, train_ids);
  train_stats_ = trainer_->Train(data, train_ids);
  InvalidateServingCaches();
}

TrainStats SsinInterpolator::ContinueTraining(
    const SpatialDataset& data, const std::vector<int>& train_ids) {
  SSIN_CHECK(prepared_) << "call Fit() or Prepare() first";
  TrainStats stats = trainer_->Train(data, train_ids);
  InvalidateServingCaches();
  for (double l : stats.epoch_loss) train_stats_.epoch_loss.push_back(l);
  for (double s : stats.epoch_seconds) {
    train_stats_.epoch_seconds.push_back(s);
  }
  train_stats_.steps += stats.steps;
  return stats;
}

void SsinInterpolator::CopyParametersFrom(SsinInterpolator& source) {
  SSIN_CHECK(CanCopyParametersFrom(source))
      << "CopyParametersFrom needs two prepared interpolators with the same "
         "architecture";
  std::vector<Parameter*> dst = model_->Parameters();
  std::vector<Parameter*> src = source.model_->Parameters();
  for (size_t i = 0; i < dst.size(); ++i) dst[i]->value = src[i]->value;
  InvalidateServingCaches();
}

bool SsinInterpolator::CanCopyParametersFrom(SsinInterpolator& source) {
  if (!prepared_ || !source.prepared_) return false;
  const std::vector<Parameter*> dst = model_->Parameters();
  const std::vector<Parameter*> src = source.model_->Parameters();
  if (dst.size() != src.size()) return false;
  for (size_t i = 0; i < dst.size(); ++i) {
    if (!dst[i]->value.SameShape(src[i]->value)) return false;
  }
  return true;
}

bool SsinInterpolator::Save(const std::string& path) {
  SSIN_CHECK(prepared_) << "nothing to save before Fit()/Prepare()";
  return SaveModule(model_.get(), path);
}

bool SsinInterpolator::Load(const std::string& path) {
  SSIN_CHECK(prepared_) << "call Prepare() with the target dataset first";
  InvalidateServingCaches();
  return LoadModule(model_.get(), path);
}

bool SsinInterpolator::SaveTrainerCheckpoint(const std::string& path) {
  SSIN_CHECK(prepared_) << "nothing to save before Fit()/Prepare()";
  return trainer_->SaveCheckpoint(path);
}

bool SsinInterpolator::ResumeTrainerFrom(const std::string& path) {
  SSIN_CHECK(prepared_) << "call Prepare() with the target dataset first";
  InvalidateServingCaches();
  return trainer_->ResumeFrom(path);
}

std::shared_ptr<const SequenceLayout> SsinInterpolator::LayoutFor(
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  // Sequence layout: observed stations first, then query nodes.
  std::vector<int> node_ids = observed_ids;
  node_ids.insert(node_ids.end(), query_ids.begin(), query_ids.end());

  std::shared_ptr<const SequenceLayout> layout =
      layout_cache_.Lookup(node_ids, static_cast<int>(observed_ids.size()));
  if (layout == nullptr) {
    InferenceWorkspace ws;
    layout =
        BuildSequenceLayout(model_.get(), context_, observed_ids, query_ids,
                            &ws);
    layout_cache_.Insert(layout);
  }
  return layout;
}

std::vector<double> SsinInterpolator::PredictWithLayout(
    const std::vector<double>& all_values, const SequenceLayout& layout,
    InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("serve.predict");
  const int64_t begin_ns = telemetry::Enabled() ? telemetry::NowNs() : -1;
  // Latch the precision once per request: a concurrent
  // set_serving_precision (or a MeasureF32ServingDelta mid-measurement
  // flip) must never switch arithmetic halfway through one prediction.
  const ServingPrecision precision = serving_precision();
  std::vector<double> observed_values;
  observed_values.reserve(layout.num_observed);
  for (int i = 0; i < layout.num_observed; ++i) {
    observed_values.push_back(all_values[layout.node_ids[i]]);
  }

  MaskingOptions options;
  options.mean_fill = train_config_.mean_fill;
  MaskedSequence seq = BuildInferenceSequence(
      observed_values, layout.length() - layout.num_observed, options);

  // Predict returns the query (trailing) rows only; target position p is
  // its row p - num_observed. The f32 path reads the same converted-weight
  // snapshot from every thread and destandardizes/clamps in f64, so only
  // the network arithmetic narrows.
  std::vector<double> out;
  out.reserve(seq.target_positions.size());
  if (seq.target_positions.empty()) {
    // No query rows: nothing to predict, but the latency observation this
    // call already started still lands below (an empty request is still a
    // served request).
  } else if (precision == ServingPrecision::kFloat32) {
    std::shared_ptr<const F32WeightCache::Map> weights =
        f32_weights_.EnsureFrom(model_.get());
    const TensorF32& values =
        model_->PredictF32(seq.input, layout, *weights, ws);
    for (int position : seq.target_positions) {
      out.push_back(ApplyNonNegative(
          Destandardize(static_cast<double>(
                            values[position - layout.num_observed]),
                        seq.stats),
          non_negative_));
    }
  } else {
    const Tensor& values = model_->Predict(seq.input, layout, ws);
    for (int position : seq.target_positions) {
      out.push_back(ApplyNonNegative(
          Destandardize(values[position - layout.num_observed], seq.stats),
          non_negative_));
    }
  }
  if (begin_ns >= 0) {
    PredictLatencyHistogram()->Observe(
        static_cast<double>(telemetry::NowNs() - begin_ns) / 1e3);
  }
  if (!seq.target_positions.empty()) {
    // Arena statistics only describe calls that actually ran the network;
    // like the cache counters they record regardless of the telemetry flag.
    const size_t arena_bytes = ws->ArenaBytes();
    WorkspaceArenaGauge()->Set(static_cast<double>(arena_bytes));
    RecordArenaPeak(&arena_peak_bytes_, arena_bytes);
  }
  return out;
}

void SsinInterpolator::SetNeighborK(int k) {
  SSIN_CHECK(prepared_) << "call Fit() or Prepare() first";
  SSIN_CHECK_GE(k, 0);
  if (k > 0) {
    SSIN_CHECK(model_->config().shielded)
        << "neighbor-limited attention requires shielded attention";
  }
  if (model_->config().neighbor_k == k) return;
  model_->set_neighbor_k(k);
  model_config_.neighbor_k = k;
  // Cached layouts hold plans (and SRPE rows) built for the previous k.
  InvalidateServingCaches();
}

int SsinInterpolator::neighbor_k() const {
  SSIN_CHECK(prepared_) << "call Fit() or Prepare() first";
  return model_->config().neighbor_k;
}

void SsinInterpolator::SetNeighborRadius(double radius_km) {
  SSIN_CHECK(prepared_) << "call Fit() or Prepare() first";
  SSIN_CHECK_GE(radius_km, 0.0);
  if (radius_km > 0.0) {
    SSIN_CHECK(model_->config().shielded)
        << "radius-limited attention requires shielded attention";
  }
  if (model_->config().neighbor_radius_km == radius_km) return;
  model_->set_neighbor_radius_km(radius_km);
  model_config_.neighbor_radius_km = radius_km;
  // Cached layouts hold plans (and SRPE rows) built for the previous
  // radius.
  InvalidateServingCaches();
}

double SsinInterpolator::neighbor_radius_km() const {
  SSIN_CHECK(prepared_) << "call Fit() or Prepare() first";
  return model_->config().neighbor_radius_km;
}

std::vector<double> SsinInterpolator::InterpolateTimestamp(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  SSIN_CHECK(prepared_) << "call Fit() first";
  ValidateInterpolationIds(all_values, context_.num_stations(), observed_ids,
                           query_ids);
  std::shared_ptr<const SequenceLayout> layout =
      LayoutFor(observed_ids, query_ids);
  // A fresh workspace keeps this entry point safe for concurrent callers
  // (the eval runner's parallel path); batched serving reuses workspaces
  // through InterpolateBatch instead.
  InferenceWorkspace ws;
  return PredictWithLayout(all_values, *layout, &ws);
}

std::vector<double> SsinInterpolator::InterpolateTimestampAutograd(
    const std::vector<double>& all_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids) {
  SSIN_CHECK(prepared_) << "call Fit() first";
  ValidateInterpolationIds(all_values, context_.num_stations(), observed_ids,
                           query_ids);

  std::vector<int> node_ids = observed_ids;
  node_ids.insert(node_ids.end(), query_ids.begin(), query_ids.end());

  std::vector<double> observed_values;
  observed_values.reserve(observed_ids.size());
  for (int id : observed_ids) observed_values.push_back(all_values[id]);

  MaskingOptions options;
  options.mean_fill = train_config_.mean_fill;
  MaskedSequence seq = BuildInferenceSequence(
      observed_values, static_cast<int>(query_ids.size()), options);

  // The exact plan/relpos pipeline the serving layouts use — so this
  // autograd reference covers neighbor-limited configurations too, and
  // computes relative positions for the legal pairs only.
  std::shared_ptr<const AttentionPlan> plan =
      BuildSequencePlan(model_->config(), context_, node_ids, seq.observed);
  const Tensor relpos_rows =
      RelposRowsForPlan(context_, node_ids, *plan, model_->config());
  const Tensor abspos = context_.AbsposFor(node_ids);

  Graph graph;
  Var pred = model_->ForwardWithPlan(&graph, seq.input, std::move(plan),
                                     relpos_rows, abspos);

  std::vector<double> out;
  out.reserve(query_ids.size());
  const Tensor& values = pred.value();
  for (int position : seq.target_positions) {
    out.push_back(ApplyNonNegative(Destandardize(values[position], seq.stats),
                                   non_negative_));
  }
  return out;
}

double SsinInterpolator::MeasureF32ServingDelta(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids,
    const std::vector<int>& query_ids) {
  SSIN_CHECK(prepared_) << "call Fit() first";
  // The entry precision is restored on every exit path — including an
  // InterpolateBatch that throws — so a failed measurement can never leave
  // the interpolator stuck in the wrong precision.
  ScopedPrecisionRestore restore(this);
  set_serving_precision(ServingPrecision::kFloat64);
  std::vector<std::vector<double>> ref =
      InterpolateBatch(batch_values, observed_ids, query_ids);
  set_serving_precision(ServingPrecision::kFloat32);
  std::vector<std::vector<double>> f32 =
      InterpolateBatch(batch_values, observed_ids, query_ids);

  double max_delta = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    SSIN_CHECK_EQ(ref[i].size(), f32[i].size());
    for (size_t j = 0; j < ref[i].size(); ++j) {
      const double d = std::fabs(ref[i][j] - f32[i][j]);
      if (d > max_delta) max_delta = d;
    }
  }
  return max_delta;
}

double SsinInterpolator::EnableF32Serving(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    double max_abs_delta) {
  // An empty calibration batch would measure delta 0.0 and enable f32 with
  // zero evidence; refuse it outright.
  SSIN_CHECK(!batch_values.empty())
      << "refusing to gate f32 serving on an empty calibration batch";
  const double delta =
      MeasureF32ServingDelta(batch_values, observed_ids, query_ids);
  set_serving_precision(delta <= max_abs_delta ? ServingPrecision::kFloat32
                                               : ServingPrecision::kFloat64);
  return delta;
}

std::vector<std::vector<double>> SsinInterpolator::InterpolateBatch(
    const std::vector<const std::vector<double>*>& batch_values,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    int num_threads) {
  SSIN_CHECK(prepared_) << "call Fit() first";
  SSIN_TRACE_SPAN("serve.batch");
  std::vector<std::vector<double>> out(batch_values.size());
  if (batch_values.empty()) return out;

  ValidateInterpolationIds(*batch_values[0], context_.num_stations(),
                           observed_ids, query_ids);
  for (const std::vector<double>* values : batch_values) {
    SSIN_CHECK(values != nullptr);
    SSIN_CHECK_EQ(values->size(), batch_values[0]->size());
  }

  // One layout for the whole batch; one workspace per pool slot.
  std::shared_ptr<const SequenceLayout> layout =
      LayoutFor(observed_ids, query_ids);
  const int threads = ThreadPool::ResolveThreadCount(num_threads);
  if (threads == 1) {
    InferenceWorkspace ws;
    for (size_t i = 0; i < batch_values.size(); ++i) {
      out[i] = PredictWithLayout(*batch_values[i], *layout, &ws);
    }
    return out;
  }
  std::vector<std::unique_ptr<InferenceWorkspace>> workspaces;
  workspaces.reserve(threads);
  for (int s = 0; s < threads; ++s) {
    workspaces.push_back(std::make_unique<InferenceWorkspace>());
  }
  // Pool workers run on their own threads, so the caller's trace id (the
  // request flow this batch serves) is re-applied inside each task to keep
  // the per-item serve.predict spans stitched to the same flow.
  const uint64_t trace_id = telemetry::CurrentTraceId();
  ThreadPool pool(threads);
  pool.ParallelFor(static_cast<int64_t>(batch_values.size()),
                   [&](int64_t i, int slot) {
                     telemetry::ScopedTrace trace(trace_id);
                     out[i] = PredictWithLayout(*batch_values[i], *layout,
                                                workspaces[slot].get());
                   });
  return out;
}

}  // namespace ssin
