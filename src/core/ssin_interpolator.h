#ifndef SSIN_CORE_SSIN_INTERPOLATOR_H_
#define SSIN_CORE_SSIN_INTERPOLATOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/inference_engine.h"
#include "core/interpolation.h"
#include "core/spaformer.h"
#include "core/spatial_context.h"
#include "core/trainer.h"

namespace ssin {

/// The complete SSIN system behind the SpatialInterpolator interface:
/// owns a SpaFormer model, trains it with the self-supervised
/// mask-and-recover task on Fit(), and answers interpolation queries by
/// appending query nodes to the observed sequence (paper §3.2 "Testing").
class SsinInterpolator : public SpatialInterpolator {
 public:
  SsinInterpolator(const SpaFormerConfig& model_config,
                   const TrainConfig& train_config);
  ~SsinInterpolator() override;

  std::string Name() const override { return "SpaFormer"; }

  void Fit(const SpatialDataset& data,
           const std::vector<int>& train_ids) override;

  /// Serves one timestamp through the graph-free inference engine: a
  /// batch of one through InterpolateBatch. The sequence layout (attention
  /// plan + pre-embedded positions) comes from the layout cache, the
  /// encoder stack runs without any autograd bookkeeping. Numerically
  /// identical to the autograd reference below. Safe to call concurrently
  /// after Fit().
  std::vector<double> InterpolateTimestamp(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids) override;

  /// Reference implementation running the full autograd Forward (tape and
  /// all). Kept as the equivalence baseline for the inference engine —
  /// tests pin InterpolateTimestamp == InterpolateTimestampAutograd.
  std::vector<double> InterpolateTimestampAutograd(
      const std::vector<double>& all_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids);

  /// Batched serving: validates and resolves the sequence layout once,
  /// then fans the timestamps across a pool with one inference workspace
  /// per pool slot. The serving precision is read once, so the whole batch
  /// is served at one precision. Results are identical to per-timestamp
  /// calls at any thread count.
  std::vector<std::vector<double>> InterpolateBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, int num_threads = 1) override;

  /// Builds the spatial context and model without training — used for
  /// transfer experiments (Table 8) and checkpoint loading.
  void Prepare(const SpatialDataset& data,
               const std::vector<int>& train_ids);

  /// Continues training on `data` (e.g. after appending new seasons,
  /// Figure 11's year-by-year model update). Prepare()/Fit() must have
  /// been called.
  TrainStats ContinueTraining(const SpatialDataset& data,
                              const std::vector<int>& train_ids);

  /// Copies trained weights from another interpolator with an identical
  /// architecture (cross-region transfer).
  void CopyParametersFrom(SsinInterpolator& source);

  /// Whether CopyParametersFrom(source) would succeed: both prepared, the
  /// same parameter count, every parameter the same shape. Writes nothing,
  /// so a caller that must not abort (the hot-swap path) can reject a
  /// mismatched source before the first weight is touched.
  bool CanCopyParametersFrom(SsinInterpolator& source);

  /// Saves the complete interpolator state — model weights plus the
  /// model/train configuration fingerprint — to one file. The spatial
  /// context is rebuilt from the dataset on load, so a checkpoint is
  /// portable across regions (transfer-style deployment).
  bool Save(const std::string& path);

  /// Restores a checkpoint produced by Save(). Must be called after
  /// Prepare() (or Fit()) with a matching architecture; returns false on
  /// IO failure or architecture mismatch, leaving the weights and every
  /// serving cache as they were.
  bool Load(const std::string& path);

  /// Writes the trainer's complete training state (model, Adam, schedule,
  /// RNG, epoch cursor) — see SsinTrainer::SaveCheckpoint. Must be called
  /// after Prepare()/Fit(); returns false on IO failure.
  bool SaveTrainerCheckpoint(const std::string& path);

  /// Restores a SaveTrainerCheckpoint() file into this interpolator's
  /// trainer. Must be called after Prepare() with a matching architecture;
  /// all-or-nothing, returns false on corruption or mismatch (weights and
  /// serving caches untouched). A mid-run
  /// checkpoint makes the next training call finish the interrupted run; a
  /// finished-run checkpoint warm-starts ContinueTraining() from the saved
  /// state (the Figure 11 model-update scenario without retraining).
  bool ResumeTrainerFrom(const std::string& path);

  /// Trained model access (checkpointing via nn/serialize.h).
  SpaFormer* model() { return model_.get(); }
  const TrainStats& train_stats() const { return train_stats_; }

  /// The serving layout cache (hit/miss counters for tests and benches)
  /// and, through pair_store(), the shared SRPE rows its layouts index.
  /// Cleared automatically whenever the model's weights change — cached
  /// layouts and the store hold positions embedded with those weights.
  const LayoutCache& layout_cache() const { return layout_cache_; }

  /// Arithmetic precision of the graph-free serving path. kFloat64 (the
  /// default) is bit-identical to the autograd reference; kFloat32 runs
  /// the SIMD kernels at twice the lane width on converted weights.
  enum class ServingPrecision { kFloat64, kFloat32 };

  /// Switches serving precision directly (no accuracy check). Training,
  /// checkpoints and InterpolateTimestampAutograd always stay f64. Safe to
  /// call while other threads serve: the flag is atomic and every batch
  /// reads it once, so no batch mixes precisions.
  void set_serving_precision(ServingPrecision precision) {
    serving_precision_.store(precision, std::memory_order_release);
  }
  ServingPrecision serving_precision() const {
    return serving_precision_.load(std::memory_order_acquire);
  }

  /// Runs `batch_values` through both precisions and returns the largest
  /// absolute f64-vs-f32 difference across every prediction, in output
  /// units (mm of rainfall). Both passes name their precision
  /// explicitly, so the live serving precision is left alone: requests
  /// served meanwhile, on any thread, keep the configured precision.
  double MeasureF32ServingDelta(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids);

  /// Accuracy-gated switch to f32 serving: measures the delta on the probe
  /// batch and enables kFloat32 only when it is within `max_abs_delta`
  /// (otherwise the precision stays f64). Returns the measured delta.
  /// An empty calibration batch is rejected (SSIN_CHECK): a delta of 0.0
  /// over zero predictions is no evidence that f32 is safe.
  double EnableF32Serving(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, double max_abs_delta);

  /// The converted-weight snapshot cache behind f32 serving
  /// (conversion/invalidation counters for tests). Cleared alongside the
  /// layout cache on every weight mutation.
  const F32WeightCache& f32_weights() const { return f32_weights_; }

  /// High-water mark of the inference workspace arena across every predict
  /// served by *this* interpolator since the last weight mutation — the
  /// serving caches and this peak reset together (InvalidateServingCaches),
  /// so after a hot-swap the gauge describes the promoted weights, not a
  /// stale larger model. The process-lifetime monotone lives in the
  /// `serve.arena_peak_bytes_process` gauge.
  size_t arena_peak_bytes() const {
    return arena_peak_bytes_.load(std::memory_order_relaxed);
  }

  /// Stations in the network this interpolator was prepared with (0 before
  /// Fit()/Prepare()). The interpolation server validates request ids
  /// against this bound at admission time.
  int num_stations() const {
    return prepared_ ? context_.num_stations() : 0;
  }

  /// Overrides the non-negative output clamp captured from the dataset at
  /// Fit()/Prepare() time.
  void set_non_negative(bool non_negative) { non_negative_ = non_negative; }
  bool non_negative() const { return non_negative_; }

  /// Runtime switch for neighbor-limited shielding (see
  /// SpaFormerConfig::neighbor_k). 0 restores full shielding, the paper's
  /// bit-exact semantics; k > 0 caps every query's legal keys at its k
  /// nearest observed stations so serving (and any subsequent training)
  /// scales O(L*k). Invalidates the serving caches: cached layouts embed
  /// the plan built for the previous k. Must be called after
  /// Fit()/Prepare(); requires a shielded configuration when k > 0. When
  /// k >= the observed count of a sequence, predictions are bit-identical
  /// to full shielding.
  void SetNeighborK(int k);
  int neighbor_k() const;

 private:
  /// Cached-or-built layout for one (observed_ids, query_ids) pair.
  std::shared_ptr<const SequenceLayout> LayoutFor(
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids);

  /// InterpolateBatch at an explicit precision.
  std::vector<std::vector<double>> PredictBatch(
      const std::vector<const std::vector<double>*>& batch_values,
      const std::vector<int>& observed_ids,
      const std::vector<int>& query_ids, ServingPrecision precision,
      int num_threads);

  /// One graph-free forward pass at `precision`: standardize the request
  /// with the statistics of its observed values, feed the layout's rows to
  /// Predict or PredictF32, destandardize and clamp. `layout` is the
  /// request's (LayoutFor(observed_ids, ...)). `ws` must be used by one
  /// thread at a time.
  std::vector<double> PredictWithLayout(const std::vector<double>& all_values,
                                        const std::vector<int>& observed_ids,
                                        const SequenceLayout& layout,
                                        ServingPrecision precision,
                                        InferenceWorkspace* ws);

  /// Invalidates every weight-derived serving cache (layouts with their
  /// pair store, and f32 weight snapshots). Must run on each weight
  /// mutation, after it is committed.
  void InvalidateServingCaches();

  SpaFormerConfig model_config_;
  TrainConfig train_config_;
  std::unique_ptr<SpaFormer> model_;
  std::unique_ptr<SsinTrainer> trainer_;
  SpatialContext context_;
  TrainStats train_stats_;
  LayoutCache layout_cache_;
  F32WeightCache f32_weights_;
  /// Atomic: serving threads read it (once per batch) while admin calls
  /// (set_serving_precision, EnableF32Serving) write it.
  std::atomic<ServingPrecision> serving_precision_{
      ServingPrecision::kFloat64};
  /// Instance arena high-water mark; reset by InvalidateServingCaches.
  std::atomic<size_t> arena_peak_bytes_{0};
  bool non_negative_ = false;
  bool prepared_ = false;
};

}  // namespace ssin

#endif  // SSIN_CORE_SSIN_INTERPOLATOR_H_
