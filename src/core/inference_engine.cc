#include "core/inference_engine.h"

#include <utility>

#include "common/telemetry.h"
#include "core/spaformer.h"
#include "core/spatial_context.h"

namespace ssin {

namespace {

// Process-wide aggregates across every LayoutCache instance; the
// per-instance atomics back the hits()/misses() accessors.
telemetry::Counter* CacheCounter(const char* which) {
  return telemetry::GetCounter(std::string("serve.layout_cache.") + which);
}

telemetry::Counter* HitsCounter() {
  static telemetry::Counter* counter = CacheCounter("hits");
  return counter;
}
telemetry::Counter* MissesCounter() {
  static telemetry::Counter* counter = CacheCounter("misses");
  return counter;
}
telemetry::Counter* EvictionsCounter() {
  static telemetry::Counter* counter = CacheCounter("evictions");
  return counter;
}
telemetry::Counter* InvalidationsCounter() {
  static telemetry::Counter* counter = CacheCounter("invalidations");
  return counter;
}

}  // namespace

std::shared_ptr<const AttentionPlan> BuildSequencePlan(
    const SpaFormerConfig& config, const SpatialContext& context,
    const std::vector<int>& node_ids, const std::vector<uint8_t>& observed) {
  auto plan = std::make_shared<AttentionPlan>();
  if (config.shielded &&
      (config.neighbor_k > 0 || config.neighbor_radius_km > 0.0)) {
    BuildAttentionPlanLimited(
        observed,
        context.NearestObservedKeys(node_ids, observed, config.neighbor_k,
                                    config.neighbor_radius_km),
        plan.get());
  } else {
    BuildAttentionPlan(observed, config.shielded, plan.get());
  }
  return plan;
}

Tensor RelposRowsForPlan(const SpatialContext& context,
                         const std::vector<int>& node_ids,
                         const AttentionPlan& plan,
                         const SpaFormerConfig& config) {
  if (config.position_mode != SpaFormerConfig::PositionMode::kSrpe) {
    return Tensor();
  }
  return context.RelposForPairs(node_ids, plan.pair_rows);
}

std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    InferenceWorkspace* ws) {
  auto layout = std::make_shared<SequenceLayout>();
  layout->node_ids = observed_ids;
  layout->node_ids.insert(layout->node_ids.end(), query_ids.begin(),
                          query_ids.end());
  layout->num_observed = static_cast<int>(observed_ids.size());

  layout->observed.assign(layout->node_ids.size(), 0);
  for (int i = 0; i < layout->num_observed; ++i) layout->observed[i] = 1;

  layout->plan = BuildSequencePlan(model->config(), context, layout->node_ids,
                                   layout->observed);
  layout->abspos = context.AbsposFor(layout->node_ids);

  // The relpos rows live only for the embedding forward below; the layout
  // keeps the embedded result, not the geometry.
  const Tensor relpos_rows = RelposRowsForPlan(context, layout->node_ids,
                                               *layout->plan, model->config());
  model->EmbedLayoutPositions(layout.get(), relpos_rows, ws);
  // Converting the embedded positions up front (an empty tensor converts
  // to an empty tensor) keeps the layout usable by either precision
  // without re-touching model weights.
  layout->srpe_f32 = TensorF32::FromTensor(layout->srpe);
  layout->sape_f32 = TensorF32::FromTensor(layout->sape);
  return layout;
}

std::shared_ptr<const SequenceLayout> LayoutCache::Lookup(
    const std::vector<int>& node_ids, int num_observed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(Key(node_ids, num_observed));
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MissesCounter()->Add(1);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  HitsCounter()->Add(1);
  return it->second;
}

void LayoutCache::Insert(std::shared_ptr<const SequenceLayout> layout) {
  SSIN_CHECK(layout != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= capacity_) {
    evictions_.fetch_add(static_cast<int64_t>(entries_.size()),
                         std::memory_order_relaxed);
    EvictionsCounter()->Add(static_cast<int64_t>(entries_.size()));
    entries_.clear();
  }
  entries_.emplace(Key(layout->node_ids, layout->num_observed),
                   std::move(layout));
}

void LayoutCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  InvalidationsCounter()->Add(1);
  entries_.clear();
}

size_t LayoutCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace ssin
