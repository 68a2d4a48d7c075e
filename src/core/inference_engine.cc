#include "core/inference_engine.h"

#include <cstring>
#include <stdexcept>
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

// Process-wide aggregates across every PairStore; the per-store atomics
// back PairStore::hits()/misses().
telemetry::Counter* PairHitsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.pair_store.hits");
  return counter;
}
telemetry::Counter* PairMissesCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.pair_store.misses");
  return counter;
}

/// Bytes held by every live PairStore, mirrored into its gauge. Stores
/// grow a chunk at a time, so the lock is rare; it keeps concurrent updates
/// from publishing a stale total last.
void AddLiveStoreBytes(int64_t delta) {
  static std::mutex mutex;
  static int64_t live = 0;
  static telemetry::Gauge* gauge =
      telemetry::GetGauge("serve.pair_store.bytes");
  std::lock_guard<std::mutex> lock(mutex);
  live += delta;
  gauge->Set(static_cast<double>(live));
}

constexpr uint64_t kEmptyKey = ~uint64_t{0};  // No station pair packs to it.
constexpr size_t kMinIndexSlots = 1024;

size_t SlotHash(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return static_cast<size_t>(key);
}

}  // namespace

PairStore::PairStore()
    : slot_keys_(kMinIndexSlots, kEmptyKey), slot_rows_(kMinIndexSlots) {
  AddBytes(static_cast<int64_t>(kMinIndexSlots) *
           static_cast<int64_t>(sizeof(uint64_t) + sizeof(int32_t)));
}

PairStore::~PairStore() {
  for (int c = 0; c < kMaxChunks && f64_chunks_[c] != nullptr; ++c) {
    delete[] f64_chunks_[c];
    delete[] f32_chunks_[c];
  }
  AddLiveStoreBytes(-bytes_);
}

size_t PairStore::Probe(uint64_t key) const {
  const size_t mask = slot_keys_.size() - 1;
  for (size_t i = SlotHash(key) & mask;; i = (i + 1) & mask) {
    if (slot_keys_[i] == key || slot_keys_[i] == kEmptyKey) return i;
  }
}

void PairStore::ReserveIndex(int64_t rows) {
  size_t slots = slot_keys_.size();
  while (static_cast<int64_t>(slots) < 2 * rows) slots *= 2;
  if (slots == slot_keys_.size()) return;
  std::vector<uint64_t> keys(slots, kEmptyKey);
  std::vector<int32_t> old_rows(slots);
  keys.swap(slot_keys_);
  old_rows.swap(slot_rows_);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == kEmptyKey) continue;
    const size_t slot = Probe(keys[i]);
    slot_keys_[slot] = keys[i];
    slot_rows_[slot] = old_rows[i];
  }
  AddBytes(static_cast<int64_t>(slots - keys.size()) *
           static_cast<int64_t>(sizeof(uint64_t) + sizeof(int32_t)));
}

void PairStore::AppendRow(const double* row) {
  const int chunk = rows_ >> kChunkShift;
  const size_t chunk_values = static_cast<size_t>(kChunkRows) * width_;
  if (f64_chunks_[chunk] == nullptr) {
    // Uninitialized: a chunk's pages are touched only as rows arrive.
    auto f64 = std::make_unique_for_overwrite<double[]>(chunk_values);
    auto f32 = std::make_unique_for_overwrite<float[]>(chunk_values);
    f64_chunks_[chunk] = f64.release();
    f32_chunks_[chunk] = f32.release();
    AddBytes(static_cast<int64_t>(chunk_values) *
             static_cast<int64_t>(sizeof(double) + sizeof(float)));
  }
  const size_t offset = static_cast<size_t>(rows_ & (kChunkRows - 1)) *
                        static_cast<size_t>(width_);
  std::memcpy(f64_chunks_[chunk] + offset, row, width_ * sizeof(double));
  float* narrow = f32_chunks_[chunk] + offset;
  for (int e = 0; e < width_; ++e) narrow[e] = static_cast<float>(row[e]);
  ++rows_;
}

void PairStore::AddBytes(int64_t delta) {
  bytes_ += delta;
  AddLiveStoreBytes(delta);
}

std::vector<int32_t> PairStore::Resolve(const std::vector<uint64_t>& keys,
                                        const EmbedFn& embed) {
  std::vector<int32_t> rows(keys.size());
  std::vector<int64_t> missing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t t = 0; t < keys.size(); ++t) {
      const size_t slot = Probe(keys[t]);
      if (slot_keys_[slot] == keys[t]) {
        rows[t] = slot_rows_[slot];
      } else {
        missing.push_back(static_cast<int64_t>(t));
      }
    }
  }
  if (!missing.empty()) {
    // Embedding runs unlocked: another builder may append meanwhile, so
    // each missing key is looked up again before its row is appended.
    const Tensor& embedded = embed(missing);
    SSIN_CHECK_EQ(embedded.rank(), 2);
    SSIN_CHECK_EQ(static_cast<size_t>(embedded.dim(0)), missing.size());
    std::lock_guard<std::mutex> lock(mutex_);
    if (width_ == 0) width_ = embedded.dim(1);
    SSIN_CHECK_EQ(width_, embedded.dim(1));
    const int64_t most_rows = rows_ + static_cast<int64_t>(missing.size());
    if (most_rows > kCapacity) {
      throw std::length_error("PairStore capacity exceeded");
    }
    ReserveIndex(most_rows);
    for (size_t i = 0; i < missing.size(); ++i) {
      const uint64_t key = keys[missing[i]];
      const size_t slot = Probe(key);
      if (slot_keys_[slot] != key) {
        slot_keys_[slot] = key;
        slot_rows_[slot] = rows_;
        AppendRow(embedded.data() + static_cast<int64_t>(i) * width_);
      }
      rows[missing[i]] = slot_rows_[slot];
    }
  }
  const int64_t found = static_cast<int64_t>(keys.size() - missing.size());
  const int64_t embedded_pairs = static_cast<int64_t>(missing.size());
  hits_.fetch_add(found, std::memory_order_relaxed);
  misses_.fetch_add(embedded_pairs, std::memory_order_relaxed);
  PairHitsCounter()->Add(found);
  PairMissesCounter()->Add(embedded_pairs);
  return rows;
}

int64_t PairStore::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

int64_t PairStore::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::shared_ptr<const AttentionPlan> BuildSequencePlan(
    const SpaFormerConfig& config, const SpatialContext& context,
    const std::vector<int>& node_ids, const std::vector<uint8_t>& observed) {
  auto plan = std::make_shared<AttentionPlan>();
  if (config.shielded && config.neighbor_k > 0) {
    BuildAttentionPlanLimited(
        observed,
        context.NearestObservedKeys(node_ids, observed, config.neighbor_k),
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

namespace {

std::shared_ptr<SequenceLayout> BuildLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    std::shared_ptr<PairStore> store, InferenceWorkspace* ws) {
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

  if (model->config().position_mode != SpaFormerConfig::PositionMode::kSrpe) {
    model->EmbedLayoutPositions(layout.get(), Tensor(), ws);
    layout->sape_f32 = TensorF32::From(layout->sape);
    return layout;
  }
  SSIN_CHECK(store != nullptr) << "an SRPE layout needs a pair store";
  // One key per legal pair (query station, key station), in plan order, so
  // a fresh store appends this layout's rows as 0..num_pairs-1.
  const AttentionPlan& plan = *layout->plan;
  const std::vector<int>& ids = layout->node_ids;
  std::vector<uint64_t> keys(static_cast<size_t>(plan.num_pairs()));
  for (int i = 0; i < plan.length; ++i) {
    for (int64_t t = plan.offset[i]; t < plan.offset[i + 1]; ++t) {
      keys[t] = PairStore::Key(ids[i], ids[plan.key_index[t]]);
    }
  }
  // Only the pairs the store lacks get relative positions and an
  // embedding; rows are row-independent, so they equal a whole-layout
  // embedding's rows bit for bit.
  layout->store_rows = store->Resolve(
      keys, [&](const std::vector<int64_t>& missing) -> const Tensor& {
        std::vector<int64_t> pair_rows(missing.size());
        for (size_t n = 0; n < missing.size(); ++n) {
          pair_rows[n] = plan.pair_rows[missing[n]];
        }
        return model->EmbedPositionRows(
            context.RelposForPairs(ids, pair_rows), ws);
      });
  layout->store = std::move(store);
  return layout;
}

}  // namespace

std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    std::shared_ptr<PairStore> store, InferenceWorkspace* ws) {
  return BuildLayout(model, context, observed_ids, query_ids,
                     std::move(store), ws);
}

std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    InferenceWorkspace* ws) {
  const bool srpe =
      model->config().position_mode == SpaFormerConfig::PositionMode::kSrpe;
  std::shared_ptr<SequenceLayout> layout =
      BuildLayout(model, context, observed_ids, query_ids,
                  srpe ? std::make_shared<PairStore>() : nullptr, ws);
  if (!srpe) return layout;
  const int pairs = static_cast<int>(layout->store_rows.size());
  const int width = model->config().d_k;
  const IndexedSrpe<double> rows64 = layout->SrpeRows<double>();
  const IndexedSrpe<float> rows32 = layout->SrpeRows<float>();
  layout->srpe = Tensor({pairs, width});
  layout->srpe_f32 = TensorF32({pairs, width});
  for (int t = 0; t < pairs; ++t) {
    const int64_t at = static_cast<int64_t>(t) * width;
    std::memcpy(layout->srpe.data() + at, SrpeRow(&rows64, t, width),
                width * sizeof(double));
    std::memcpy(layout->srpe_f32.data() + at, SrpeRow(&rows32, t, width),
                width * sizeof(float));
  }
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

void LayoutCache::EvictAllLocked() {
  evictions_.fetch_add(static_cast<int64_t>(entries_.size()),
                       std::memory_order_relaxed);
  EvictionsCounter()->Add(static_cast<int64_t>(entries_.size()));
  entries_.clear();
  store_.reset();
}

std::shared_ptr<PairStore> LayoutCache::StoreForBuild() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= capacity_) EvictAllLocked();
  if (store_ == nullptr) store_ = std::make_shared<PairStore>();
  return store_;
}

void LayoutCache::Insert(std::shared_ptr<const SequenceLayout> layout) {
  SSIN_CHECK(layout != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= capacity_) EvictAllLocked();
  entries_.emplace(Key(layout->node_ids, layout->num_observed),
                   std::move(layout));
}

void LayoutCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  InvalidationsCounter()->Add(1);
  entries_.clear();
  store_.reset();
}

size_t LayoutCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<const PairStore> LayoutCache::pair_store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

}  // namespace ssin
