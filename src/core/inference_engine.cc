#include "core/inference_engine.h"

#include <algorithm>
#include <cstring>
#include <numeric>
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

// The size of each layout build: the rows it evaluates and the legal pairs
// it resolves (its cone, not the network).
telemetry::Histogram* LayoutRowsHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.layout.rows");
  return histogram;
}
telemetry::Histogram* LayoutPairsHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("serve.layout.pairs");
  return histogram;
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

/// Fills the rows, bands and plan of the cone of the request `request_ids`
/// (observed ids, then query ids) — see SequenceLayout.
void BuildCone(const SpaFormerConfig& config, const SpatialContext& context,
               const std::vector<int>& request_ids, int num_observed,
               SequenceLayout* layout) {
  const int length = static_cast<int>(request_ids.size());
  const int num_layers = config.num_layers;
  std::vector<uint8_t> observed(length, 0);
  std::fill_n(observed.begin(), num_observed, 1);

  // The request's full plan (BuildSequencePlan's policy). Under a k-NN cap
  // it is built after the walk, from neighbour lists of the rows the walk
  // reached; the other rows keep only themselves.
  const bool limited = config.shielded && config.neighbor_k > 0;
  auto full = std::make_shared<AttentionPlan>();
  std::unique_ptr<SpatialContext::NearestObserved> nearest;
  std::vector<std::vector<int>> neighbors;
  if (limited) {
    nearest = std::make_unique<SpatialContext::NearestObserved>(
        context, request_ids, observed, config.neighbor_k);
    neighbors.resize(length);
  } else {
    BuildAttentionPlan(observed, config.shielded, full.get());
  }

  // Walk back from the queries: level[p] is the last layer whose output
  // needs row p (p is in S_level but not S_level+1), -1 outside the cone.
  // Only the rows of S_1 need their keys, so only they run k-NN.
  std::vector<int> level(length, -1);
  std::vector<int> frontier, next;
  for (int p = num_observed; p < length; ++p) {
    level[p] = num_layers;
    frontier.push_back(p);
  }
  for (int t = num_layers; t >= 1 && !frontier.empty(); --t) {
    next.clear();
    const auto reach = [&](int j) {
      if (level[j] < 0) {
        level[j] = t - 1;
        next.push_back(j);
      }
    };
    for (int p : frontier) {
      if (limited) {
        neighbors[p] = nearest->KeysOf(p);
        for (int j : neighbors[p]) reach(j);
      } else {
        for (int64_t e = full->offset[p]; e < full->offset[p + 1]; ++e) {
          reach(full->key_index[e]);
        }
      }
    }
    frontier.swap(next);
  }
  if (limited) BuildAttentionPlanLimited(observed, neighbors, full.get());

  // Bands S_0∖S_1 | … | S_T, each in request order. Only queries reach
  // level T, so the observed rows lead.
  std::vector<int>& rows = layout->request_rows;
  layout->layer_begin.assign(num_layers + 1, 0);
  for (int t = 0; t <= num_layers; ++t) {
    layout->layer_begin[t] = static_cast<int>(rows.size());
    for (int p = 0; p < length; ++p) {
      if (level[p] == t) rows.push_back(p);
    }
  }
  const int n = static_cast<int>(rows.size());
  std::vector<int> row_of(length, -1);
  for (int r = 0; r < n; ++r) row_of[rows[r]] = r;

  // Each evaluated row keeps its full-plan keys, in their order, under
  // their layout rows; rows of S_0∖S_1 get none.
  std::vector<std::vector<int>> row_keys(n);
  layout->node_ids.resize(n);
  layout->observed.resize(n);
  for (int r = 0; r < n; ++r) {
    const int p = rows[r];
    layout->node_ids[r] = request_ids[p];
    layout->observed[r] = observed[p];
    if (level[p] == 0) continue;
    for (int64_t e = full->offset[p]; e < full->offset[p + 1]; ++e) {
      row_keys[r].push_back(row_of[full->key_index[e]]);
    }
  }
  layout->num_observed = layout->layer_begin[num_layers];
  auto plan = std::make_shared<AttentionPlan>();
  BuildAttentionPlanFromKeys(layout->observed, config.shielded, row_keys,
                             plan.get());
  layout->plan = std::move(plan);
}

/// Fills the full layout of the request: every row, in request order.
void BuildFull(const SpaFormerConfig& config, const SpatialContext& context,
               const std::vector<int>& request_ids, int num_observed,
               SequenceLayout* layout) {
  const int length = static_cast<int>(request_ids.size());
  layout->node_ids = request_ids;
  layout->num_observed = num_observed;
  layout->observed.assign(length, 0);
  std::fill_n(layout->observed.begin(), num_observed, 1);
  layout->request_rows.resize(length);
  std::iota(layout->request_rows.begin(), layout->request_rows.end(), 0);
  layout->layer_begin.assign(config.num_layers + 1, 0);
  layout->layer_begin.back() = num_observed;
  layout->plan =
      BuildSequencePlan(config, context, layout->node_ids, layout->observed);
}

/// A layout over `store`: the cone of the request (serving) or its full
/// layout (standalone).
std::shared_ptr<SequenceLayout> BuildLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    bool cone, std::shared_ptr<PairStore> store, InferenceWorkspace* ws) {
  auto layout = std::make_shared<SequenceLayout>();
  std::vector<int> request_ids = observed_ids;
  request_ids.insert(request_ids.end(), query_ids.begin(), query_ids.end());
  (cone ? BuildCone : BuildFull)(model->config(), context, request_ids,
                                 static_cast<int>(observed_ids.size()),
                                 layout.get());
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
  return BuildLayout(model, context, observed_ids, query_ids, /*cone=*/true,
                     std::move(store), ws);
}

std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    InferenceWorkspace* ws) {
  const bool srpe =
      model->config().position_mode == SpaFormerConfig::PositionMode::kSrpe;
  std::shared_ptr<SequenceLayout> layout =
      BuildLayout(model, context, observed_ids, query_ids, /*cone=*/false,
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
    const std::vector<int>& request_ids, int num_observed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(Key(request_ids, num_observed));
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

void LayoutCache::Insert(const std::vector<int>& request_ids,
                         int num_observed,
                         std::shared_ptr<const SequenceLayout> layout) {
  SSIN_CHECK(layout != nullptr);
  LayoutRowsHistogram()->Observe(static_cast<double>(layout->length()));
  LayoutPairsHistogram()->Observe(
      static_cast<double>(layout->plan->num_pairs()));
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= capacity_) EvictAllLocked();
  entries_.emplace(Key(request_ids, num_observed), std::move(layout));
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
