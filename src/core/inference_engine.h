#ifndef SSIN_CORE_INFERENCE_ENGINE_H_
#define SSIN_CORE_INFERENCE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "nn/inference.h"
#include "tensor/attention_kernels.h"
#include "tensor/tensor.h"

namespace ssin {

class SpaFormer;
class SpatialContext;
struct SpaFormerConfig;

/// One embedded SRPE row per station pair, shared by every layout built
/// over it. Paper §3.2 standardizes relative positions globally, so the
/// embedded row c_ab of the ordered station pair (a, b) depends only on the
/// pair and the weights — not on which layout asks for it. A serving
/// layout therefore keeps one int32 store row per legal pair instead of
/// its own [num_pairs, d_k] copy.
///
/// Each row is held in f64 and, narrowed once, in f32. Storage is
/// append-only in chunks of kChunkRows rows whose base pointers sit in a
/// fixed directory, so a row never moves once handed out: a layout reads
/// its rows (SequenceLayout::SrpeRows) with no lock while other threads
/// append. A flat open-addressing index (linear probing, one uint64 key and
/// one int32 row per slot) maps pairs to rows under the store's mutex.
///
/// Rows only accumulate, so whoever owns a store bounds its lifetime: the
/// serving LayoutCache starts a fresh one whenever it drops its entries,
/// and each layout holds a shared_ptr to the store it was built over.
class PairStore {
 public:
  static constexpr int kChunkShift = 13;
  static constexpr int32_t kChunkRows = int32_t{1} << kChunkShift;
  static constexpr int kMaxChunks = 1 << 13;
  /// Rows a store can hold (2^26: 13 GB of rows at d_k = 16).
  static constexpr int64_t kCapacity = int64_t{kChunkRows} * kMaxChunks;

  PairStore();
  ~PairStore();
  PairStore(const PairStore&) = delete;
  PairStore& operator=(const PairStore&) = delete;

  /// Key of the ordered station pair (a, b); a, b >= 0.
  static uint64_t Key(int a, int b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

  /// Embeds the pairs a Resolve call found missing: given their positions
  /// in its key list, returns their [n, width] f64 rows in that order.
  using EmbedFn =
      std::function<const Tensor&(const std::vector<int64_t>& missing)>;

  /// Returns the store row of every key. The keys the store lacks are
  /// embedded with one `embed` call, outside the lock, and appended in key
  /// order (a key listed twice gets one row). Counts the keys found as
  /// hits and the keys embedded as misses. Thread-safe: when two callers
  /// embed the same pair, the first append wins and the second reuses its
  /// row. Throws std::length_error past kCapacity rows.
  std::vector<int32_t> Resolve(const std::vector<uint64_t>& keys,
                               const EmbedFn& embed);

  /// Attention view of `index` (store rows per legal pair) over the f64 or
  /// f32 table. Every indexed row must come from Resolve.
  template <typename T>
  IndexedSrpe<T> View(const int32_t* index) const {
    if constexpr (std::is_same_v<T, double>) {
      return {f64_chunks_, index, kChunkShift};
    } else {
      return {f32_chunks_, index, kChunkShift};
    }
  }

  int64_t rows() const;
  /// Chunk tables plus index.
  int64_t bytes() const;

  /// Statistics, per store; process-wide totals in serve.pair_store.*.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  /// Index slot of `key`: its slot, or the empty slot it would take.
  size_t Probe(uint64_t key) const;
  /// Grows the index, in one rehash, to keep its load at most 1/2 with
  /// `rows` entries.
  void ReserveIndex(int64_t rows);
  /// Copies `row` (width_ values) into the next row of both tables.
  void AppendRow(const double* row);
  /// Adjusts bytes_ and the process-wide serve.pair_store.bytes gauge.
  void AddBytes(int64_t delta);

  mutable std::mutex mutex_;
  int width_ = 0;  ///< Row width, set by the first append.
  int32_t rows_ = 0;
  int64_t bytes_ = 0;
  std::vector<uint64_t> slot_keys_;  ///< kEmptyKey marks a free slot.
  std::vector<int32_t> slot_rows_;
  double* f64_chunks_[kMaxChunks] = {};
  float* f32_chunks_[kMaxChunks] = {};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

/// Everything about one inference sequence that does not depend on the
/// sensor *values* — only on which stations are observed and which are
/// queried. A serving system replays the same station set for thousands of
/// timestamps (a gauge outage pattern changes rarely), so all of this is
/// computed once and shared, immutably, by every forward pass:
///
///  * the legal-pair AttentionPlan of the shielded attention,
///  * the standardized absolute positions, and
///  * the position embeddings, computed with the model's weights: in SRPE
///    mode one PairStore row per legal pair, in SAPE mode the embedded
///    [L, d_model] absolute positions. Both are weight-dependent, which
///    is why a layout (and its store) must be discarded whenever the
///    model's weights change.
///
/// A serving layout (the store-backed BuildSequenceLayout) holds only the
/// request's cone: the rows a query output can depend on. With T encoder
/// layers, S_T is the queries and S_{t-1} = S_t ∪ keys(S_t), where keys(i)
/// are row i's legal keys in the full plan; the layout's rows are S_0, in
/// bands S_0∖S_1 | S_1∖S_2 | … | S_{T-1}∖S_T | S_T, each band in request
/// order, and layer t evaluates only S_t. Every operator outside attention
/// is row-wise, and each evaluated row lists its full-plan keys in the full
/// plan's order, so a query's output equals the full layout's bit for bit.
/// Under full shielding, unshielded attention or k >= the observed count,
/// S_{T-1} is every row: the layout is then the full layout, in request
/// order, with layer_begin {0, …, 0, num_observed}.
struct SequenceLayout {
  /// Station id of each row: the cone's observed stations band by band,
  /// then the query ids in request order. Full layouts: the observed ids,
  /// then the query ids.
  std::vector<int> node_ids;
  /// The leading num_observed rows are observed; the rest are the queries.
  int num_observed = 0;
  std::vector<uint8_t> observed;  ///< Per-node flags (1 = observed).
  /// Each row's position in the request sequence (the observed ids, then
  /// the query ids): the row of the request's standardized input it reads.
  std::vector<int> request_rows;
  /// T + 1 row offsets: S_t is rows [layer_begin[t], L). Layer t (1..T)
  /// reads rows [layer_begin[t-1], L) and writes [layer_begin[t], L);
  /// layer_begin[T] == num_observed.
  std::vector<int> layer_begin;
  /// Legal pairs over this layout's rows. Rows of S_0∖S_1 have no keys:
  /// no layer evaluates them.
  std::shared_ptr<const AttentionPlan> plan;

  /// Standardized absolute coordinates, [L, 2]. Relative positions are
  /// *not* stored: only the rows of legal pairs the store lacks are ever
  /// computed (SpatialContext::RelposForPairs), consumed by the position
  /// embedding at build time, and discarded.
  Tensor abspos;

  /// SRPE mode: legal pair t's embedded c row is row store_rows[t] of
  /// `store`, in either precision (SrpeRows). The serving chain reads c
  /// only this way. Null/empty in SAPE mode.
  std::shared_ptr<const PairStore> store;
  std::vector<int32_t> store_rows;

  /// SAPE mode: embedded absolute positions, [L, d_model], and their f32
  /// copy, converted once at build. Empty in SRPE mode.
  Tensor sape;
  TensorF32 sape_f32;

  /// Standalone layouts only (the five-argument BuildSequenceLayout):
  /// per-pair copies of the store rows, [num_pairs, d_k] indexed by legal
  /// pair, in f64 and f32. Serving layouts leave them empty.
  Tensor srpe;
  TensorF32 srpe_f32;

  int length() const { return static_cast<int>(node_ids.size()); }

  /// The attention view of this layout's c rows (SRPE mode only).
  template <typename T>
  IndexedSrpe<T> SrpeRows() const {
    return store->View<T>(store_rows.data());
  }

  /// The embedded absolute positions in T: sape or sape_f32 (SAPE mode
  /// only).
  template <typename T>
  const BasicTensor<T>& Sape() const {
    if constexpr (std::is_same_v<T, double>) {
      return sape;
    } else {
      return sape_f32;
    }
  }
};

/// Builds the serving layout for one (observed_ids, query_ids) request:
/// the cone of its queries (see SequenceLayout), with geometry from
/// `context`, plan keys from BuildSequencePlan's policy (k-NN runs only for
/// the rows of S_1) and position embeddings from `model`'s current
/// weights. In SRPE mode the cone's legal pairs resolve to rows of `store`
/// (which must be non-null), embedding only the pairs it lacks — the
/// serving path, where one store backs every cached layout. SAPE mode
/// embeds the cone's rows and builds no store rows (`store` is ignored).
/// An empty query list gives an empty layout. `ws` provides scratch for
/// the embedding forward.
std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    std::shared_ptr<PairStore> store, InferenceWorkspace* ws);

/// Standalone layout: the full layout — every request row, in request
/// order, layer_begin {0, …, 0, num_observed}, the plan of
/// BuildSequencePlan — over a private store, plus per-pair copies of its
/// rows in `srpe`/`srpe_f32` for callers that read c by legal pair.
std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    InferenceWorkspace* ws);

/// Builds the attention plan for one sequence under `config`: the full
/// shielded (or unshielded) plan, or — when config.shielded and
/// config.neighbor_k > 0 — the neighbor-limited plan over the k nearest
/// observed stations per query (SpatialContext::NearestObservedKeys).
/// The plan-construction policy of training and the autograd reference;
/// a serving layout applies the same plan builders and k-NN to the rows
/// of its cone, so every path agrees on which pairs are legal.
std::shared_ptr<const AttentionPlan> BuildSequencePlan(
    const SpaFormerConfig& config, const SpatialContext& context,
    const std::vector<int>& node_ids, const std::vector<uint8_t>& observed);

/// Standardized relative positions for exactly the rows
/// SpaFormer::ForwardWithPlan consumes under `config`: SRPE —
/// [plan.num_pairs(), 2] legal-pair rows; SAPE — an empty tensor (no
/// relative positions at all).
Tensor RelposRowsForPlan(const SpatialContext& context,
                         const std::vector<int>& node_ids,
                         const AttentionPlan& plan,
                         const SpaFormerConfig& config);

/// Thread-safe cache of SequenceLayouts keyed by the request — its observed
/// ids followed by its query ids, and the observed count — plus the
/// PairStore its layouts are built over. A cached layout covers only its
/// request's cone, so its own node_ids are not the key.
///
/// One store per cache generation: the rows of every cached layout live in
/// the current store, and each layout keeps only its plan and row indices.
/// Because layouts and store rows embed positions with the model's
/// weights, the owning interpolator must Clear() the cache on every weight
/// mutation (training, checkpoint load, parameter copy); that drops the
/// store too. Entries are immutable shared_ptrs that hold their own store,
/// so a forward pass keeps its layout and rows alive even if the cache is
/// cleared mid-flight.
class LayoutCache {
 public:
  /// `capacity`: maximum retained layouts. Making room past capacity evicts
  /// the whole cache, hot entries included, and starts a fresh store, so a
  /// store never holds more rows than the layouts built over it. A skewed
  /// pool larger than the capacity (perfbench's nat1k_churn: a Zipf pool 4x
  /// the cache) therefore loses its head on every fill; ROADMAP.md item 3
  /// plans LRU eviction.
  explicit LayoutCache(size_t capacity = 64) : capacity_(capacity) {}

  /// Returns the cached layout for the request (`request_ids`: its
  /// observed ids, then its query ids), or nullptr (counts a hit or a miss
  /// accordingly).
  std::shared_ptr<const SequenceLayout> Lookup(
      const std::vector<int>& request_ids, int num_observed) const;

  /// The store a new SRPE layout is built over, created on first use. A
  /// full cache is emptied first (counted as evictions) and the new layout
  /// gets a fresh store.
  std::shared_ptr<PairStore> StoreForBuild();

  /// Inserts the layout built for a request under Lookup's key, and
  /// records the build's size: serve.layout.rows (the rows it evaluates)
  /// and serve.layout.pairs (the legal pairs it resolves). If two threads
  /// race to insert the same key, the first one wins and both proceed with
  /// a valid layout. Insertion past capacity (concurrent builders, or SAPE
  /// layouts, which never call StoreForBuild) first drops every entry and
  /// the store.
  void Insert(const std::vector<int>& request_ids, int num_observed,
              std::shared_ptr<const SequenceLayout> layout);

  /// Drops all entries and the store (a weight-mutation invalidation).
  void Clear();

  size_t size() const;

  /// The current store, or nullptr before the first SRPE build of this
  /// generation (and always in SAPE mode).
  std::shared_ptr<const PairStore> pair_store() const;

  /// Statistics. The counters are atomics mirrored into the process-wide
  /// telemetry registry (serve.layout_cache.*), so serving threads mutate
  /// them under the entry mutex while test/bench code reads them from any
  /// thread without synchronization hazards. Per-instance values here;
  /// process-wide aggregates in the registry.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  using Key = std::pair<std::vector<int>, int>;

  /// Drops every entry as capacity evictions, and the store with them.
  void EvictAllLocked();

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const SequenceLayout>> entries_;
  std::shared_ptr<PairStore> store_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};      ///< Entries dropped at capacity.
  std::atomic<int64_t> invalidations_{0};  ///< Clear() calls.
};

}  // namespace ssin

#endif  // SSIN_CORE_INFERENCE_ENGINE_H_
