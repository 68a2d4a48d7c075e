#ifndef SSIN_CORE_INFERENCE_ENGINE_H_
#define SSIN_CORE_INFERENCE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/inference.h"
#include "tensor/attention_kernels.h"
#include "tensor/tensor.h"

namespace ssin {

class SpaFormer;
class SpatialContext;
struct SpaFormerConfig;

/// Everything about one inference sequence that does not depend on the
/// sensor *values* — only on which stations are observed and which are
/// queried. A serving system replays the same station set for thousands of
/// timestamps (a gauge outage pattern changes rarely), so all of this is
/// computed once and shared, immutably, by every forward pass:
///
///  * the legal-pair AttentionPlan of the shielded attention,
///  * the standardized relative / absolute positions, and
///  * the SRPE/SAPE tensors *already pushed through the position-embedding
///    module*. The SRPE embedding is value-independent but weight-dependent
///    (~30% of a forward pass at the paper config), which is why a layout
///    must be discarded whenever the model's weights change.
struct SequenceLayout {
  std::vector<int> node_ids;  ///< Observed station ids, then query ids.
  int num_observed = 0;
  std::vector<uint8_t> observed;  ///< Per-node flags (1 = observed).
  std::shared_ptr<const AttentionPlan> plan;

  /// Standardized absolute coordinates, [L, 2]. Relative positions are
  /// *not* stored: only the legal pairs' rows are ever computed
  /// (RelposRowsForPlan), consumed by the position embedding at build
  /// time, and discarded — a layout's relpos footprint is O(L*k) while it
  /// builds and zero afterwards, never the dense [L*L, 2].
  Tensor abspos;

  /// Pre-embedded positions: srpe is [num_pairs, d_k], indexed by legal
  /// pair, in SRPE mode; sape is [L, d_model] in SAPE mode. The unused one
  /// stays empty.
  Tensor srpe;
  Tensor sape;

  /// Float32 copies of srpe/sape, converted once at layout build so the
  /// f32 serving path (SpaFormer::PredictF32) never narrows per call.
  TensorF32 srpe_f32;
  TensorF32 sape_f32;

  int length() const { return static_cast<int>(node_ids.size()); }
};

/// Builds the complete layout for one (observed_ids, query_ids) sequence:
/// geometry from `context`, plan from the observation flags, and position
/// embeddings from `model`'s current weights. `ws` provides scratch for the
/// embedding forward (the returned layout owns its own tensors).
std::shared_ptr<const SequenceLayout> BuildSequenceLayout(
    SpaFormer* model, const SpatialContext& context,
    const std::vector<int>& observed_ids, const std::vector<int>& query_ids,
    InferenceWorkspace* ws);

/// Builds the attention plan for one sequence under `config`: the full
/// shielded (or unshielded) plan, or — when config.shielded and
/// config.neighbor_k > 0 — the neighbor-limited plan over the k nearest
/// observed stations per query (SpatialContext::NearestObservedKeys).
/// The single plan-construction policy shared by training, the serving
/// layouts, and the autograd reference, so every path agrees on which
/// pairs are legal.
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

/// Thread-safe cache of SequenceLayouts keyed by (node_ids, num_observed).
///
/// Because layouts embed positions with the model's weights, the owning
/// interpolator must Clear() the cache on every weight mutation (training,
/// checkpoint load, parameter copy). Entries are immutable shared_ptrs, so
/// a forward pass keeps its layout alive even if the cache is cleared
/// mid-flight.
class LayoutCache {
 public:
  /// `capacity`: maximum retained layouts. Insertion past capacity evicts
  /// the whole cache first — serving workloads cycle through a handful of
  /// outage patterns, so anything smarter than "bounded" is unwarranted.
  explicit LayoutCache(size_t capacity = 64) : capacity_(capacity) {}

  /// Returns the cached layout for the key, or nullptr (counts a hit or a
  /// miss accordingly).
  std::shared_ptr<const SequenceLayout> Lookup(
      const std::vector<int>& node_ids, int num_observed) const;

  /// Inserts a layout under its own (node_ids, num_observed) key. If two
  /// threads race to insert the same key, the first one wins and both
  /// proceed with a valid layout. Insertion past capacity first drops every
  /// entry (counted as evictions).
  void Insert(std::shared_ptr<const SequenceLayout> layout);

  /// Drops all entries (a weight-mutation invalidation).
  void Clear();

  size_t size() const;

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

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const SequenceLayout>> entries_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};      ///< Entries dropped at capacity.
  std::atomic<int64_t> invalidations_{0};  ///< Clear() calls.
};

}  // namespace ssin

#endif  // SSIN_CORE_INFERENCE_ENGINE_H_
