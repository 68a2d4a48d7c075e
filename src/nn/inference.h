#ifndef SSIN_NN_INFERENCE_H_
#define SSIN_NN_INFERENCE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "nn/module.h"
#include "nn/serving.h"
#include "tensor/tensor.h"

namespace ssin {

/// Reusable activation buffers for one graph-free forward pass.
///
/// The serving chain (nn/serving.h, behind SpaFormer::Predict/PredictF32)
/// evaluates the network without an autograd Graph: no tape nodes, no
/// backward closures, no gradient buffers. Intermediate activations
/// instead come from a bump-allocated Arena, one per element type
/// (arena<double>() for f64 serving, arena<float>() for f32): Acquire()
/// hands out tensors in call order and Reset() rewinds both cursors, so
/// after the first sequence every subsequent forward pass with the same
/// shapes runs allocation-free. The two arenas share no storage, so mixed
/// use of one workspace — e.g. layout embedding in f64, then f32 serving —
/// never aliases across precisions. A workspace is single-threaded by
/// design — batched serving keeps one per thread-pool slot.
class InferenceWorkspace {
 public:
  /// The storage of one element type: arena tensors, the serving kernels'
  /// row tiles, and the attention kernel's per-query scores.
  template <typename T>
  class Arena {
   public:
    /// Next arena tensor, reshaped to `shape` if it does not match.
    /// Contents are unspecified (kernels that accumulate must clear it —
    /// the serving row kernels do). The returned pointer stays valid until
    /// the workspace is destroyed; the *contents* are valid until the next
    /// Reset().
    BasicTensor<T>* Acquire(const std::vector<int>& shape);

    /// Reusable flat scratch for the serving kernels' per-row tiles (FFN
    /// hidden + epilogue temporaries). Grows monotonically, never shrinks;
    /// contents are unspecified. Unlike Acquire there is no cursor — each
    /// encoder layer re-slices the same buffer, which is what keeps the
    /// [L, d_ff] hidden activation out of the arena entirely.
    T* Scratch(size_t n);

    /// Per-query score scratch of the attention kernel; one buffer serves
    /// every layer/head invocation.
    std::vector<T>* scores() { return &scores_; }

    /// Arena slots allocated so far (test hook: steady-state forward
    /// passes must not grow it).
    size_t num_slots() const { return slots_.size(); }

    /// Bytes held by the arena tensors plus the row-kernel scratch.
    size_t bytes() const;

   private:
    friend class InferenceWorkspace;

    // unique_ptr slots: the vector may grow while earlier tensors are
    // still referenced by the caller, so the tensors themselves must not
    // move.
    std::vector<std::unique_ptr<BasicTensor<T>>> slots_;
    size_t cursor_ = 0;
    std::vector<T> scores_;
    std::vector<T> scratch_;
  };

  InferenceWorkspace() = default;
  InferenceWorkspace(const InferenceWorkspace&) = delete;
  InferenceWorkspace& operator=(const InferenceWorkspace&) = delete;

  /// Rewinds both arenas; previously acquired tensors may be handed out
  /// again. Call once at the start of each sequence.
  void Reset() {
    f64_.cursor_ = 0;
    f32_.cursor_ = 0;
  }

  template <typename T>
  Arena<T>& arena() {
    if constexpr (std::is_same_v<T, double>) {
      return f64_;
    } else {
      return f32_;
    }
  }

  /// Storage for the f64 serving view, which SpaFormer::Predict re-resolves
  /// on every call (pointer stores only once the table has its shape).
  ServingWeights<double>* serving_weights() { return &serving_weights_; }

  /// Total bytes of both arenas (telemetry: serve.workspace_arena_bytes
  /// gauges the per-call value, serve.arena_peak_bytes the process peak).
  size_t ArenaBytes() const { return f64_.bytes() + f32_.bytes(); }

 private:
  Arena<double> f64_;
  Arena<float> f32_;
  ServingWeights<double> serving_weights_;
};

/// Float32 serving weights, converted once per weight generation and
/// shared immutably by every f32 forward pass.
///
/// A snapshot narrows every parameter of the served model and resolves the
/// ServingWeights<float> view over those copies when it is built, so the
/// request path reads weights through plain pointers. Like cached
/// SequenceLayouts, a snapshot bakes in the weights it was converted from:
/// the owning interpolator must Clear() on every weight mutation (training,
/// load, parameter copy), and the hit/invalidation counters let tests pin
/// that contract. Cleared snapshots stay alive for in-flight passes via
/// shared_ptr.
class F32WeightCache {
 public:
  struct Snapshot {
    /// Narrowed copy of each parameter; the storage `view` points into.
    std::unordered_map<const Parameter*, TensorF32> tensors;
    ServingWeights<float> view;
  };
  using Map = Snapshot;  ///< The name existing callers use.

  /// The current snapshot, building it from `model` first if none exists
  /// (double-checked under a mutex; safe for concurrent servers). `model`
  /// is the served network: a Module that resolves its serving view via
  /// ResolveServingWeights(const WeightResolver<float>&,
  /// ServingWeights<float>*) — SpaFormer.
  template <typename Model>
  std::shared_ptr<const Snapshot> EnsureFrom(Model* model);

  /// Drops the snapshot (a weight-mutation invalidation).
  void Clear();

  bool empty() const;

  /// Statistics: conversions() counts snapshot builds, invalidations()
  /// counts Clear() calls.
  int64_t conversions() const {
    return conversions_.load(std::memory_order_relaxed);
  }
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const Snapshot> Current() const;
  /// Installs `built` unless a racing build won; returns the installed one.
  std::shared_ptr<const Snapshot> Publish(
      std::shared_ptr<const Snapshot> built);

  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> snapshot_;
  std::atomic<int64_t> conversions_{0};
  std::atomic<int64_t> invalidations_{0};
};

template <typename Model>
std::shared_ptr<const F32WeightCache::Snapshot> F32WeightCache::EnsureFrom(
    Model* model) {
  if (std::shared_ptr<const Snapshot> current = Current()) return current;
  // Convert outside the lock — parameters are stable while serving — then
  // publish; if two threads race, the first build wins and both hold
  // identical values.
  auto built = std::make_shared<Snapshot>();
  for (Parameter* p : model->Parameters()) {
    built->tensors.emplace(p, TensorF32::From(p->value));
  }
  const auto& tensors = built->tensors;
  model->ResolveServingWeights(
      WeightResolver<float>(
          [&tensors](const Parameter* p) { return tensors.at(p).data(); }),
      &built->view);
  return Publish(std::move(built));
}

}  // namespace ssin

#endif  // SSIN_NN_INFERENCE_H_
