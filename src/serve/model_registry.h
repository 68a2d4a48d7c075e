#ifndef SSIN_SERVE_MODEL_REGISTRY_H_
#define SSIN_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ssin_interpolator.h"

namespace ssin {
namespace serve {

/// Registry of resident models (e.g. "hk" / "bw" / "traffic"), each
/// double-buffered for zero-drop hot-swap.
///
/// Every named entry holds two prepared SsinInterpolators: the *active*
/// one serves traffic, the *standby* one absorbs the next weight
/// promotion. Promote() copies the source's weights into the standby
/// (CopyParametersFrom invalidates its serving caches — layouts, f32
/// snapshots, arena peak — so nothing stale survives), then swaps the two
/// shared_ptrs. A batch dispatched before the swap keeps its shared_ptr to
/// the old active and finishes on the old weights; every Acquire() after
/// the swap sees the new ones. No request is ever dropped or served by a
/// half-updated model.
class ModelRegistry {
 public:
  /// Registers a double-buffered model under `name` (replacing any
  /// previous registration). Both interpolators must be Fit()/Prepare()d
  /// with the same architecture and station network; `standby`'s weights
  /// are irrelevant until the first Promote() overwrites them.
  void Register(const std::string& name,
                std::shared_ptr<SsinInterpolator> active,
                std::shared_ptr<SsinInterpolator> standby);

  /// The serving instance for `name`, or nullptr when unknown. The caller
  /// holds the shared_ptr for the duration of one dispatch; that reference
  /// is exactly what lets in-flight batches finish on pre-swap weights.
  /// (The returned pointer carries a pin on the buffer it references —
  /// released with release ordering when the last copy dies — which is how
  /// Promote() knows when in-flight readers have drained.)
  std::shared_ptr<SsinInterpolator> Acquire(const std::string& name) const;

  /// Zero-drop hot-swap: copies `source`'s weights into `name`'s standby
  /// buffer and promotes it to active. Waits (bounded spin) until no
  /// in-flight dispatch still reads the standby from a promotion two swaps
  /// ago before touching its weights. Returns false — touching neither
  /// buffer nor promotions() — for an unknown name or a `source` whose
  /// architecture differs from the registered model's (or that is not
  /// prepared). `source` must be quiescent (not training) for the duration
  /// of the call. Concurrent promotions of the same model serialize.
  bool Promote(const std::string& name, SsinInterpolator& source);

  std::vector<std::string> Names() const;

  /// Completed promotions across all models (also mirrored into the
  /// process-wide `serve.hot_swaps_total` counter).
  int64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }

 private:
  /// One serving buffer: the interpolator plus its pin count. Acquire()
  /// increments `pins` before handing out a reference and the returned
  /// shared_ptr's deleter decrements it with release ordering when the
  /// last copy dies; Promote() spin-reads it with acquire ordering, so
  /// observing pins == 0 happens-after every in-flight reader's last
  /// access to the weights. (shared_ptr::use_count() would not do: it is
  /// a relaxed load, which orders nothing.)
  struct Buffer {
    std::shared_ptr<SsinInterpolator> model;
    std::shared_ptr<std::atomic<int64_t>> pins =
        std::make_shared<std::atomic<int64_t>>(0);
  };

  /// One double-buffered model. `state_mu` guards the two buffers (held
  /// only for reads/swaps, never across a weight copy); `promote_mu`
  /// serializes whole promotions.
  struct Entry {
    std::mutex state_mu;
    std::mutex promote_mu;
    Buffer active;
    Buffer standby;
  };

  std::shared_ptr<Entry> FindEntry(const std::string& name) const;

  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::atomic<int64_t> promotions_{0};
};

}  // namespace serve
}  // namespace ssin

#endif  // SSIN_SERVE_MODEL_REGISTRY_H_
