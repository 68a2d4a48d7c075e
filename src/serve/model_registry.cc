#include "serve/model_registry.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"

namespace ssin {
namespace serve {

namespace {

telemetry::Counter* HotSwapsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.hot_swaps_total");
  return counter;
}

}  // namespace

void ModelRegistry::Register(const std::string& name,
                             std::shared_ptr<SsinInterpolator> active,
                             std::shared_ptr<SsinInterpolator> standby) {
  SSIN_CHECK(active != nullptr && standby != nullptr);
  SSIN_CHECK(active.get() != standby.get())
      << "active and standby must be distinct instances";
  auto entry = std::make_shared<Entry>();
  entry->active.model = std::move(active);
  entry->standby.model = std::move(standby);
  std::lock_guard<std::mutex> lock(map_mu_);
  entries_[name] = std::move(entry);
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<SsinInterpolator> ModelRegistry::Acquire(
    const std::string& name) const {
  std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->state_mu);
  // Pin the buffer the caller is about to read. The pin outlives the
  // state_mu hold: it is released — with release ordering — by the deleter
  // of the aliased shared_ptr below, when the caller drops its last copy.
  // Promote()'s acquire-load of pins == 0 therefore happens-after the
  // caller's final access to the weights.
  std::shared_ptr<std::atomic<int64_t>> pins = entry->active.pins;
  pins->fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<SsinInterpolator> inner = entry->active.model;
  SsinInterpolator* raw = inner.get();
  return std::shared_ptr<SsinInterpolator>(
      raw, [inner = std::move(inner),
            pins = std::move(pins)](SsinInterpolator*) mutable {
        pins->fetch_sub(1, std::memory_order_release);
        inner.reset();
      });
}

bool ModelRegistry::Promote(const std::string& name,
                            SsinInterpolator& source) {
  std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) return false;
  // One promotion at a time per model; the state_mu is never held across
  // the weight copy, so Acquire() stays non-blocking throughout.
  std::lock_guard<std::mutex> promote_lock(entry->promote_mu);
  Buffer standby;
  {
    std::lock_guard<std::mutex> lock(entry->state_mu);
    standby = entry->standby;
  }
  // Reject a mismatched source before the first write: a failed promotion
  // leaves both buffers and promotions() untouched. Only shapes are read,
  // which in-flight readers of the standby never change.
  if (!standby.model->CanCopyParametersFrom(source)) return false;
  // The standby was the active model two promotions ago, and a batch
  // dispatched back then may still hold it — copying weights under a
  // reader would race. Acquire() only ever pins `active` (under state_mu,
  // so never after the swap below made this buffer standby again), so no
  // *new* pin on the standby can appear; an acquire-load of zero pins
  // synchronizes with the last reader's release-decrement, ordering its
  // final weight reads before our writes. (shared_ptr::use_count() is a
  // relaxed load and would order nothing.)
  while (standby.pins->load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // CopyParametersFrom invalidates the standby's serving caches (layouts,
  // f32 weight snapshots, arena peak), so post-swap requests rebuild
  // everything from the promoted weights.
  standby.model->CopyParametersFrom(source);
  {
    std::lock_guard<std::mutex> lock(entry->state_mu);
    std::swap(entry->active, entry->standby);
  }
  promotions_.fetch_add(1, std::memory_order_relaxed);
  HotSwapsCounter()->Add(1);
  return true;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace ssin
