#include "nn/inference.h"

namespace ssin {

template <typename T>
BasicTensor<T>* InferenceWorkspace::Arena<T>::Acquire(
    const std::vector<int>& shape) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<BasicTensor<T>>(shape));
  }
  BasicTensor<T>* t = slots_[cursor_++].get();
  if (t->shape() != shape) *t = BasicTensor<T>(shape);
  return t;
}

template <typename T>
T* InferenceWorkspace::Arena<T>::Scratch(size_t n) {
  if (scratch_.size() < n) scratch_.resize(n);
  return scratch_.data();
}

template <typename T>
size_t InferenceWorkspace::Arena<T>::bytes() const {
  size_t bytes = scratch_.size() * sizeof(T);
  for (const auto& slot : slots_) {
    bytes += static_cast<size_t>(slot->numel()) * sizeof(T);
  }
  return bytes;
}

template class InferenceWorkspace::Arena<double>;
template class InferenceWorkspace::Arena<float>;

std::shared_ptr<const F32WeightCache::Snapshot> F32WeightCache::Current()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_;
}

std::shared_ptr<const F32WeightCache::Snapshot> F32WeightCache::Publish(
    std::shared_ptr<const Snapshot> built) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshot_ == nullptr) {
    snapshot_ = std::move(built);
    conversions_.fetch_add(1, std::memory_order_relaxed);
  }
  return snapshot_;
}

void F32WeightCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  snapshot_.reset();
}

bool F32WeightCache::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_ == nullptr;
}

}  // namespace ssin
