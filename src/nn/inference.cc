#include "nn/inference.h"

namespace ssin {

size_t InferenceWorkspace::ArenaBytes() const {
  size_t bytes = 0;
  for (const auto& slot : slots_) {
    bytes += static_cast<size_t>(slot->numel()) * sizeof(double);
  }
  for (const auto& slot : f32_slots_) {
    bytes += static_cast<size_t>(slot->numel()) * sizeof(float);
  }
  bytes += scratch_f64_.size() * sizeof(double);
  bytes += scratch_f32_.size() * sizeof(float);
  return bytes;
}

double* InferenceWorkspace::ScratchF64(size_t n) {
  if (scratch_f64_.size() < n) scratch_f64_.resize(n);
  return scratch_f64_.data();
}

float* InferenceWorkspace::ScratchF32(size_t n) {
  if (scratch_f32_.size() < n) scratch_f32_.resize(n);
  return scratch_f32_.data();
}

Tensor* InferenceWorkspace::Acquire(const std::vector<int>& shape) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>(shape));
  }
  Tensor* t = slots_[cursor_++].get();
  if (t->shape() != shape) *t = Tensor(shape);
  return t;
}

TensorF32* InferenceWorkspace::AcquireF32(const std::vector<int>& shape) {
  if (f32_cursor_ == f32_slots_.size()) {
    f32_slots_.push_back(std::make_unique<TensorF32>(shape));
  }
  TensorF32* t = f32_slots_[f32_cursor_++].get();
  if (t->shape() != shape) *t = TensorF32(shape);
  return t;
}

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
