#ifndef SSIN_TENSOR_TENSOR_H_
#define SSIN_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ssin {

/// Dense row-major tensor of doubles with value semantics.
///
/// This is the numeric currency of the from-scratch deep-learning substrate
/// (the stand-in for the paper's PyTorch tensors). Shapes are dynamic; rank
/// is typically 1 or 2 — batching in SSIN is a loop over sequences, which is
/// the right call on a single-core host and keeps every op two-dimensional.
class Tensor {
 public:
  Tensor() = default;

  /// A tensor of the given shape, filled with `fill`.
  explicit Tensor(std::vector<int> shape, double fill = 0.0)
      : shape_(std::move(shape)) {
    data_.assign(static_cast<size_t>(Numel(shape_)), fill);
  }

  /// A tensor wrapping existing data (size must match the shape product).
  Tensor(std::vector<int> shape, std::vector<double> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    SSIN_CHECK_EQ(static_cast<size_t>(Numel(shape_)), data_.size());
  }

  /// A rank-0-like scalar stored as shape {1}.
  static Tensor Scalar(double v) { return Tensor({1}, {v}); }

  /// I.i.d. normal entries, N(0, stddev^2).
  static Tensor Randn(std::vector<int> shape, Rng* rng, double stddev = 1.0);

  /// I.i.d. uniform entries in [lo, hi).
  static Tensor RandUniform(std::vector<int> shape, Rng* rng, double lo,
                            double hi);

  static int64_t Numel(const std::vector<int>& shape) {
    int64_t n = 1;
    for (int d : shape) {
      SSIN_CHECK_GE(d, 0);
      n *= d;
    }
    return n;
  }

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const {
    SSIN_DCHECK(i >= 0 && i < rank());
    return shape_[i];
  }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& operator[](int64_t i) {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  double operator[](int64_t i) const {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-D accessors (tensor must be rank 2).
  double& At(int r, int c) {
    SSIN_DCHECK(rank() == 2);
    SSIN_DCHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r) * shape_[1] + c];
  }
  double At(int r, int c) const {
    return const_cast<Tensor*>(this)->At(r, c);
  }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Elementwise in-place accumulate: *this += other.
  void Accumulate(const Tensor& other) {
    SSIN_CHECK(SameShape(other));
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }

  /// "2x3 [...]" debug string.
  std::string ShapeString() const;

 private:
  std::vector<int> shape_;
  std::vector<double> data_;
};

/// Minimal float32 sibling of Tensor, used only by the float32 serving
/// mode of the inference engine (converted weights, pre-embedded
/// positions, and activation workspaces). It deliberately has no autograd
/// hooks and no random initializers: f32 values are always *converted*
/// from trained f64 tensors, never produced independently.
class TensorF32 {
 public:
  TensorF32() = default;

  explicit TensorF32(std::vector<int> shape, float fill = 0.0f)
      : shape_(std::move(shape)) {
    data_.assign(static_cast<size_t>(Tensor::Numel(shape_)), fill);
  }

  /// Narrowing copy of an f64 tensor (round-to-nearest per element).
  static TensorF32 FromTensor(const Tensor& t) {
    TensorF32 out;
    out.shape_ = t.shape();
    out.data_.resize(static_cast<size_t>(t.numel()));
    const double* src = t.data();
    for (size_t i = 0; i < out.data_.size(); ++i) {
      out.data_[i] = static_cast<float>(src[i]);
    }
    return out;
  }

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int dim(int i) const {
    SSIN_DCHECK(i >= 0 && i < rank());
    return shape_[i];
  }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](int64_t i) {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  bool SameShape(const TensorF32& other) const {
    return shape_ == other.shape_;
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

}  // namespace ssin

#endif  // SSIN_TENSOR_TENSOR_H_
