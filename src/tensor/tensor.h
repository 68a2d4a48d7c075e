#ifndef SSIN_TENSOR_TENSOR_H_
#define SSIN_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ssin {

/// Dense row-major tensor with value semantics, templated on the element
/// type.
///
/// This is the numeric currency of the from-scratch deep-learning substrate
/// (the stand-in for the paper's PyTorch tensors). Shapes are dynamic; rank
/// is typically 1 or 2 — batching in SSIN is a loop over sequences, which is
/// the right call on a single-core host and keeps every op two-dimensional.
///
/// `Tensor` (double) carries training, autograd and f64 serving.
/// `TensorF32` (float) exists only for the float32 serving mode: its values
/// are always narrowed from trained f64 tensors (From), never produced
/// independently.
template <typename T>
class BasicTensor {
 public:
  BasicTensor() = default;

  /// A tensor of the given shape, filled with `fill`.
  explicit BasicTensor(std::vector<int> shape, T fill = T(0))
      : shape_(std::move(shape)) {
    data_.assign(static_cast<size_t>(Numel(shape_)), fill);
  }

  /// A tensor wrapping existing data (size must match the shape product).
  BasicTensor(std::vector<int> shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    SSIN_CHECK_EQ(static_cast<size_t>(Numel(shape_)), data_.size());
  }

  /// Element-wise converting copy (round-to-nearest when narrowing).
  template <typename U>
  static BasicTensor From(const BasicTensor<U>& t) {
    BasicTensor out;
    out.shape_ = t.shape();
    out.data_.resize(static_cast<size_t>(t.numel()));
    const U* src = t.data();
    for (size_t i = 0; i < out.data_.size(); ++i) {
      out.data_[i] = static_cast<T>(src[i]);
    }
    return out;
  }

  /// A rank-0-like scalar stored as shape {1}.
  static BasicTensor Scalar(T v) { return BasicTensor({1}, {v}); }

  /// I.i.d. normal entries, N(0, stddev^2).
  static BasicTensor Randn(std::vector<int> shape, Rng* rng,
                           double stddev = 1.0);

  /// I.i.d. uniform entries in [lo, hi).
  static BasicTensor RandUniform(std::vector<int> shape, Rng* rng, double lo,
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

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](int64_t i) {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  T operator[](int64_t i) const {
    SSIN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-D accessors (tensor must be rank 2).
  T& At(int r, int c) {
    SSIN_DCHECK(rank() == 2);
    SSIN_DCHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1]);
    return data_[static_cast<size_t>(r) * shape_[1] + c];
  }
  T At(int r, int c) const {
    return const_cast<BasicTensor*>(this)->At(r, c);
  }

  bool SameShape(const BasicTensor& other) const {
    return shape_ == other.shape_;
  }

  void Fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Elementwise in-place accumulate: *this += other.
  void Accumulate(const BasicTensor& other) {
    SSIN_CHECK(SameShape(other));
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }

  /// "2x3 [...]" debug string.
  std::string ShapeString() const;

 private:
  std::vector<int> shape_;
  std::vector<T> data_;
};

using Tensor = BasicTensor<double>;
using TensorF32 = BasicTensor<float>;


}  // namespace ssin

#endif  // SSIN_TENSOR_TENSOR_H_
