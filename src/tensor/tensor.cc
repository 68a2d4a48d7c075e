#include "tensor/tensor.h"

#include <sstream>

namespace ssin {

template <typename T>
BasicTensor<T> BasicTensor<T>::Randn(std::vector<int> shape, Rng* rng,
                                     double stddev) {
  BasicTensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<T>(rng->Normal(0.0, stddev));
  }
  return t;
}

template <typename T>
BasicTensor<T> BasicTensor<T>::RandUniform(std::vector<int> shape, Rng* rng,
                                           double lo, double hi) {
  BasicTensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<T>(rng->Uniform(lo, hi));
  }
  return t;
}

template <typename T>
std::string BasicTensor<T>::ShapeString() const {
  std::ostringstream out;
  out << '[';
  for (int i = 0; i < rank(); ++i) {
    if (i > 0) out << 'x';
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

// tensor.h declares no extern template: one would change how the accessors
// inline into the ops' loops, and with that the last bits of trained weights.
template class BasicTensor<double>;
template class BasicTensor<float>;

}  // namespace ssin
