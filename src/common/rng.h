#ifndef SSIN_COMMON_RNG_H_
#define SSIN_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace ssin {

/// Deterministic random number generator used throughout the library.
///
/// Wraps std::mt19937_64 with convenience samplers. Every stochastic
/// component (data generation, masking, weight init, subgraph sampling)
/// receives an explicit Rng so experiments are reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5371a9e2ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SSIN_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled to N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential with the given rate parameter.
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Gamma(shape, scale); used for skewed rainfall intensities.
  double Gamma(double shape, double scale) {
    return std::gamma_distribution<double>(shape, scale)(engine_);
  }

  /// Bernoulli trial.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// A uniformly random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n) {
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    Shuffle(&perm);
    return perm;
  }

  /// Fisher-Yates shuffle in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[UniformInt(0, i)]);
    }
  }

  /// Samples k distinct indices from {0, ..., n-1} (k <= n).
  std::vector<int> SampleWithoutReplacement(int n, int k) {
    SSIN_CHECK_LE(k, n);
    std::vector<int> perm = Permutation(n);
    perm.resize(k);
    return perm;
  }

  /// The engine state as text (std::mt19937_64 stream format), so training
  /// checkpoints can resume the exact random stream.
  std::string SerializeState() const {
    std::ostringstream out;
    out << engine_;
    return out.str();
  }

  /// Restores a state produced by SerializeState(). Returns false — with
  /// the engine untouched — when the string does not parse as an
  /// mt19937_64 state.
  bool RestoreState(const std::string& state) {
    std::istringstream in(state);
    std::mt19937_64 engine;
    in >> engine;
    if (in.fail()) return false;
    engine_ = engine;
    return true;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ssin

#endif  // SSIN_COMMON_RNG_H_
