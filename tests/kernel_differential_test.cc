// Differential tests for the SIMD kernels (common/simd.h) and the serving
// row kernels (nn/serving_kernels.h): every vectorized kernel is pinned
// against the sequential simd::ScalarOps reference over randomized
// shape/sparsity sweeps.
//
// Tolerances. The vectorized f64 kernels reassociate reductions
// (vector-lane partial sums), so they are not bit-identical to the
// sequential reference; the error budget is 1e-12 scaled by the output
// magnitude. The f32 kernels get 1e-5 scaled — float has ~1.2e-7 ULP and
// the longest reductions here accumulate a few hundred terms. Both
// policies are deterministic, so the row-split tests demand bit-equality:
// splitting the row range must not change a single bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/simd.h"
#include "nn/serving_kernels.h"
#include "tensor/attention_kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/kernel_test_util.h"

namespace ssin {
namespace {

using kernel_testing::BitEqual;
using kernel_testing::MaxAbsDiff;
using kernel_testing::RandomVector;
using kernel_testing::ScaledTol;
using kernel_testing::SweepDims;

constexpr double kF64Tol = 1e-12;
constexpr double kF32Tol = 1e-5;

template <typename T>
double PolicyTol() {
  return std::is_same<T, float>::value ? kF32Tol : kF64Tol;
}

#if defined(SSIN_SIMD_DISABLED)
// -DSSIN_SIMD=OFF promises the reference arithmetic in production: VecOps
// is ScalarOps itself, so every sweep below compares the policy with itself.
TEST(KernelDifferentialTest, SimdOffBuildRunsScalarOps) {
  static_assert(std::is_same_v<simd::VecOps, simd::ScalarOps>);
  EXPECT_STREQ(simd::IsaName(), "scalar");
}
#endif

// ---------------------------------------------------------------------------
// Matmul family: out += a*b, out += dc*b^T, out += a^T*dc.

template <typename T>
void CheckMatMulAccOnce(int m, int k, int n, double sparsity, Rng* rng) {
  const std::vector<T> a = RandomVector<T>(int64_t{m} * k, rng, sparsity);
  const std::vector<T> b = RandomVector<T>(int64_t{k} * n, rng, sparsity);
  // Non-zero initial out: the kernels accumulate.
  const std::vector<T> init = RandomVector<T>(int64_t{m} * n, rng);

  std::vector<T> scalar = init;
  simd::MatMulAccRows<T, simd::ScalarOps>(a.data(), b.data(), scalar.data(),
                                          k, n, 0, m);
  std::vector<T> vec = init;
  simd::MatMulAccRows<T, simd::VecOps>(a.data(), b.data(), vec.data(), k, n,
                                       0, m);
  EXPECT_LE(MaxAbsDiff(scalar, vec), ScaledTol(scalar, PolicyTol<T>()))
      << m << "x" << k << "x" << n;

  // Row-split determinism: computing [0,split) and [split,m) separately
  // must be bit-identical to one pass.
  if (m > 1) {
    const int split = m / 2;
    std::vector<T> split_out = init;
    simd::MatMulAccRows<T, simd::VecOps>(a.data(), b.data(),
                                         split_out.data(), k, n, 0, split);
    simd::MatMulAccRows<T, simd::VecOps>(a.data(), b.data(),
                                         split_out.data(), k, n, split, m);
    EXPECT_TRUE(BitEqual(vec, split_out));
  }
}

template <typename T>
void CheckMatMulAccBtOnce(int m, int n, int k, double sparsity, Rng* rng) {
  const std::vector<T> dc = RandomVector<T>(int64_t{m} * n, rng, sparsity);
  const std::vector<T> b = RandomVector<T>(int64_t{k} * n, rng, sparsity);
  const std::vector<T> init = RandomVector<T>(int64_t{m} * k, rng);

  std::vector<T> scalar = init;
  simd::MatMulAccBtRows<T, simd::ScalarOps>(dc.data(), b.data(),
                                            scalar.data(), n, k, 0, m);
  std::vector<T> vec = init;
  simd::MatMulAccBtRows<T, simd::VecOps>(dc.data(), b.data(), vec.data(), n,
                                         k, 0, m);
  EXPECT_LE(MaxAbsDiff(scalar, vec), ScaledTol(scalar, PolicyTol<T>()))
      << m << "x" << n << "x" << k;

  if (m > 1) {
    const int split = m / 2;
    std::vector<T> split_out = init;
    simd::MatMulAccBtRows<T, simd::VecOps>(dc.data(), b.data(),
                                           split_out.data(), n, k, 0, split);
    simd::MatMulAccBtRows<T, simd::VecOps>(dc.data(), b.data(),
                                           split_out.data(), n, k, split, m);
    EXPECT_TRUE(BitEqual(vec, split_out));
  }
}

template <typename T>
void CheckMatMulAccAtOnce(int m, int k, int n, double sparsity, Rng* rng) {
  const std::vector<T> a = RandomVector<T>(int64_t{m} * k, rng, sparsity);
  const std::vector<T> dc = RandomVector<T>(int64_t{m} * n, rng, sparsity);
  const std::vector<T> init = RandomVector<T>(int64_t{k} * n, rng);

  std::vector<T> scalar = init;
  simd::MatMulAccAtCols<T, simd::ScalarOps>(a.data(), dc.data(),
                                            scalar.data(), m, k, n, 0, k);
  std::vector<T> vec = init;
  simd::MatMulAccAtCols<T, simd::VecOps>(a.data(), dc.data(), vec.data(), m,
                                         k, n, 0, k);
  EXPECT_LE(MaxAbsDiff(scalar, vec), ScaledTol(scalar, PolicyTol<T>()))
      << m << "x" << k << "x" << n;

  // This kernel splits over *output* rows p (the k dimension).
  if (k > 1) {
    const int split = k / 2;
    std::vector<T> split_out = init;
    simd::MatMulAccAtCols<T, simd::VecOps>(a.data(), dc.data(),
                                           split_out.data(), m, k, n, 0,
                                           split);
    simd::MatMulAccAtCols<T, simd::VecOps>(a.data(), dc.data(),
                                           split_out.data(), m, k, n, split,
                                           k);
    EXPECT_TRUE(BitEqual(vec, split_out));
  }
}

template <typename T>
void RunMatMulSweep(double sparsity, uint64_t seed) {
  Rng rng(seed);
  for (int m : SweepDims()) {
    for (int k : {1, 3, 4, 7, 16}) {
      for (int n : {1, 5, 8, 17}) {
        CheckMatMulAccOnce<T>(m, k, n, sparsity, &rng);
        CheckMatMulAccBtOnce<T>(m, n, k, sparsity, &rng);
        CheckMatMulAccAtOnce<T>(m, k, n, sparsity, &rng);
      }
    }
  }
}

TEST(KernelDifferentialTest, MatMulFamilyDenseF64) {
  RunMatMulSweep<double>(/*sparsity=*/0.0, /*seed=*/0xA1);
}

TEST(KernelDifferentialTest, MatMulFamilySparseF64) {
  // Sparse operands: exact zeros inside the unrolled Axpy4 groups.
  RunMatMulSweep<double>(/*sparsity=*/0.6, /*seed=*/0xA2);
}

TEST(KernelDifferentialTest, MatMulFamilyDenseF32) {
  RunMatMulSweep<float>(/*sparsity=*/0.0, /*seed=*/0xA3);
}

TEST(KernelDifferentialTest, MatMulFamilySparseF32) {
  RunMatMulSweep<float>(/*sparsity=*/0.6, /*seed=*/0xA4);
}

// Property/fuzz sweep: fully randomized shapes and sparsity, including
// degenerate (empty / single-row) operands.
TEST(KernelDifferentialTest, RandomizedShapeFuzz) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 60; ++trial) {
    const int m = static_cast<int>(rng.UniformInt(0, 40));
    const int k = static_cast<int>(rng.UniformInt(0, 40));
    const int n = static_cast<int>(rng.UniformInt(0, 40));
    const double sparsity = rng.Uniform(0.0, 0.95);
    CheckMatMulAccOnce<double>(m, k, n, sparsity, &rng);
    CheckMatMulAccBtOnce<double>(m, n, k, sparsity, &rng);
    CheckMatMulAccAtOnce<double>(m, k, n, sparsity, &rng);
    CheckMatMulAccOnce<float>(m, k, n, sparsity, &rng);
  }
}

// Tensor-level entry point: MatMulInto (the forward product behind MatMul)
// against the ScalarOps composition it replaces — zero the output, then
// accumulate a*b row by row with the sequential primitives.
TEST(KernelDifferentialTest, MatMulIntoMatchesScalarOpsComposition) {
  Rng rng(0xBEEF);
  for (const auto& dims : std::vector<std::vector<int>>{
           {1, 1, 1}, {5, 3, 7}, {33, 17, 9}, {96, 64, 80}}) {
    const int m = dims[0], k = dims[1], n = dims[2];
    Tensor a({m, k}, RandomVector<double>(int64_t{m} * k, &rng, 0.3));
    Tensor b({k, n}, RandomVector<double>(int64_t{k} * n, &rng, 0.3));
    Tensor out;
    MatMulInto(a, b, &out);
    ASSERT_EQ(out.dim(0), m);
    ASSERT_EQ(out.dim(1), n);

    std::vector<double> ref(static_cast<size_t>(m) * n, 0.0);
    simd::MatMulAccRows<double, simd::ScalarOps>(a.data(), b.data(),
                                                 ref.data(), k, n, 0, m);
    const std::vector<double> got(out.data(), out.data() + out.numel());
    EXPECT_LE(MaxAbsDiff(ref, got), ScaledTol(ref, kF64Tol))
        << m << "x" << k << "x" << n;

    // A reused output tensor is zeroed, not accumulated into.
    MatMulInto(a, b, &out);
    EXPECT_TRUE(BitEqual(got, std::vector<double>(
                                  out.data(), out.data() + out.numel())));
  }
}

// ---------------------------------------------------------------------------
// LayerNorm.

template <typename T>
void CheckLayerNormOnce(int m, int n, Rng* rng) {
  const std::vector<T> x = RandomVector<T>(int64_t{m} * n, rng);
  const std::vector<T> gamma = RandomVector<T>(n, rng);
  const std::vector<T> beta = RandomVector<T>(n, rng);
  const T eps = static_cast<T>(1e-5);

  std::vector<T> ref_out(x.size()), ref_xhat(x.size());
  std::vector<T> ref_istd(static_cast<size_t>(m));
  simd::LayerNormRows<T, simd::ScalarOps>(x.data(), gamma.data(), beta.data(),
                                          eps, m, n, ref_out.data(),
                                          ref_xhat.data(), ref_istd.data());

  std::vector<T> vec_out(x.size()), vec_xhat(x.size());
  std::vector<T> vec_istd(static_cast<size_t>(m));
  simd::LayerNormRows<T, simd::VecOps>(x.data(), gamma.data(), beta.data(),
                                       eps, m, n, vec_out.data(),
                                       vec_xhat.data(), vec_istd.data());

  const double tol = ScaledTol(ref_out, PolicyTol<T>());
  EXPECT_LE(MaxAbsDiff(ref_out, vec_out), tol) << m << "x" << n;
  EXPECT_LE(MaxAbsDiff(ref_xhat, vec_xhat),
            ScaledTol(ref_xhat, PolicyTol<T>()));
  EXPECT_LE(MaxAbsDiff(ref_istd, vec_istd),
            ScaledTol(ref_istd, PolicyTol<T>()));

  // The stats-free variant (serving: xhat/inv_std null) must produce the
  // same output as the stats-saving one.
  std::vector<T> bare(x.size());
  simd::LayerNormRows<T, simd::VecOps>(x.data(), gamma.data(), beta.data(),
                                       eps, m, n, bare.data(), nullptr,
                                       nullptr);
  EXPECT_TRUE(BitEqual(bare, vec_out));
}

TEST(KernelDifferentialTest, LayerNormSweep) {
  Rng rng(0xC0);
  for (int m : {0, 1, 2, 5, 16, 33}) {
    for (int n : {1, 3, 4, 7, 8, 16, 17, 256}) {
      CheckLayerNormOnce<double>(m, n, &rng);
      CheckLayerNormOnce<float>(m, n, &rng);
    }
  }
}

// ---------------------------------------------------------------------------
// Softmax exp. VecOps::ExpShifted is its own polynomial, not ScalarOps'
// expression, so both policies are pinned against std::exp itself.

/// exp() of any argument at or below this is exactly 0: it lies below the
/// log of half the smallest subnormal.
template <typename T>
T ExpZeroBelow() {
  return std::is_same<T, float>::value ? T(-104) : T(-745.2);
}

/// Distance in units in the last place between two non-negative values:
/// consecutive non-negative floats have consecutive bit patterns, the
/// subnormals included.
template <typename T>
int64_t UlpDistance(T a, T b) {
  using Bits = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
  const int64_t ia = static_cast<int64_t>(std::bit_cast<Bits>(a));
  const int64_t ib = static_cast<int64_t>(std::bit_cast<Bits>(b));
  return ia > ib ? ia - ib : ib - ia;
}

/// Runs both policies over x[0, x.size() - 1) with the given shift and
/// checks every element against std::exp(x[i] - shift): ScalarOps bit for
/// bit, VecOps within 1 ulp; NaN stays NaN and arguments at or below
/// ExpZeroBelow() give exactly 0. The last element is a guard neither
/// policy may write.
template <typename T>
void CheckExpShifted(const std::vector<T>& x, T shift) {
  ASSERT_FALSE(x.empty());
  const int n = static_cast<int>(x.size()) - 1;
  std::vector<T> scalar = x;
  std::vector<T> vec = x;
  simd::ScalarOps::ExpShifted(scalar.data(), shift, n);
  simd::VecOps::ExpShifted(vec.data(), shift, n);
  EXPECT_EQ(scalar.back(), x.back());
  EXPECT_EQ(vec.back(), x.back());

  int scalar_mismatches = 0, vec_mismatches = 0;
  int64_t worst_ulps = 0;
  T worst_arg = 0;
  for (int i = 0; i < n; ++i) {
    const T arg = x[i] - shift;
    const T want = std::exp(arg);
    if (std::isnan(want)) {
      scalar_mismatches += !std::isnan(scalar[i]);
      vec_mismatches += !std::isnan(vec[i]);
      continue;
    }
    scalar_mismatches += UlpDistance(scalar[i], want) != 0;
    if (std::isnan(vec[i]) || (arg <= ExpZeroBelow<T>() && vec[i] != T(0))) {
      ++vec_mismatches;
      continue;
    }
    const int64_t ulps = UlpDistance(vec[i], want);
    if (ulps > worst_ulps) {
      worst_ulps = ulps;
      worst_arg = arg;
    }
  }
  EXPECT_EQ(scalar_mismatches, 0) << "n=" << n << " shift=" << shift;
  EXPECT_EQ(vec_mismatches, 0) << "n=" << n << " shift=" << shift;
  EXPECT_LE(worst_ulps, 1) << "exp(" << worst_arg << ") n=" << n;
}

template <typename T>
void RunExpShiftedSweep(uint64_t seed) {
  Rng rng(seed);
  const T lo = ExpZeroBelow<T>();
  const T guard = T(12345);

  // Every length from 0 to 40 (every vector body and tail length), a
  // non-zero shift, and the special arguments spread over bodies and tails.
  const T shift = T(2.5);
  const std::vector<T> specials = {
      -std::numeric_limits<T>::infinity(),
      std::numeric_limits<T>::quiet_NaN(),
      T(0),
      lo,
      lo - T(1),
      T(-1000),
      std::numeric_limits<T>::lowest()};
  for (int n = 0; n <= 40; ++n) {
    std::vector<T> x(static_cast<size_t>(n) + 1, guard);
    for (int i = 0; i < n; ++i) {
      x[i] = i % 5 == 2
                 ? shift + specials[(i / 5 + n) % specials.size()]
                 : shift + static_cast<T>(rng.Uniform(lo, 0.0));
    }
    CheckExpShifted(x, shift);
  }

  // A dense grid plus random draws over [lo, 0], the subnormal band
  // included.
  constexpr int kGrid = 100000;
  std::vector<T> x;
  for (int i = 0; i <= kGrid; ++i) x.push_back(lo * T(i) / T(kGrid));
  for (int i = 0; i < kGrid; ++i) {
    x.push_back(static_cast<T>(rng.Uniform(lo, 0.0)));
  }
  x.push_back(guard);
  CheckExpShifted(x, T(0));
}

TEST(KernelDifferentialTest, ExpShiftedMatchesStdExp) {
  RunExpShiftedSweep<double>(0xE7);
  RunExpShiftedSweep<float>(0xE8);
}

// ---------------------------------------------------------------------------
// Packed attention forward.

template <typename T>
void CheckAttentionOnce(int length, int num_observed, int d, bool shielded,
                        bool use_srpe, Rng* rng) {
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < num_observed; ++i) observed[i] = 1;
  AttentionPlan plan;
  BuildAttentionPlan(observed, shielded, &plan);
  const int64_t num_pairs = plan.num_pairs();

  const std::vector<T> q = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> k = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> v = RandomVector<T>(int64_t{length} * d, rng);
  std::vector<T> c;
  if (use_srpe) c = RandomVector<T>(num_pairs * d, rng);
  const T* c_ptr = use_srpe ? c.data() : nullptr;

  std::vector<T> scores;
  std::vector<T> ref_alpha(static_cast<size_t>(num_pairs), T(0));
  std::vector<T> ref_z(static_cast<size_t>(length) * d);
  PackedAttentionForwardRows<T, simd::ScalarOps>(
      q.data(), k.data(), v.data(), c_ptr, plan, d, /*tail_begin=*/0, &scores,
      ref_alpha.data(), ref_z.data());

  std::vector<T> vec_alpha(static_cast<size_t>(num_pairs), T(0));
  std::vector<T> vec_z(static_cast<size_t>(length) * d);
  PackedAttentionForwardRows<T, simd::VecOps>(
      q.data(), k.data(), v.data(), c_ptr, plan, d, /*tail_begin=*/0, &scores,
      vec_alpha.data(), vec_z.data());

  EXPECT_LE(MaxAbsDiff(ref_z, vec_z), ScaledTol(ref_z, PolicyTol<T>()))
      << "L=" << length << " m=" << num_observed << " d=" << d
      << " shielded=" << shielded << " srpe=" << use_srpe;
  EXPECT_LE(MaxAbsDiff(ref_alpha, vec_alpha),
            ScaledTol(ref_alpha, PolicyTol<T>()));

  // Tail kernel: rows [tail_begin, L) must be bit-identical to the same
  // rows of the full kernel (same per-query arithmetic, shifted q rows).
  const int tail_begin = num_observed;
  const int num_queries = length - tail_begin;
  if (num_queries > 0) {
    std::vector<T> tail_z(static_cast<size_t>(num_queries) * d);
    PackedAttentionForwardRows<T, simd::VecOps>(
        q.data() + static_cast<int64_t>(tail_begin) * d, k.data(), v.data(),
        c_ptr, plan, d, tail_begin, &scores,
        /*alpha_out=*/nullptr, tail_z.data());
    EXPECT_EQ(0, std::memcmp(tail_z.data(),
                             vec_z.data() + static_cast<int64_t>(tail_begin) *
                                                d,
                             tail_z.size() * sizeof(T)));
  }
}

TEST(KernelDifferentialTest, AttentionSweep) {
  Rng rng(0xD1);
  for (int length : {1, 2, 5, 23}) {
    for (int num_observed : {0, 1, length / 2, length}) {
      for (int d : {1, 3, 8, 16}) {
        for (bool shielded : {true, false}) {
          for (bool use_srpe : {true, false}) {
            CheckAttentionOnce<double>(length, num_observed, d, shielded,
                                       use_srpe, &rng);
            CheckAttentionOnce<float>(length, num_observed, d, shielded,
                                      use_srpe, &rng);
          }
        }
      }
    }
  }
}

// Paper-config shape (L=123, m=113, d_k=16) — the exact hot-path geometry
// the benches measure.
TEST(KernelDifferentialTest, AttentionPaperConfig) {
  Rng rng(0xD2);
  CheckAttentionOnce<double>(123, 113, 16, /*shielded=*/true,
                             /*use_srpe=*/true, &rng);
  CheckAttentionOnce<float>(123, 113, 16, /*shielded=*/true,
                            /*use_srpe=*/true, &rng);
}

// Large logits: each query row of q is scaled so that the query's score
// spread is at least 2 * |ExpZeroBelow()|, so its lowest-scoring keys get
// weights of exactly 0. q, k and c are multiples of 1/4 in [-2, 2] and the
// scales are powers of two, so every dot product is exact and the scores
// are the same under both policies: the comparison isolates the exp and
// the denominator sum. Returns the number of queries scaled.
template <typename T>
int CheckLargeLogitAttentionOnce(int length, int num_observed, int d,
                                 bool shielded, bool use_srpe, Rng* rng) {
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < num_observed; ++i) observed[i] = 1;
  AttentionPlan plan;
  BuildAttentionPlan(observed, shielded, &plan);
  const int64_t num_pairs = plan.num_pairs();

  auto quarters = [&](int64_t n) {
    std::vector<T> x = RandomVector<T>(n, rng);
    for (T& e : x) e = std::clamp(std::round(e * T(4)) / T(4), T(-2), T(2));
    return x;
  };
  std::vector<T> q = quarters(int64_t{length} * d);
  const std::vector<T> k = quarters(int64_t{length} * d);
  const std::vector<T> v = RandomVector<T>(int64_t{length} * d, rng);
  std::vector<T> c;
  if (use_srpe) c = quarters(num_pairs * d);
  const T* c_ptr = use_srpe ? c.data() : nullptr;

  const T min_spread = -T(2) * ExpZeroBelow<T>() * std::sqrt(T(d));
  int scaled_queries = 0;
  for (int i = 0; i < length; ++i) {
    T lo = std::numeric_limits<T>::infinity();
    T hi = -lo;
    for (int64_t t = plan.offset[i]; t < plan.offset[i + 1]; ++t) {
      const int j = plan.key_index[t];
      T s = 0;
      for (int e = 0; e < d; ++e) {
        s += q[int64_t{i} * d + e] * k[int64_t{j} * d + e] *
             (use_srpe ? c[t * d + e] : T(1));
      }
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    if (!(hi > lo)) continue;  // One key, or all scores tie.
    const T scale = std::exp2(std::ceil(std::log2(min_spread / (hi - lo))));
    for (int e = 0; e < d; ++e) q[int64_t{i} * d + e] *= scale;
    ++scaled_queries;
  }

  std::vector<T> scores;
  std::vector<T> ref_alpha(static_cast<size_t>(num_pairs), T(0));
  std::vector<T> ref_z(static_cast<size_t>(length) * d);
  PackedAttentionForwardRows<T, simd::ScalarOps>(
      q.data(), k.data(), v.data(), c_ptr, plan, d, /*tail_begin=*/0, &scores,
      ref_alpha.data(), ref_z.data());
  std::vector<T> vec_alpha(static_cast<size_t>(num_pairs), T(0));
  std::vector<T> vec_z(static_cast<size_t>(length) * d);
  PackedAttentionForwardRows<T, simd::VecOps>(
      q.data(), k.data(), v.data(), c_ptr, plan, d, /*tail_begin=*/0, &scores,
      vec_alpha.data(), vec_z.data());

  const std::string where = "L=" + std::to_string(length) +
                            " m=" + std::to_string(num_observed) +
                            " d=" + std::to_string(d);
  EXPECT_LE(MaxAbsDiff(ref_z, vec_z), ScaledTol(ref_z, PolicyTol<T>()))
      << where;
  EXPECT_LE(MaxAbsDiff(ref_alpha, vec_alpha),
            ScaledTol(ref_alpha, PolicyTol<T>()))
      << where;
  int zeros = 0;
  for (int64_t t = 0; t < num_pairs; ++t) {
    EXPECT_EQ(ref_alpha[t] == T(0), vec_alpha[t] == T(0))
        << where << " pair " << t;
    zeros += vec_alpha[t] == T(0);
  }
  EXPECT_GE(zeros, scaled_queries) << where;
  int non_finite = 0;
  for (size_t e = 0; e < vec_z.size(); ++e) {
    non_finite += !std::isfinite(ref_z[e]) || !std::isfinite(vec_z[e]);
  }
  EXPECT_EQ(non_finite, 0) << where;
  return scaled_queries;
}

TEST(KernelDifferentialTest, AttentionUnderflowingWeights) {
  Rng rng(0xD3);
  int scaled_f64 = 0, scaled_f32 = 0;
  for (int length : {2, 5, 23}) {
    for (int num_observed : {1, length / 2, length}) {
      for (int d : {1, 3, 8, 16}) {
        for (bool shielded : {true, false}) {
          for (bool use_srpe : {true, false}) {
            scaled_f64 += CheckLargeLogitAttentionOnce<double>(
                length, num_observed, d, shielded, use_srpe, &rng);
            scaled_f32 += CheckLargeLogitAttentionOnce<float>(
                length, num_observed, d, shielded, use_srpe, &rng);
          }
        }
      }
    }
  }
  scaled_f64 += CheckLargeLogitAttentionOnce<double>(
      123, 113, 16, /*shielded=*/true, /*use_srpe=*/true, &rng);
  scaled_f32 += CheckLargeLogitAttentionOnce<float>(
      123, 113, 16, /*shielded=*/true, /*use_srpe=*/true, &rng);
  // Most of the 1,563 queries per precision have two distinct scores.
  EXPECT_GT(scaled_f64, 1000);
  EXPECT_GT(scaled_f32, 1000);
}

// ---------------------------------------------------------------------------
// Serving row kernels (nn/serving_kernels.h). Each kernel claims
// per-element bit-identity with the per-op composition under the same Ops
// policy — the primary pins below are therefore exact (memcmp), not
// tolerance-based. Cross-policy (kernel VecOps vs. ScalarOps) gets the
// usual scaled tolerance budget.

// Per-op reference for one matmul under policy Ops: exactly what
// MatMulInto computes (Fill(0) + MatMulAccRows).
template <typename T, typename Ops>
void PerOpMatMul(const T* a, const T* b, int m, int k, int n, T* out) {
  std::fill(out, out + int64_t{m} * n, T(0));
  simd::MatMulAccRows<T, Ops>(a, b, out, k, n, 0, m);
}

template <typename T>
void CheckLinearRowsOnce(int rows, int k, int n, bool bias, Rng* rng) {
  const std::vector<T> x = RandomVector<T>(int64_t{rows} * k, rng);
  const std::vector<T> w = RandomVector<T>(int64_t{k} * n, rng);
  const std::vector<T> b = RandomVector<T>(n, rng);
  const T* b_ptr = bias ? b.data() : nullptr;

  std::vector<T> out(static_cast<size_t>(rows) * n);
  fused::LinearRows<T, simd::VecOps>(x.data(), rows, k, w.data(), b_ptr, n,
                                     out.data());

  // Per-op composition: tensor matmul, then the AddRow bias add.
  std::vector<T> ref(out.size());
  PerOpMatMul<T, simd::VecOps>(x.data(), w.data(), rows, k, n, ref.data());
  for (int i = 0; i < rows && bias; ++i) {
    simd::VecOps::Add(b.data(), ref.data() + static_cast<int64_t>(i) * n, n);
  }
  EXPECT_TRUE(BitEqual(ref, out))
      << rows << "x" << k << "x" << n << " bias=" << bias;

  std::vector<T> out_scalar(out.size());
  fused::LinearRows<T, simd::ScalarOps>(x.data(), rows, k, w.data(), b_ptr,
                                        n, out_scalar.data());
  EXPECT_LE(MaxAbsDiff(out, out_scalar),
            ScaledTol(out_scalar, PolicyTol<T>()));
}

TEST(KernelDifferentialTest, LinearRowsSweep) {
  Rng rng(0xE0);
  for (int rows : {0, 1, 2, 5, 23}) {
    for (int k : {1, 2, 5, 16}) {
      for (int n : {1, 3, 16, 17}) {
        for (bool bias : {true, false}) {
          CheckLinearRowsOnce<double>(rows, k, n, bias, &rng);
          CheckLinearRowsOnce<float>(rows, k, n, bias, &rng);
        }
      }
    }
  }
}

// x holds rows [begin, length) of the sequence; keys/values are projected
// for those rows and queries for rows [q_begin, length).
template <typename T>
void CheckFusedQkvOnce(int length, int dm, int d, int num_heads, int begin,
                       int q_begin, Rng* rng) {
  const int rows = length - begin;
  const std::vector<T> x = RandomVector<T>(int64_t{rows} * dm, rng);
  std::vector<std::vector<T>> wq, wk, wv;
  std::vector<const T*> wq_p, wk_p, wv_p;
  for (int h = 0; h < num_heads; ++h) {
    wq.push_back(RandomVector<T>(int64_t{dm} * d, rng));
    wk.push_back(RandomVector<T>(int64_t{dm} * d, rng));
    wv.push_back(RandomVector<T>(int64_t{dm} * d, rng));
    wq_p.push_back(wq.back().data());
    wk_p.push_back(wk.back().data());
    wv_p.push_back(wv.back().data());
  }

  // Rows below `begin` keep a sentinel: the kernel must not write them.
  const T kUnwritten = T(-7);
  const int nq = length - q_begin;
  const size_t head = static_cast<size_t>(length) * d;
  std::vector<T> q(static_cast<size_t>(num_heads) * nq * d);
  std::vector<T> kv(static_cast<size_t>(2 * num_heads) * head, kUnwritten);
  fused::FusedQkvProjectRows<T, simd::VecOps>(
      x.data(), begin, length, dm, q_begin, wq_p.data(), wk_p.data(),
      wv_p.data(), num_heads, d, q.data(), kv.data());

  std::vector<T> q_scalar(q.size()), kv_scalar(kv.size(), kUnwritten);
  fused::FusedQkvProjectRows<T, simd::ScalarOps>(
      x.data(), begin, length, dm, q_begin, wq_p.data(), wk_p.data(),
      wv_p.data(), num_heads, d, q_scalar.data(), kv_scalar.data());
  EXPECT_LE(MaxAbsDiff(kv, kv_scalar), ScaledTol(kv_scalar, PolicyTol<T>()));
  EXPECT_LE(MaxAbsDiff(q, q_scalar), ScaledTol(q_scalar, PolicyTol<T>()));

  // Same-policy per-op references (per-head tensor matmuls) must be
  // bit-identical — the claim that lets the serving chain run the fused
  // kernel without changing a single prediction bit.
  const size_t below = static_cast<size_t>(begin) * d;
  const size_t projected = static_cast<size_t>(rows) * d;
  std::vector<T> ref(projected);
  for (int h = 0; h < num_heads && projected > 0; ++h) {
    for (int block : {2 * h, 2 * h + 1}) {
      const T* out = kv.data() + block * head;
      for (size_t e = 0; e < below; ++e) {
        ASSERT_EQ(out[e], kUnwritten) << "block " << block << " begin "
                                      << begin;
      }
      PerOpMatMul<T, simd::VecOps>(
          x.data(), (block % 2 == 0 ? wk : wv)[h].data(), rows, dm, d,
          ref.data());
      EXPECT_EQ(0, std::memcmp(ref.data(), out + below,
                               projected * sizeof(T)))
          << (block % 2 == 0 ? "k" : "v") << " head " << h << " L=" << length
          << " dm=" << dm << " d=" << d << " begin=" << begin;
    }
    if (nq > 0) {
      std::vector<T> ref_q(static_cast<size_t>(nq) * d);
      PerOpMatMul<T, simd::VecOps>(
          x.data() + int64_t{q_begin - begin} * dm, wq[h].data(), nq, dm, d,
          ref_q.data());
      EXPECT_EQ(0, std::memcmp(ref_q.data(),
                               q.data() + static_cast<size_t>(h) * nq * d,
                               ref_q.size() * sizeof(T)))
          << "q head " << h << " q_begin=" << q_begin;
    }
  }
}

TEST(KernelDifferentialTest, FusedQkvProjectSweep) {
  Rng rng(0xE1);
  for (int length : {0, 1, 2, 5, 23}) {
    for (int dm : {1, 3, 7, 16}) {
      for (int d : {1, 5, 16}) {
        for (int num_heads : {1, 2, 3}) {
          for (int tail_begin : {0, 1, length / 2, length}) {
            if (tail_begin > length) continue;
            CheckFusedQkvOnce<double>(length, dm, d, num_heads, /*begin=*/0,
                                      tail_begin, &rng);
            CheckFusedQkvOnce<float>(length, dm, d, num_heads, /*begin=*/0,
                                     tail_begin, &rng);
          }
        }
      }
    }
  }
}

// A serving layer of a cone layout reads rows [begin, L) and writes rows
// [q_begin, L): keys/values land at their sequence rows, rows below begin
// stay unwritten.
TEST(KernelDifferentialTest, FusedQkvProjectFromFirstRow) {
  Rng rng(0xE6);
  for (int length : {2, 5, 23}) {
    for (int dm : {3, 16}) {
      for (int num_heads : {1, 2}) {
        for (int begin : {1, length / 2, length}) {
          for (int q_begin : {begin, (begin + length) / 2, length}) {
            CheckFusedQkvOnce<double>(length, dm, /*d=*/5, num_heads, begin,
                                      q_begin, &rng);
            CheckFusedQkvOnce<float>(length, dm, /*d=*/5, num_heads, begin,
                                     q_begin, &rng);
          }
        }
      }
    }
  }
}

template <typename T>
void CheckFusedEpilogueOnce(int rows, int k, int n, bool bias, Rng* rng) {
  const std::vector<T> concat = RandomVector<T>(int64_t{rows} * k, rng);
  const std::vector<T> wo = RandomVector<T>(int64_t{k} * n, rng);
  const std::vector<T> wo_bias = RandomVector<T>(n, rng);
  const std::vector<T> residual = RandomVector<T>(int64_t{rows} * n, rng);
  const std::vector<T> gamma = RandomVector<T>(n, rng);
  const std::vector<T> beta = RandomVector<T>(n, rng);
  const T eps = static_cast<T>(1e-5);
  const T* bias_ptr = bias ? wo_bias.data() : nullptr;

  std::vector<T> tmp(n);
  std::vector<T> out(static_cast<size_t>(rows) * n);
  fused::FusedAttentionEpilogueRows<T, simd::VecOps>(
      concat.data(), rows, k, wo.data(), bias_ptr, n, residual.data(),
      gamma.data(), beta.data(), eps, tmp.data(), out.data());

  // Per-op composition under the same policy: tensor matmul, then the
  // bias / residual element adds, then the batched LayerNorm. Bit-exact.
  std::vector<T> proj(out.size());
  PerOpMatMul<T, simd::VecOps>(concat.data(), wo.data(), rows, k, n,
                                 proj.data());
  for (int i = 0; i < rows; ++i) {
    T* row = proj.data() + static_cast<int64_t>(i) * n;
    if (bias) simd::VecOps::Add(wo_bias.data(), row, n);
    simd::VecOps::Add(residual.data() + static_cast<int64_t>(i) * n, row, n);
  }
  std::vector<T> ref(out.size());
  simd::LayerNormRows<T, simd::VecOps>(proj.data(), gamma.data(), beta.data(),
                                       eps, rows, n, ref.data(), nullptr,
                                       nullptr);
  EXPECT_TRUE(BitEqual(ref, out))
      << rows << "x" << k << "x" << n << " bias=" << bias;

  // Cross-policy within tolerance.
  std::vector<T> out_scalar(out.size());
  fused::FusedAttentionEpilogueRows<T, simd::ScalarOps>(
      concat.data(), rows, k, wo.data(), bias_ptr, n, residual.data(),
      gamma.data(), beta.data(), eps, tmp.data(), out_scalar.data());
  EXPECT_LE(MaxAbsDiff(out, out_scalar),
            ScaledTol(out_scalar, PolicyTol<T>()));
}

TEST(KernelDifferentialTest, FusedAttentionEpilogueSweep) {
  Rng rng(0xE2);
  for (int rows : {0, 1, 2, 5, 23}) {
    for (int k : {1, 5, 8, 32}) {
      for (int n : {1, 3, 16, 17}) {
        for (bool bias : {true, false}) {
          CheckFusedEpilogueOnce<double>(rows, k, n, bias, &rng);
          CheckFusedEpilogueOnce<float>(rows, k, n, bias, &rng);
        }
      }
    }
  }
}

template <typename T>
void CheckFusedFfnOnce(int rows, int d, int d_ff, bool relu, bool bias,
                       Rng* rng) {
  const std::vector<T> x = RandomVector<T>(int64_t{rows} * d, rng);
  const std::vector<T> w1 = RandomVector<T>(int64_t{d} * d_ff, rng);
  const std::vector<T> b1 = RandomVector<T>(d_ff, rng);
  const std::vector<T> w2 = RandomVector<T>(int64_t{d_ff} * d, rng);
  const std::vector<T> b2 = RandomVector<T>(d, rng);
  const std::vector<T> gamma = RandomVector<T>(d, rng);
  const std::vector<T> beta = RandomVector<T>(d, rng);
  const T eps = static_cast<T>(1e-5);
  const T* b1_ptr = bias ? b1.data() : nullptr;
  const T* b2_ptr = bias ? b2.data() : nullptr;

  std::vector<T> hidden(d_ff), tmp(d);
  std::vector<T> out(static_cast<size_t>(rows) * d);
  fused::FusedFfnRows<T, simd::VecOps>(
      x.data(), rows, d, d_ff, w1.data(), b1_ptr, w2.data(), b2_ptr, relu,
      gamma.data(), beta.data(), eps, hidden.data(), tmp.data(), out.data());

  // Per-op composition: full [rows, d_ff] hidden tensor, batched adds,
  // batched ReLU, batched LayerNorm — the arena-hungry chain the fused
  // kernel replaces. Same policy, bit-exact.
  std::vector<T> h(static_cast<size_t>(rows) * d_ff);
  PerOpMatMul<T, simd::VecOps>(x.data(), w1.data(), rows, d, d_ff,
                                 h.data());
  for (int i = 0; i < rows; ++i) {
    T* row = h.data() + static_cast<int64_t>(i) * d_ff;
    if (bias) simd::VecOps::Add(b1.data(), row, d_ff);
    if (relu) simd::VecOps::Relu(row, d_ff);
  }
  std::vector<T> proj(out.size());
  PerOpMatMul<T, simd::VecOps>(h.data(), w2.data(), rows, d_ff, d,
                                 proj.data());
  for (int i = 0; i < rows; ++i) {
    T* row = proj.data() + static_cast<int64_t>(i) * d;
    if (bias) simd::VecOps::Add(b2.data(), row, d);
    simd::VecOps::Add(x.data() + static_cast<int64_t>(i) * d, row, d);
  }
  std::vector<T> ref(out.size());
  simd::LayerNormRows<T, simd::VecOps>(proj.data(), gamma.data(), beta.data(),
                                       eps, rows, d, ref.data(), nullptr,
                                       nullptr);
  EXPECT_TRUE(BitEqual(ref, out))
      << rows << "x" << d << "x" << d_ff << " relu=" << relu
      << " bias=" << bias;

  // Cross-policy within tolerance.
  std::vector<T> out_scalar(out.size());
  fused::FusedFfnRows<T, simd::ScalarOps>(
      x.data(), rows, d, d_ff, w1.data(), b1_ptr, w2.data(), b2_ptr, relu,
      gamma.data(), beta.data(), eps, hidden.data(), tmp.data(),
      out_scalar.data());
  EXPECT_LE(MaxAbsDiff(out, out_scalar),
            ScaledTol(out_scalar, PolicyTol<T>()));
}

TEST(KernelDifferentialTest, FusedFfnSweep) {
  Rng rng(0xE3);
  for (int rows : {0, 1, 2, 5, 23}) {
    for (int d : {1, 3, 16, 17}) {
      for (int d_ff : {1, 7, 64}) {
        for (bool relu : {true, false}) {
          for (bool bias : {true, false}) {
            CheckFusedFfnOnce<double>(rows, d, d_ff, relu, bias, &rng);
            CheckFusedFfnOnce<float>(rows, d, d_ff, relu, bias, &rng);
          }
        }
      }
    }
  }
}

// Strided attention output: each head writing its column block of the
// [L, H*d] concat directly must be bit-identical to the contiguous kernel
// plus an explicit column copy.
template <typename T>
void CheckStridedAttentionOnce(int length, int num_observed, int d,
                               int num_heads, int tail_begin, Rng* rng) {
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < num_observed; ++i) observed[i] = 1;
  AttentionPlan plan;
  BuildAttentionPlan(observed, /*shielded=*/true, &plan);

  const std::vector<T> q = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> k = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> v = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> c =
      RandomVector<T>(plan.num_pairs() * int64_t{d}, rng);

  const int nq = length - tail_begin;
  std::vector<T> scores;
  std::vector<T> contiguous(static_cast<size_t>(nq) * d);
  PackedAttentionForwardRows<T, simd::VecOps>(
      q.data() + int64_t{tail_begin} * d, k.data(), v.data(), c.data(), plan,
      d, tail_begin, &scores, /*alpha_out=*/nullptr, contiguous.data());

  const int64_t stride = int64_t{num_heads} * d;
  for (int h = 0; h < num_heads; ++h) {
    std::vector<T> strided(static_cast<size_t>(nq) * stride, T(-1));
    PackedAttentionForwardRowsStrided<T, simd::VecOps>(
        q.data() + int64_t{tail_begin} * d, k.data(), v.data(), c.data(),
        plan, d, tail_begin, &scores,
        /*alpha_out=*/nullptr, strided.data() + int64_t{h} * d, stride);
    for (int r = 0; r < nq; ++r) {
      EXPECT_EQ(0, std::memcmp(contiguous.data() + int64_t{r} * d,
                               strided.data() + r * stride + int64_t{h} * d,
                               d * sizeof(T)))
          << "row " << r << " head " << h;
      // Rows outside the head's column block must be untouched.
      for (int64_t j = 0; j < stride; ++j) {
        if (j < int64_t{h} * d || j >= int64_t{h + 1} * d) {
          EXPECT_EQ(T(-1), strided[r * stride + j]);
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, StridedAttentionMatchesContiguous) {
  Rng rng(0xE4);
  for (int length : {1, 2, 5, 23}) {
    for (int num_observed : {0, 1, length / 2, length}) {
      for (int tail_begin : {0, num_observed}) {
        CheckStridedAttentionOnce<double>(length, num_observed, /*d=*/8,
                                          /*num_heads=*/2, tail_begin, &rng);
        CheckStridedAttentionOnce<float>(length, num_observed, /*d=*/8,
                                         /*num_heads=*/2, tail_begin, &rng);
      }
    }
  }
}

// Indexed c (the serving chain's PairStore view): legal pair t reading row
// index[t] of a chunked table must be bit-identical to packed c holding
// the same rows under the production policy. (ScalarOps is not pinned
// here: the compiler may contract its mul-add chains into FMAs differently
// per instantiation.) The table is spread over chunks of four rows. A
// shuffled index sends almost every query through the per-pair lookup; an
// identity index sends each query whose rows fit in one chunk through the
// block read, and the rest through the lookup.
template <typename T>
void CheckIndexedAttentionOnce(int length, int num_observed, int d,
                               int tail_begin, bool shuffle, Rng* rng) {
  std::vector<uint8_t> observed(length, 0);
  for (int i = 0; i < num_observed; ++i) observed[i] = 1;
  AttentionPlan plan;
  BuildAttentionPlan(observed, /*shielded=*/true, &plan);
  const int64_t pairs = plan.num_pairs();

  const std::vector<T> q = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> k = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> v = RandomVector<T>(int64_t{length} * d, rng);
  const std::vector<T> c = RandomVector<T>(pairs * d, rng);

  constexpr int kShift = 2;
  std::vector<int32_t> index(static_cast<size_t>(pairs));
  for (int64_t t = 0; t < pairs; ++t) index[t] = static_cast<int32_t>(t);
  for (int64_t t = pairs - 1; shuffle && t > 0; --t) {
    std::swap(index[t], index[rng->UniformInt(0, t)]);
  }
  std::vector<std::vector<T>> chunks((pairs >> kShift) + 1,
                                     std::vector<T>((1 << kShift) * d));
  for (int64_t t = 0; t < pairs; ++t) {
    const int32_t r = index[t];
    std::copy(c.begin() + t * d, c.begin() + (t + 1) * d,
              chunks[r >> kShift].begin() + (r & ((1 << kShift) - 1)) * d);
  }
  std::vector<const T*> bases;
  for (const std::vector<T>& chunk : chunks) bases.push_back(chunk.data());
  const IndexedSrpe<T> view{bases.data(), index.data(), kShift};

  const int nq = length - tail_begin;
  const T* q_tail = q.data() + int64_t{tail_begin} * d;
  std::vector<T> scores;
  std::vector<T> packed(static_cast<size_t>(nq) * d);
  std::vector<T> alpha_packed(static_cast<size_t>(pairs));
  PackedAttentionForwardRowsStrided<T, simd::VecOps>(
      q_tail, k.data(), v.data(), c.data(), plan, d, tail_begin, &scores,
      alpha_packed.data(), packed.data(), d);
  std::vector<T> indexed(static_cast<size_t>(nq) * d);
  std::vector<T> alpha_indexed(static_cast<size_t>(pairs));
  PackedAttentionForwardRowsStrided<T, simd::VecOps>(
      q_tail, k.data(), v.data(), &view, plan, d, tail_begin, &scores,
      alpha_indexed.data(), indexed.data(), d);
  EXPECT_TRUE(BitEqual(packed, indexed));
  EXPECT_TRUE(BitEqual(alpha_packed, alpha_indexed));
}

TEST(KernelDifferentialTest, IndexedSrpeMatchesPacked) {
  Rng rng(0xE6);
  for (int length : {1, 2, 5, 23}) {
    for (int num_observed : {0, 1, length / 2, length}) {
      for (int tail_begin : {0, num_observed}) {
        for (bool shuffle : {true, false}) {
          CheckIndexedAttentionOnce<double>(length, num_observed, /*d=*/8,
                                            tail_begin, shuffle, &rng);
          CheckIndexedAttentionOnce<float>(length, num_observed, /*d=*/16,
                                           tail_begin, shuffle, &rng);
        }
      }
    }
  }
}

// Paper-config geometry for the whole serving chain: L=123, m=113, H=2,
// d_model=d_k=16, d_ff=256 — the exact shapes SpaFormer serves.
TEST(KernelDifferentialTest, FusedServingPaperConfig) {
  Rng rng(0xE5);
  CheckLinearRowsOnce<double>(123, 1, 16, /*bias=*/true, &rng);
  CheckLinearRowsOnce<float>(123, 1, 16, /*bias=*/true, &rng);
  CheckLinearRowsOnce<double>(10, 16, 1, /*bias=*/true, &rng);
  CheckLinearRowsOnce<float>(10, 16, 1, /*bias=*/true, &rng);
  CheckFusedQkvOnce<double>(123, 16, 16, 2, /*begin=*/0, /*q_begin=*/113,
                            &rng);
  CheckFusedQkvOnce<float>(123, 16, 16, 2, /*begin=*/0, /*q_begin=*/113,
                           &rng);
  CheckFusedEpilogueOnce<double>(123, 32, 16, /*bias=*/false, &rng);
  CheckFusedEpilogueOnce<float>(123, 32, 16, /*bias=*/false, &rng);
  CheckFusedFfnOnce<double>(123, 16, 256, /*relu=*/true, /*bias=*/true, &rng);
  CheckFusedFfnOnce<float>(123, 16, 256, /*relu=*/true, /*bias=*/true, &rng);
  CheckStridedAttentionOnce<double>(123, 113, 16, 2, /*tail_begin=*/113,
                                    &rng);
  CheckStridedAttentionOnce<float>(123, 113, 16, 2, /*tail_begin=*/113,
                                   &rng);
}

}  // namespace
}  // namespace ssin
