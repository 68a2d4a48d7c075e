#ifndef SSIN_COMMON_SIMD_H_
#define SSIN_COMMON_SIMD_H_

#include <cmath>
#include <cstdint>

/// \file
/// The vector primitives under the hot kernels (matmul, layer norm,
/// shielded attention, the serving row kernels), one definition for every
/// target.
///
/// Kernels are written once against a *policy struct* carrying the
/// primitive operations (dot products, axpy, row reductions), templated on
/// the element type:
///
///   ScalarOps  strictly sequential loops — the historical kernel
///              arithmetic, kept callable as the bit-exact f64 reference
///              for the differential kernel tests
///   VecOps     the production primitives: the same loops annotated with
///              '#pragma omp simd' (-fopenmp-simd, no OpenMP runtime), so
///              the compiler picks the vector instructions from the
///              build's target flags — AVX2+FMA under the default x86-64
///              flags (CMake adds -mavx2 -mfma when SSIN_SIMD is ON), NEON
///              on aarch64
///
/// The primitives name no instruction set, and nothing is chosen at run
/// time. Building with -DSSIN_SIMD=OFF defines SSIN_SIMD_DISABLED, which
/// makes VecOps an alias of ScalarOps: the OFF build runs exactly the
/// reference arithmetic.
///
/// VecOps reassociates reductions (vector-lane partial sums), so its f64
/// results can differ from ScalarOps in the last bits; the differential
/// harness (tests/kernel_differential_test.cc) pins the divergence to
/// <= 1e-12 relative. Both policies are deterministic: the same inputs
/// always produce the same outputs, independent of thread count, because
/// every output element is produced by exactly one call in a fixed order.
///
/// To add a vectorized kernel: write it as a template over <typename T,
/// typename Ops> using only Ops primitives (add new primitives to BOTH
/// policy structs), instantiate ScalarOps next to VecOps, and add a sweep
/// to tests/kernel_differential_test.cc comparing the two before switching
/// any caller to VecOps.

namespace ssin {
namespace simd {

/// Name of the instruction set VecOps is compiled for — recorded by benches
/// so a BENCH_*.json is self-describing.
inline const char* IsaName() {
#if defined(SSIN_SIMD_DISABLED)
  return "scalar";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "portable";
#endif
}

/// Strictly sequential primitives: the exact arithmetic (operation order
/// included) of the historical scalar kernels. Differential reference.
struct ScalarOps {
  template <typename T>
  static T Dot(const T* x, const T* y, int n) {
    T s = 0;
    for (int i = 0; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  template <typename T>
  static T Dot3(const T* x, const T* y, const T* z, int n) {
    T s = 0;
    for (int i = 0; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  /// out[i] += a * x[i]
  template <typename T>
  static void Axpy(T a, const T* x, T* out, int n) {
    for (int i = 0; i < n; ++i) out[i] += a * x[i];
  }

  /// out[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
  template <typename T>
  static void Axpy4(T a0, T a1, T a2, T a3, const T* x0, const T* x1,
                    const T* x2, const T* x3, T* out, int n) {
    for (int i = 0; i < n; ++i) {
      out[i] += a0 * x0[i] + a1 * x1[i] + a2 * x2[i] + a3 * x3[i];
    }
  }

  /// out[i] += x[i]
  template <typename T>
  static void Add(const T* x, T* out, int n) {
    for (int i = 0; i < n; ++i) out[i] += x[i];
  }

  /// x[i] = max(x[i], 0)
  template <typename T>
  static void Relu(T* x, int n) {
    for (int i = 0; i < n; ++i) {
      if (x[i] < T(0)) x[i] = T(0);
    }
  }

  template <typename T>
  static T Sum(const T* x, int n) {
    T s = 0;
    for (int i = 0; i < n; ++i) s += x[i];
    return s;
  }

  /// sum_i (x[i] - mean)^2
  template <typename T>
  static T SumSqDiff(const T* x, T mean, int n) {
    T s = 0;
    for (int i = 0; i < n; ++i) {
      const T d = x[i] - mean;
      s += d * d;
    }
    return s;
  }

  /// The layer-norm output row: out[i] = (x[i]-mean)*istd * gamma[i] +
  /// beta[i], optionally saving the normalized value into xhat.
  template <typename T>
  static void NormScale(const T* x, T mean, T istd, const T* gamma,
                        const T* beta, T* out, T* xhat, int n) {
    for (int i = 0; i < n; ++i) {
      const T xh = (x[i] - mean) * istd;
      if (xhat != nullptr) xhat[i] = xh;
      out[i] = xh * gamma[i] + beta[i];
    }
  }
};

#if defined(SSIN_SIMD_DISABLED)

/// -DSSIN_SIMD=OFF: production runs the reference primitives themselves.
using VecOps = ScalarOps;

#else

/// ScalarOps' loops under '#pragma omp simd'; same interface. Reductions
/// use vector-lane partial sums (reassociated); elementwise ops evaluate
/// ScalarOps' expression per element.
struct VecOps {
  template <typename T>
  static T Dot(const T* x, const T* y, int n) {
    T s = 0;
#pragma omp simd reduction(+ : s)
    for (int i = 0; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  template <typename T>
  static T Dot3(const T* x, const T* y, const T* z, int n) {
    T s = 0;
#pragma omp simd reduction(+ : s)
    for (int i = 0; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  template <typename T>
  static void Axpy(T a, const T* x, T* out, int n) {
#pragma omp simd
    for (int i = 0; i < n; ++i) out[i] += a * x[i];
  }

  template <typename T>
  static void Axpy4(T a0, T a1, T a2, T a3, const T* x0, const T* x1,
                    const T* x2, const T* x3, T* out, int n) {
#pragma omp simd
    for (int i = 0; i < n; ++i) {
      out[i] += a0 * x0[i] + a1 * x1[i] + a2 * x2[i] + a3 * x3[i];
    }
  }

  template <typename T>
  static void Add(const T* x, T* out, int n) {
#pragma omp simd
    for (int i = 0; i < n; ++i) out[i] += x[i];
  }

  template <typename T>
  static void Relu(T* x, int n) {
#pragma omp simd
    for (int i = 0; i < n; ++i) x[i] = x[i] < T(0) ? T(0) : x[i];
  }

  template <typename T>
  static T Sum(const T* x, int n) {
    T s = 0;
#pragma omp simd reduction(+ : s)
    for (int i = 0; i < n; ++i) s += x[i];
    return s;
  }

  template <typename T>
  static T SumSqDiff(const T* x, T mean, int n) {
    T s = 0;
#pragma omp simd reduction(+ : s)
    for (int i = 0; i < n; ++i) {
      const T d = x[i] - mean;
      s += d * d;
    }
    return s;
  }

  template <typename T>
  static void NormScale(const T* x, T mean, T istd, const T* gamma,
                        const T* beta, T* out, T* xhat, int n) {
    ScalarOps::NormScale(x, mean, istd, gamma, beta, out, xhat, n);
  }
};

#endif  // SSIN_SIMD_DISABLED

// ------------------------------------------------------------------------
// Shared kernel templates. These are the single implementations behind the
// tensor-level matmul/layernorm entry points (src/tensor/ops.cc) and the
// serving row kernels (src/nn/serving_kernels.h) — instantiated with VecOps
// in production and ScalarOps as the differential-test reference.

/// Blocked MatMulAcc over rows [i_lo, i_hi): the inner-product dimension is
/// unrolled by 4 so each pass streams four resident b rows through out_row
/// with no data-dependent branch.
template <typename T, typename Ops>
void MatMulAccRows(const T* a, const T* b, T* out, int k, int n, int i_lo,
                   int i_hi) {
  for (int i = i_lo; i < i_hi; ++i) {
    const T* a_row = a + static_cast<int64_t>(i) * k;
    T* out_row = out + static_cast<int64_t>(i) * n;
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const T* b0 = b + static_cast<int64_t>(p) * n;
      Ops::Axpy4(a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3], b0,
                 b0 + n, b0 + 2 * n, b0 + 3 * n, out_row, n);
    }
    for (; p < k; ++p) {
      Ops::Axpy(a_row[p], b + static_cast<int64_t>(p) * n, out_row, n);
    }
  }
}

/// Blocked MatMulAccBt over rows [i_lo, i_hi): each out element is one
/// Ops::Dot.
template <typename T, typename Ops>
void MatMulAccBtRows(const T* dc, const T* b, T* out, int n, int k, int i_lo,
                     int i_hi) {
  for (int i = i_lo; i < i_hi; ++i) {
    const T* dc_row = dc + static_cast<int64_t>(i) * n;
    T* out_row = out + static_cast<int64_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      out_row[p] += Ops::Dot(dc_row, b + static_cast<int64_t>(p) * n, n);
    }
  }
}

/// Blocked MatMulAccAt over *output* rows [p_lo, p_hi): the reduction
/// dimension m is tiled by 4, so four a/dc rows stay resident per pass and
/// each out row is written once per tile instead of once per i.
template <typename T, typename Ops>
void MatMulAccAtCols(const T* a, const T* dc, T* out, int m, int k, int n,
                     int p_lo, int p_hi) {
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const T* a0 = a + static_cast<int64_t>(i) * k;
    const T* d0 = dc + static_cast<int64_t>(i) * n;
    for (int p = p_lo; p < p_hi; ++p) {
      Ops::Axpy4(a0[p], a0[k + p], a0[2 * k + p], a0[3 * k + p], d0, d0 + n,
                 d0 + 2 * n, d0 + 3 * n,
                 out + static_cast<int64_t>(p) * n, n);
    }
  }
  for (; i < m; ++i) {
    const T* a_row = a + static_cast<int64_t>(i) * k;
    const T* dc_row = dc + static_cast<int64_t>(i) * n;
    for (int p = p_lo; p < p_hi; ++p) {
      Ops::Axpy(a_row[p], dc_row, out + static_cast<int64_t>(p) * n, n);
    }
  }
}

/// Layer norm over the last dimension of x [m,n]: out, and optionally the
/// saved statistics (xhat [m,n], inv_std [m]) the backward pass needs.
/// LayerNormRows<double, ScalarOps> is exactly the historical forward.
template <typename T, typename Ops>
void LayerNormRows(const T* x, const T* gamma, const T* beta, T eps, int m,
                   int n, T* out, T* xhat, T* inv_std) {
  for (int i = 0; i < m; ++i) {
    const T* x_row = x + static_cast<int64_t>(i) * n;
    const T mean = Ops::Sum(x_row, n) / static_cast<T>(n);
    const T var = Ops::SumSqDiff(x_row, mean, n) / static_cast<T>(n);
    const T istd = T(1) / std::sqrt(var + eps);
    if (inv_std != nullptr) inv_std[i] = istd;
    Ops::NormScale(x_row, mean, istd, gamma, beta,
                   out + static_cast<int64_t>(i) * n,
                   xhat != nullptr ? xhat + static_cast<int64_t>(i) * n
                                   : nullptr,
                   n);
  }
}

}  // namespace simd
}  // namespace ssin

#endif  // SSIN_COMMON_SIMD_H_
