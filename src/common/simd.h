#ifndef SSIN_COMMON_SIMD_H_
#define SSIN_COMMON_SIMD_H_

#include <cmath>
#include <cstdint>

/// \file
/// Compile-time SIMD dispatch layer for the hot serving kernels.
///
/// One instruction set is selected per build (never at runtime):
///
///   SSIN_SIMD_AVX2     x86-64 with AVX2+FMA (CMake adds -mavx2 -mfma when
///                      the compiler supports them and SSIN_SIMD is ON)
///   SSIN_SIMD_NEON     aarch64 / ARM with NEON
///   SSIN_SIMD_PORTABLE everything else: plain loops annotated with
///                      '#pragma omp simd' (-fopenmp-simd, no OpenMP
///                      runtime) so auto-vectorizers may still kick in
///
/// Building with -DSSIN_SIMD=OFF defines SSIN_SIMD_DISABLED and forces the
/// portable path with no pragmas — bit-compatible with the scalar
/// reference.
///
/// Kernels are written once against a *policy struct* carrying the
/// primitive operations (dot products, axpy, row reductions), templated on
/// the element type:
///
///   ScalarOps  strictly sequential loops — the historical kernel
///              arithmetic, kept callable as the bit-exact f64 reference
///              for the differential kernel tests
///   VecOps     the ISA-dispatched implementations used in production
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

#if !defined(SSIN_SIMD_DISABLED) && defined(__AVX2__) && defined(__FMA__)
#define SSIN_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(SSIN_SIMD_DISABLED) && defined(__ARM_NEON)
#define SSIN_SIMD_NEON 1
#include <arm_neon.h>
#else
#define SSIN_SIMD_PORTABLE 1
#endif

namespace ssin {
namespace simd {

/// Name of the ISA the build dispatches to — recorded by benches so a
/// BENCH_*.json is self-describing.
inline const char* IsaName() {
#if defined(SSIN_SIMD_AVX2)
  return "avx2";
#elif defined(SSIN_SIMD_NEON)
  return "neon";
#elif defined(SSIN_SIMD_DISABLED)
  return "scalar";
#else
  return "portable";
#endif
}

#if defined(SSIN_SIMD_AVX2)

namespace internal {

inline double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

inline float HSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

}  // namespace internal

#endif  // SSIN_SIMD_AVX2

/// Strictly sequential primitives: the exact arithmetic (operation order
/// included) of the historical scalar kernels. Differential reference.
struct ScalarOps {
  static constexpr bool kVectorized = false;

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

/// ISA-dispatched primitives; same interface as ScalarOps. Reductions use
/// vector-lane partial sums (reassociated), elementwise ops are exact.
struct VecOps {
  static constexpr bool kVectorized = true;

#if defined(SSIN_SIMD_AVX2)

  static double Dot(const double* x, const double* y, int n) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
    int i = 0;
    for (; i + 16 <= n; i += 16) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                             _mm256_loadu_pd(y + i), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                             _mm256_loadu_pd(y + i + 4), acc1);
      acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                             _mm256_loadu_pd(y + i + 8), acc2);
      acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                             _mm256_loadu_pd(y + i + 12), acc3);
    }
    for (; i + 4 <= n; i += 4) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                             _mm256_loadu_pd(y + i), acc0);
    }
    double s = internal::HSum(
        _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  static float Dot(const float* x, const float* y, int n) {
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    int i = 0;
    for (; i + 16 <= n; i += 16) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                             _mm256_loadu_ps(y + i), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                             _mm256_loadu_ps(y + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                             _mm256_loadu_ps(y + i), acc0);
    }
    float s = internal::HSum(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  static double Dot3(const double* x, const double* y, const double* z,
                     int n) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_fmadd_pd(
          _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)),
          _mm256_loadu_pd(z + i), acc0);
      acc1 = _mm256_fmadd_pd(
          _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                        _mm256_loadu_pd(y + i + 4)),
          _mm256_loadu_pd(z + i + 4), acc1);
    }
    for (; i + 4 <= n; i += 4) {
      acc0 = _mm256_fmadd_pd(
          _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)),
          _mm256_loadu_pd(z + i), acc0);
    }
    double s = internal::HSum(_mm256_add_pd(acc0, acc1));
    for (; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  static float Dot3(const float* x, const float* y, const float* z, int n) {
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      acc = _mm256_fmadd_ps(
          _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)),
          _mm256_loadu_ps(z + i), acc);
    }
    float s = internal::HSum(acc);
    for (; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  static void Axpy(double a, const double* x, double* out, int n) {
    const __m256d va = _mm256_set1_pd(a);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(out + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                                                _mm256_loadu_pd(out + i)));
    }
    for (; i < n; ++i) out[i] += a * x[i];
  }

  static void Axpy(float a, const float* x, float* out, int n) {
    const __m256 va = _mm256_set1_ps(a);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                                _mm256_loadu_ps(out + i)));
    }
    for (; i < n; ++i) out[i] += a * x[i];
  }

  static void Axpy4(double a0, double a1, double a2, double a3,
                    const double* x0, const double* x1, const double* x2,
                    const double* x3, double* out, int n) {
    const __m256d v0 = _mm256_set1_pd(a0), v1 = _mm256_set1_pd(a1);
    const __m256d v2 = _mm256_set1_pd(a2), v3 = _mm256_set1_pd(a3);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256d acc = _mm256_loadu_pd(out + i);
      acc = _mm256_fmadd_pd(v0, _mm256_loadu_pd(x0 + i), acc);
      acc = _mm256_fmadd_pd(v1, _mm256_loadu_pd(x1 + i), acc);
      acc = _mm256_fmadd_pd(v2, _mm256_loadu_pd(x2 + i), acc);
      acc = _mm256_fmadd_pd(v3, _mm256_loadu_pd(x3 + i), acc);
      _mm256_storeu_pd(out + i, acc);
    }
    for (; i < n; ++i) {
      out[i] += a0 * x0[i] + a1 * x1[i] + a2 * x2[i] + a3 * x3[i];
    }
  }

  static void Axpy4(float a0, float a1, float a2, float a3, const float* x0,
                    const float* x1, const float* x2, const float* x3,
                    float* out, int n) {
    const __m256 v0 = _mm256_set1_ps(a0), v1 = _mm256_set1_ps(a1);
    const __m256 v2 = _mm256_set1_ps(a2), v3 = _mm256_set1_ps(a3);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256 acc = _mm256_loadu_ps(out + i);
      acc = _mm256_fmadd_ps(v0, _mm256_loadu_ps(x0 + i), acc);
      acc = _mm256_fmadd_ps(v1, _mm256_loadu_ps(x1 + i), acc);
      acc = _mm256_fmadd_ps(v2, _mm256_loadu_ps(x2 + i), acc);
      acc = _mm256_fmadd_ps(v3, _mm256_loadu_ps(x3 + i), acc);
      _mm256_storeu_ps(out + i, acc);
    }
    for (; i < n; ++i) {
      out[i] += a0 * x0[i] + a1 * x1[i] + a2 * x2[i] + a3 * x3[i];
    }
  }

  static void Add(const double* x, double* out, int n) {
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(
          out + i, _mm256_add_pd(_mm256_loadu_pd(out + i),
                                 _mm256_loadu_pd(x + i)));
    }
    for (; i < n; ++i) out[i] += x[i];
  }

  static void Add(const float* x, float* out, int n) {
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          out + i, _mm256_add_ps(_mm256_loadu_ps(out + i),
                                 _mm256_loadu_ps(x + i)));
    }
    for (; i < n; ++i) out[i] += x[i];
  }

  static void Relu(double* x, int n) {
    const __m256d zero = _mm256_setzero_pd();
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
    }
    for (; i < n; ++i) {
      if (x[i] < 0.0) x[i] = 0.0;
    }
  }

  static void Relu(float* x, int n) {
    const __m256 zero = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
    }
    for (; i < n; ++i) {
      if (x[i] < 0.0f) x[i] = 0.0f;
    }
  }

  static double Sum(const double* x, int n) {
    __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
      acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(x + i + 4));
    }
    for (; i + 4 <= n; i += 4) {
      acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(x + i));
    }
    double s = internal::HSum(_mm256_add_pd(acc0, acc1));
    for (; i < n; ++i) s += x[i];
    return s;
  }

  static float Sum(const float* x, int n) {
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= n; i += 8) acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
    float s = internal::HSum(acc);
    for (; i < n; ++i) s += x[i];
    return s;
  }

  static double SumSqDiff(const double* x, double mean, int n) {
    const __m256d vm = _mm256_set1_pd(mean);
    __m256d acc = _mm256_setzero_pd();
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), vm);
      acc = _mm256_fmadd_pd(d, d, acc);
    }
    double s = internal::HSum(acc);
    for (; i < n; ++i) {
      const double d = x[i] - mean;
      s += d * d;
    }
    return s;
  }

  static float SumSqDiff(const float* x, float mean, int n) {
    const __m256 vm = _mm256_set1_ps(mean);
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + i), vm);
      acc = _mm256_fmadd_ps(d, d, acc);
    }
    float s = internal::HSum(acc);
    for (; i < n; ++i) {
      const float d = x[i] - mean;
      s += d * d;
    }
    return s;
  }

  static void NormScale(const double* x, double mean, double istd,
                        const double* gamma, const double* beta, double* out,
                        double* xhat, int n) {
    const __m256d vm = _mm256_set1_pd(mean);
    const __m256d vi = _mm256_set1_pd(istd);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d xh =
          _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vm), vi);
      if (xhat != nullptr) _mm256_storeu_pd(xhat + i, xh);
      _mm256_storeu_pd(out + i,
                       _mm256_fmadd_pd(xh, _mm256_loadu_pd(gamma + i),
                                       _mm256_loadu_pd(beta + i)));
    }
    for (; i < n; ++i) {
      const double xh = (x[i] - mean) * istd;
      if (xhat != nullptr) xhat[i] = xh;
      out[i] = xh * gamma[i] + beta[i];
    }
  }

  static void NormScale(const float* x, float mean, float istd,
                        const float* gamma, const float* beta, float* out,
                        float* xhat, int n) {
    const __m256 vm = _mm256_set1_ps(mean);
    const __m256 vi = _mm256_set1_ps(istd);
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 xh =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vm), vi);
      if (xhat != nullptr) _mm256_storeu_ps(xhat + i, xh);
      _mm256_storeu_ps(out + i,
                       _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + i),
                                       _mm256_loadu_ps(beta + i)));
    }
    for (; i < n; ++i) {
      const float xh = (x[i] - mean) * istd;
      if (xhat != nullptr) xhat[i] = xh;
      out[i] = xh * gamma[i] + beta[i];
    }
  }

#elif defined(SSIN_SIMD_NEON)

  static double Dot(const double* x, const double* y, int n) {
    float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      acc0 = vfmaq_f64(acc0, vld1q_f64(x + i), vld1q_f64(y + i));
      acc1 = vfmaq_f64(acc1, vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
    }
    double s = vaddvq_f64(vaddq_f64(acc0, acc1));
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  static float Dot(const float* x, const float* y, int n) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      acc = vfmaq_f32(acc, vld1q_f32(x + i), vld1q_f32(y + i));
    }
    float s = vaddvq_f32(acc);
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  static double Dot3(const double* x, const double* y, const double* z,
                     int n) {
    float64x2_t acc = vdupq_n_f64(0.0);
    int i = 0;
    for (; i + 2 <= n; i += 2) {
      acc = vfmaq_f64(acc, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)),
                      vld1q_f64(z + i));
    }
    double s = vaddvq_f64(acc);
    for (; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  static float Dot3(const float* x, const float* y, const float* z, int n) {
    float32x4_t acc = vdupq_n_f32(0.0f);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      acc = vfmaq_f32(acc, vmulq_f32(vld1q_f32(x + i), vld1q_f32(y + i)),
                      vld1q_f32(z + i));
    }
    float s = vaddvq_f32(acc);
    for (; i < n; ++i) s += x[i] * y[i] * z[i];
    return s;
  }

  static void Axpy(double a, const double* x, double* out, int n) {
    const float64x2_t va = vdupq_n_f64(a);
    int i = 0;
    for (; i + 2 <= n; i += 2) {
      vst1q_f64(out + i, vfmaq_f64(vld1q_f64(out + i), va, vld1q_f64(x + i)));
    }
    for (; i < n; ++i) out[i] += a * x[i];
  }

  static void Axpy(float a, const float* x, float* out, int n) {
    const float32x4_t va = vdupq_n_f32(a);
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(out + i, vfmaq_f32(vld1q_f32(out + i), va, vld1q_f32(x + i)));
    }
    for (; i < n; ++i) out[i] += a * x[i];
  }

  template <typename T>
  static void Axpy4(T a0, T a1, T a2, T a3, const T* x0, const T* x1,
                    const T* x2, const T* x3, T* out, int n) {
    Axpy(a0, x0, out, n);
    Axpy(a1, x1, out, n);
    Axpy(a2, x2, out, n);
    Axpy(a3, x3, out, n);
  }

  template <typename T>
  static void Add(const T* x, T* out, int n) {
    for (int i = 0; i < n; ++i) out[i] += x[i];
  }

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

  template <typename T>
  static T SumSqDiff(const T* x, T mean, int n) {
    T s = 0;
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

#else  // SSIN_SIMD_PORTABLE

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

#endif
};

// ------------------------------------------------------------------------
// Shared kernel templates. These are the single implementations behind the
// tensor-level matmul/layernorm entry points (src/tensor/ops.cc), the
// classical-solver Matrix product (src/common/matrix.cc), and the serving
// row kernels (src/nn/serving_kernels.h) — instantiated with VecOps in
// production and ScalarOps as the differential-test reference.

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
