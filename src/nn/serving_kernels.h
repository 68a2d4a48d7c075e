#ifndef SSIN_NN_SERVING_KERNELS_H_
#define SSIN_NN_SERVING_KERNELS_H_

#include <cmath>
#include <cstdint>

#include "common/simd.h"

/// \file
/// Row kernels of the graph-free serving chain (nn/serving.h).
///
/// A per-op composition would materialize every intermediate — per-head
/// q/k/v projections, per-head attention outputs, the head concatenation,
/// the FFN hidden activation [L, d_ff] — so at serving sizes the forward
/// would be bandwidth-bound: each stage streams a full [L, *] tensor out to
/// memory and the next stage streams it back in. The kernels here fuse the
/// chain row-wise:
///
///   LinearRows                 per row: x_row · W (+ bias) — the
///                              embedding and prediction-head layers
///   FusedQkvProjectRows        one pass over the input rows computes every
///                              head's q/k/v projection (one read of x per
///                              row instead of 3*H)
///   FusedAttentionEpilogueRows per row: concat · W^O (+bias) + residual,
///                              LayerNorm — the row never leaves L1 between
///                              the output projection and the norm
///   FusedFfnRows               per row: linear -> ReLU -> linear ->
///                              residual -> LayerNorm with the [d_ff]
///                              hidden activation in a reusable L1 tile
///                              instead of a full [L, d_ff] arena tensor
///
/// Arithmetic contract: every kernel reproduces, per output element, the
/// exact arithmetic sequence of the per-op composition it replaces — the
/// inner row product is the same zero-then-Axpy4/Axpy sequence as
/// MatMulInto (simd::MatMulAccRows), the residual adds execute in the same
/// operand order as Tensor::Accumulate / Ops::Add, and the LayerNorm row
/// body is simd::LayerNormRows verbatim. Only the *interleaving across
/// elements* changes, so for a given Ops policy a kernel is bit-identical
/// to the composition (the one exception is the sign of exact-zero ReLU
/// outputs: Ops::Relu may flip -0.0 to +0.0 where a branchy ReLU keeps
/// -0.0 — value-equal under ==). tests/kernel_differential_test.cc pins
/// each kernel against the ScalarOps composition.
///
/// Determinism: every output element is written by exactly one call in a
/// fixed order, and the kernels run inline on the serving thread — results
/// are independent of thread count by construction.

namespace ssin {
namespace fused {

/// One output row of a matmul: out_row[n] = x_row[k] · w[k,n], zeroing
/// out_row first. Per-element this is exactly MatMulInto's Fill(0) +
/// simd::MatMulAccRows inner sequence (Axpy4 over groups of four w rows,
/// Axpy remainder), so a row kernel matches the tensor-level matmul bit for
/// bit under the same Ops policy.
template <typename T, typename Ops>
inline void MatVecRowInto(const T* x_row, const T* w, int k, int n,
                          T* out_row) {
  for (int j = 0; j < n; ++j) out_row[j] = T(0);
  int p = 0;
  for (; p + 4 <= k; p += 4) {
    const T* b0 = w + static_cast<int64_t>(p) * n;
    Ops::Axpy4(x_row[p], x_row[p + 1], x_row[p + 2], x_row[p + 3], b0,
               b0 + n, b0 + 2 * n, b0 + 3 * n, out_row, n);
  }
  for (; p < k; ++p) {
    Ops::Axpy(x_row[p], w + static_cast<int64_t>(p) * n, out_row, n);
  }
}

/// LayerNorm of one row; the row body of simd::LayerNormRows verbatim.
template <typename T, typename Ops>
inline void LayerNormRow(const T* x_row, const T* gamma, const T* beta,
                         T eps, int n, T* out_row) {
  const T mean = Ops::Sum(x_row, n) / static_cast<T>(n);
  const T var = Ops::SumSqDiff(x_row, mean, n) / static_cast<T>(n);
  const T istd = T(1) / std::sqrt(var + eps);
  Ops::NormScale(x_row, mean, istd, gamma, beta, out_row,
                 /*xhat=*/static_cast<T*>(nullptr), n);
}

/// Dense layer over `rows` rows of x [rows, k]: out_row = x_row · w [k, n]
/// (+ bias), bias may be null. Per element this is MatMulInto followed by
/// the AddRow bias add — the embedding and prediction-head layers of the
/// serving chain.
template <typename T, typename Ops>
void LinearRows(const T* x, int rows, int k, const T* w, const T* bias,
                int n, T* out) {
  for (int i = 0; i < rows; ++i) {
    T* out_row = out + static_cast<int64_t>(i) * n;
    MatVecRowInto<T, Ops>(x + static_cast<int64_t>(i) * k, w, k, n,
                          out_row);
    if (bias != nullptr) Ops::Add(bias, out_row, n);
  }
}

/// Fused multi-head QKV projection: one pass over rows [begin, length) of
/// a sequence computes, for every head h in [0, num_heads):
///
///   k_h[i]           = x_row_i · wk[h]   for rows i >= begin
///   v_h[i]           = x_row_i · wv[h]   for rows i >= begin
///   q_h[i - q_begin] = x_row_i · wq[h]   for rows i >= q_begin
///
/// x holds the projected rows only: [length - begin, dm], row i of the
/// sequence at x + (i - begin)*dm. wq/wk/wv are arrays of num_heads weight
/// pointers, each [dm, d] row-major. Outputs are head-major: kv is
/// [2*num_heads, length, d] indexed by sequence row, with k_h at
/// kv + (2h)*length*d and v_h at kv + (2h+1)*length*d — rows below `begin`
/// are left unwritten; q is [num_heads, length - q_begin, d]. Keys/values
/// cover the rows a layer reads, queries the rows it writes
/// (begin <= q_begin; pass 0 and 0 for a full layer) — a serving layer's
/// row ranges folded into the same pass.
template <typename T, typename Ops>
void FusedQkvProjectRows(const T* x, int begin, int length, int dm,
                         int q_begin, const T* const* wq, const T* const* wk,
                         const T* const* wv, int num_heads, int d, T* q,
                         T* kv) {
  const int nq = length - q_begin;
  for (int i = begin; i < length; ++i) {
    const T* x_row = x + static_cast<int64_t>(i - begin) * dm;
    for (int h = 0; h < num_heads; ++h) {
      MatVecRowInto<T, Ops>(
          x_row, wk[h], dm, d,
          kv + (static_cast<int64_t>(2 * h) * length + i) * d);
      MatVecRowInto<T, Ops>(
          x_row, wv[h], dm, d,
          kv + (static_cast<int64_t>(2 * h + 1) * length + i) * d);
      if (i >= q_begin) {
        MatVecRowInto<T, Ops>(
            x_row, wq[h], dm, d,
            q + (static_cast<int64_t>(h) * nq + (i - q_begin)) * d);
      }
    }
  }
}

/// Fused attention epilogue: for each of the `rows` rows,
///
///   tmp      = concat_row[k] · wo[k,n] (+ wo_bias)
///   tmp     += residual_row            (the attention residual)
///   out_row  = LayerNorm(tmp; gamma, beta, eps)
///
/// in one pass, so the projected row goes straight from registers/L1 into
/// the norm instead of round-tripping a full [rows, n] arena tensor twice.
/// `residual` points at the rows the attention output pairs with — for a
/// layer that writes rows [q_begin, L) of an input holding rows
/// [begin, L), pass x + (q_begin - begin)*n so row r pairs with sequence
/// row q_begin + r. `tmp` is caller-provided scratch of n elements.
/// wo_bias may be null (the attention output projection has no bias).
template <typename T, typename Ops>
void FusedAttentionEpilogueRows(const T* concat, int rows, int k,
                                const T* wo, const T* wo_bias, int n,
                                const T* residual, const T* gamma,
                                const T* beta, T eps, T* tmp, T* out) {
  for (int i = 0; i < rows; ++i) {
    MatVecRowInto<T, Ops>(concat + static_cast<int64_t>(i) * k, wo, k, n,
                          tmp);
    if (wo_bias != nullptr) Ops::Add(wo_bias, tmp, n);
    Ops::Add(residual + static_cast<int64_t>(i) * n, tmp, n);
    LayerNormRow<T, Ops>(tmp, gamma, beta, eps, n,
                         out + static_cast<int64_t>(i) * n);
  }
}

/// Fused position-wise FFN sublayer: for each of the `rows` rows of
/// x [rows, d],
///
///   hidden   = x_row[d] · w1[d, d_ff] (+ b1), ReLU if `relu`
///   tmp      = hidden[d_ff] · w2[d_ff, d] (+ b2)
///   tmp     += x_row                   (the FFN residual)
///   out_row  = LayerNorm(tmp; gamma, beta, eps)
///
/// `hidden` (d_ff elements) and `tmp` (d elements) are caller-provided
/// scratch tiles reused across rows — the [rows, d_ff] hidden activation,
/// which would dominate the arena high-water mark, is never
/// materialized. b1/b2 may be null.
template <typename T, typename Ops>
void FusedFfnRows(const T* x, int rows, int d, int d_ff, const T* w1,
                  const T* b1, const T* w2, const T* b2, bool relu,
                  const T* gamma, const T* beta, T eps, T* hidden, T* tmp,
                  T* out) {
  for (int i = 0; i < rows; ++i) {
    const T* x_row = x + static_cast<int64_t>(i) * d;
    MatVecRowInto<T, Ops>(x_row, w1, d, d_ff, hidden);
    if (b1 != nullptr) Ops::Add(b1, hidden, d_ff);
    if (relu) Ops::Relu(hidden, d_ff);
    MatVecRowInto<T, Ops>(hidden, w2, d_ff, d, tmp);
    if (b2 != nullptr) Ops::Add(b2, tmp, d);
    Ops::Add(x_row, tmp, d);
    LayerNormRow<T, Ops>(tmp, gamma, beta, eps, d,
                         out + static_cast<int64_t>(i) * d);
  }
}

}  // namespace fused
}  // namespace ssin

#endif  // SSIN_NN_SERVING_KERNELS_H_
