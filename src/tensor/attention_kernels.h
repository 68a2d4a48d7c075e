#ifndef SSIN_TENSOR_ATTENTION_KERNELS_H_
#define SSIN_TENSOR_ATTENTION_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/simd.h"
#include "tensor/tensor.h"

namespace ssin {

/// Configuration of the SpaFormer attention score/aggregation kernel.
///
/// The four paper variants map to flag combinations:
///   SpaFormer:          use_srpe=true,  shielded=true
///   "attn: w/o shield": use_srpe=true,  shielded=false
///   "attn: with SAPE":  use_srpe=false, shielded=true (positions added to
///                       the input embeddings upstream instead)
///   "naive trans":      use_srpe=false, shielded=false
struct AttentionConfig {
  /// Insert the spatial relative position embedding c_ij into the score:
  /// e_ij = sum_d(q_i ⊙ k_j ⊙ c_ij)/sqrt(d). When false the score is the
  /// ordinary scaled dot product q_i · k_j / sqrt(d).
  bool use_srpe = true;
  /// Shielded attention (paper §3.3.3): observed nodes attend to all
  /// observed nodes; unobserved nodes attend to themselves plus all
  /// observed nodes. When false every node attends to every node.
  bool shielded = true;
  /// Inert: read by no code. The packed kernels always take c as
  /// [num_pairs, d] indexed by legal pair. The field survives only because
  /// the benchmark sources (perfbench/src/stages.cc) still assign it; it
  /// goes with the next change to perfbench/.
  bool packed_srpe = true;
};

/// The per-sequence legal-pair structure of shielded attention, in packed
/// (CSR-like) form. Entry t in [offset[i], offset[i+1]) is query i's t-th
/// legal key: key id key_index[t]. Legal pair t is also the row of the
/// packed [num_pairs, d_k] SRPE tensor the kernels read for it, so only
/// legal pairs are ever embedded. pair_rows[t] = i*length + key_index[t]
/// encodes the pair's (query, key) positions; SpatialContext::
/// RelposForPairs decodes it to compute that row's relative position.
///
/// A plan depends only on (observed, shielded) — not on values or
/// parameters — so it is built once per sequence and shared by every
/// layer/head kernel invocation of that sequence (and is the cacheable
/// artifact a server can reuse across timestamps with the same gauge
/// outage pattern).
struct AttentionPlan {
  int length = 0;
  int num_observed = 0;
  bool shielded = true;
  std::vector<int> key_index;
  std::vector<int64_t> offset;     ///< size length+1
  std::vector<int64_t> pair_rows;  ///< size num_pairs(); the (query, key)
                                   ///< code i*L+j needs 64 bits once L*L
                                   ///< exceeds INT_MAX (L >= 46341)

  int64_t num_pairs() const {
    return static_cast<int64_t>(key_index.size());
  }
};

/// Builds the packed legal-pair plan for a sequence. `observed[i]` marks
/// nodes whose input value is a real observation (not masked/queried).
void BuildAttentionPlan(const std::vector<uint8_t>& observed, bool shielded,
                        AttentionPlan* plan);

/// Neighbor-limited shielded plan: query i's observed keys are restricted
/// to `neighbor_keys[i]` — strictly ascending sequence positions of
/// observed nodes, self excluded — instead of every observed node. Self
/// stays legal for every query (prepended for unobserved queries, merged
/// into sorted position for observed ones), reproducing full shielding's
/// exact key order. When every neighbor list holds all observed nodes
/// minus self (k >= num_observed suffices), the plan — key order, offsets
/// and pair rows — is identical to BuildAttentionPlan(shielded=true), so
/// packed-kernel summation order and therefore results are bit-identical.
/// Pair counts stay O(L*k) instead of O(L*m).
void BuildAttentionPlanLimited(
    const std::vector<uint8_t>& observed,
    const std::vector<std::vector<int>>& neighbor_keys, AttentionPlan* plan);

/// Plan over explicit per-row key lists: row i's legal keys are keys[i]
/// (positions in [0, length), self included wherever it is legal), in the
/// order the packed kernels visit them. A row with no keys must never be a
/// kernel query (the kernels check). Serving's cone layouts
/// (core/inference_engine.h) build their plan this way: every row they
/// evaluate keeps the keys of the full plan's row, in the full plan's
/// order, renumbered to the layout's row order.
void BuildAttentionPlanFromKeys(const std::vector<uint8_t>& observed,
                                bool shielded,
                                const std::vector<std::vector<int>>& keys,
                                AttentionPlan* plan);

/// Number of plans built (BuildAttentionPlan* calls) since process start.
/// Test hook for the once-per-sequence contract (SpaFormer::ForwardWithPlan
/// and its backward reuse the caller's plan in every layer/head and build
/// none; a layout-cache hit builds none).
int64_t AttentionPlanBuildCount();

/// Saved state from one attention forward invocation: the packed softmax
/// weights, aligned with the plan's pair indexing (alpha[t] is the weight
/// of legal pair t). Unlike the plan, a context is per (layer, head).
struct AttentionContext {
  std::vector<double> alpha;
  /// Per-query score scratch, kept here so repeated forward invocations on
  /// a reused context (inference workspaces) never reallocate.
  std::vector<double> scores;
};

/// SRPE rows read through a row index: legal pair t's c is row index[t]
/// of a table stored in chunks of 2^chunk_shift rows, each row d wide —
/// row r starts at chunks[r >> chunk_shift] + (r mod 2^chunk_shift) * d. This
/// is how the serving chain reads c out of a PairStore
/// (core/inference_engine.h), which holds one row per station pair for
/// every cached layout; packed [num_pairs, d] c stays a plain pointer.
template <typename T>
struct IndexedSrpe {
  const T* const* chunks = nullptr;
  const int32_t* index = nullptr;  ///< Table row of each legal pair.
  int chunk_shift = 0;
};

/// Legal pair t's c row: packed (row t of [num_pairs, d]) or indexed.
template <typename T>
inline const T* SrpeRow(const T* c, int64_t t, int d) {
  return c + t * d;
}
template <typename T>
inline const T* SrpeRow(const IndexedSrpe<T>* c, int64_t t, int d) {
  const int32_t r = c->index[t];
  const int32_t mask = (int32_t{1} << c->chunk_shift) - 1;
  return c->chunks[r >> c->chunk_shift] + static_cast<int64_t>(r & mask) * d;
}

/// The c rows of legal pairs [begin, begin + count) as one packed block,
/// or nullptr when an index does not store them as consecutive rows of one
/// chunk. Packed c always is one block; so are the rows of the first
/// layout a fresh PairStore appends, in plan order. Reading a block skips
/// the per-pair index lookup — the same rows, so the same arithmetic.
template <typename T>
inline const T* SrpeBlock(const T* c, int64_t begin, int64_t /*count*/,
                          int d) {
  return c + begin * d;
}
template <typename T>
inline const T* SrpeBlock(const IndexedSrpe<T>* c, int64_t begin,
                          int64_t count, int d) {
  const int32_t* rows = c->index + begin;
  const int64_t first = rows[0];
  if ((first >> c->chunk_shift) != ((first + count - 1) >> c->chunk_shift)) {
    return nullptr;
  }
  for (int64_t t = 1; t < count; ++t) {
    if (rows[t] != first + t) return nullptr;
  }
  return SrpeRow(c, begin, d);
}

/// Raw packed-attention forward, templated on element type and on the
/// kernel-primitive policy (simd::VecOps in production, simd::ScalarOps as
/// the bit-exact reference for the differential kernel tests — the
/// ScalarOps/double instantiation is the historical scalar kernel).
///
/// Computes attention outputs for queries [tail_begin, plan.length); row r
/// of q and z corresponds to query tail_begin + r (pass tail_begin = 0 for
/// the full sequence). k/v are indexed by sequence row, [L, d] row-major;
/// only the rows the processed queries' plan keys name are read.
/// c: optional relative-position embeddings, either packed — a T*
/// [num_pairs, d] with row t the c of legal pair t — or an IndexedSrpe<T>*
/// view; nullptr disables SRPE. Both address forms feed the same
/// arithmetic, so equal rows give bit-identical outputs. scores is
/// caller-owned per-query scratch (resized, never shrunk). alpha_out, when
/// non-null, receives the softmax weight of legal pair t at alpha_out[t]
/// (plan-global pair indexing; only pairs of the processed queries are
/// written). z rows are overwritten; row r starts at z + r*z_stride
/// (z_stride >= d), which lets a caller aim each head directly at its
/// column block of a wider concatenation tensor.
template <typename T, typename Ops, typename C = T>
void PackedAttentionForwardRowsStrided(const T* q, const T* k, const T* v,
                                       const C* c, const AttentionPlan& plan,
                                       int d, int tail_begin,
                                       std::vector<T>* scores, T* alpha_out,
                                       T* z, int64_t z_stride) {
  const T inv_sqrt_d = T(1) / std::sqrt(static_cast<T>(d));
  const int num_queries = plan.length - tail_begin;
  for (int r = 0; r < num_queries; ++r) {
    const int i = tail_begin + r;
    const int64_t begin = plan.offset[i];
    const int64_t count = plan.offset[i + 1] - begin;
    SSIN_CHECK_GT(count, 0) << "query " << i << " has no legal keys";
    scores->resize(static_cast<size_t>(count));
    T* score = scores->data();

    const T* q_row = q + static_cast<int64_t>(r) * d;
    const T* block = c != nullptr ? SrpeBlock(c, begin, count, d) : nullptr;
    T max_score = -std::numeric_limits<T>::infinity();
    for (int64_t t = 0; t < count; ++t) {
      const int j = plan.key_index[begin + t];
      const T* k_row = k + static_cast<int64_t>(j) * d;
      T s;
      if (c == nullptr) {
        s = Ops::Dot(q_row, k_row, d);
      } else {
        const T* c_row =
            block != nullptr ? block + t * d : SrpeRow(c, begin + t, d);
        s = Ops::Dot3(q_row, k_row, c_row, d);
      }
      score[t] = s * inv_sqrt_d;
      if (score[t] > max_score) max_score = score[t];
    }

    T denom = 0;
    for (int64_t t = 0; t < count; ++t) {
      score[t] = std::exp(score[t] - max_score);
      denom += score[t];
    }
    T* z_row = z + static_cast<int64_t>(r) * z_stride;
    for (int e = 0; e < d; ++e) z_row[e] = T(0);
    for (int64_t t = 0; t < count; ++t) {
      const T alpha = score[t] / denom;
      if (alpha_out != nullptr) alpha_out[begin + t] = alpha;
      const int j = plan.key_index[begin + t];
      Ops::Axpy(alpha, v + static_cast<int64_t>(j) * d, z_row, d);
    }
  }
}

/// Contiguous-output wrapper: z rows are packed with stride d. The serving
/// chain calls the strided core directly so each head writes its column
/// block of the concat tensor (stride num_heads*d) in place — identical
/// arithmetic, no per-head z tensor and no copy.
template <typename T, typename Ops>
void PackedAttentionForwardRows(const T* q, const T* k, const T* v,
                                const T* c, const AttentionPlan& plan,
                                int d, int tail_begin, std::vector<T>* scores,
                                T* alpha_out, T* z) {
  PackedAttentionForwardRowsStrided<T, Ops>(q, k, v, c, plan, d, tail_begin,
                                            scores, alpha_out, z,
                                            /*z_stride=*/d);
}

/// Packed shielded attention with SRPE — the CPU analog of the paper's TVM
/// CUDA kernel (§3.4.2). Visits only the O(mL) legal query-key pairs of
/// `plan` and never materializes an [L,L,d] intermediate.
///
/// q,k,v: [L,d]. c: optional relative-position embeddings, [num_pairs,d]
/// indexed by legal pair; must be non-null when cfg.use_srpe. Writes the
/// packed softmax weights into *ctx for the backward pass. Returns z:
/// [L,d].
Tensor PackedAttentionForward(const Tensor& q, const Tensor& k,
                              const Tensor& v, const Tensor* c,
                              const AttentionPlan& plan,
                              const AttentionConfig& cfg,
                              AttentionContext* ctx);

/// Allocation-free variant for reusable buffers: *z is resized to [L,d] and
/// overwritten. Identical arithmetic to PackedAttentionForward, which is
/// implemented on top of it.
void PackedAttentionForwardInto(const Tensor& q, const Tensor& k,
                                const Tensor& v, const Tensor* c,
                                const AttentionPlan& plan,
                                const AttentionConfig& cfg,
                                AttentionContext* ctx, Tensor* z);

/// Backward of PackedAttentionForward. dz: [L,d] upstream gradient.
/// Accumulates into dq/dk/dv (and dc when non-null and cfg.use_srpe; dc
/// uses the same layout as c); output tensors must be pre-sized and may
/// already hold partial sums.
void PackedAttentionBackward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor* c,
                             const AttentionPlan& plan,
                             const AttentionConfig& cfg,
                             const AttentionContext& ctx, const Tensor& dz,
                             Tensor* dq, Tensor* dk, Tensor* dv, Tensor* dc);

/// Reference "naive" implementation mirroring the paper's baseline: it
/// materializes the full [L,L,d] elementwise product (the dimension
/// extension of §3.4.2) and an [L,L] score matrix, then masks out illegal
/// connections. Unlike the packed kernels it takes its own dense c,
/// [L*L,d] with row i*L+j = c_ij — the paper baseline's layout. Given the
/// plan's rows of that c, the packed kernel matches it up to summation
/// order: the naive kernel is the packed path's independent oracle, and
/// the Figure 7 time/memory baseline.
Tensor NaiveAttentionForward(const Tensor& q, const Tensor& k,
                             const Tensor& v, const Tensor* c,
                             const std::vector<uint8_t>& observed,
                             const AttentionConfig& cfg);

/// Bytes of transient workspace each implementation needs for one forward
/// pass (the quantity plotted in Figure 7's memory panel).
int64_t NaiveAttentionWorkspaceBytes(int length, int d_k, bool use_srpe);

/// Exact per-sequence footprint of the packed pipeline: the plan (key
/// indices, offsets, pair rows), the packed softmax weights, and the
/// [num_pairs, d_k] SRPE rows — only the c_ij of legal pairs are ever
/// materialized, so this is the whole SRPE working set. `shielded=false`
/// counts the full L*L pair set.
int64_t PackedAttentionWorkspaceBytes(int length, int num_observed, int d_k,
                                      bool shielded = true);

}  // namespace ssin

#endif  // SSIN_TENSOR_ATTENTION_KERNELS_H_
