#ifndef SSIN_NN_SERVING_H_
#define SSIN_NN_SERVING_H_

#include <functional>
#include <vector>

#include "tensor/attention_kernels.h"
#include "tensor/tensor.h"

/// \file
/// The graph-free serving chain: one forward, templated on the element type
/// (T = double behind SpaFormer::Predict, T = float behind PredictF32), that
/// evaluates the network with the fused row kernels of nn/serving_kernels.h
/// against a ServingWeights<T> view — no autograd tape, no [L, d_ff]
/// intermediate, no hash lookups on the request path.
///
/// Two references pin it: the autograd forward
/// (SsinInterpolator::InterpolateTimestampAutograd; engine == autograd to
/// 1e-12 in f64) and simd::ScalarOps (every row kernel against the per-op
/// ScalarOps composition, tests/kernel_differential_test.cc).

namespace ssin {

class Encoder;
class Fcn2;
class InferenceWorkspace;
class Linear;
struct Parameter;

/// One dense layer y = x W (+ b): w is [in, out] row-major; b is null for
/// bias-free layers.
template <typename T>
struct ServingLinear {
  const T* w = nullptr;
  const T* b = nullptr;
  int in = 0;
  int out = 0;
};

/// One or two dense layers: the embedding FCNs, the prediction head and the
/// encoder FFN. fc2.w == nullptr means fc1 alone (the bias-free linear
/// embeddings of the Table 6 ablations).
template <typename T>
struct ServingFcn {
  ServingLinear<T> fc1;
  ServingLinear<T> fc2;
  bool relu = false;  ///< ReLU between fc1 and fc2 (the encoder FFN).
};

template <typename T>
struct ServingNorm {
  const T* gamma = nullptr;
  const T* beta = nullptr;
  T eps = T(0);
};

/// One encoder layer (paper §3.3.3).
template <typename T>
struct ServingLayer {
  /// Per-head [d_model, d_k] projections: wq of heads 0..H-1, then their
  /// wk, then their wv — the pointer tables FusedQkvProjectRows takes.
  std::vector<const T*> qkv;
  ServingLinear<T> wo;
  ServingNorm<T> norm1;
  ServingFcn<T> ffn;
  ServingNorm<T> norm2;
};

/// Every weight the serving chain reads, as a flat per-layer pointer table.
///
/// The view owns no weights. For T = double it points straight at the
/// Parameter values and is re-resolved on every call into
/// workspace-held storage (InferenceWorkspace::serving_weights), so weight
/// mutations need no invalidation. For T = float it points at the narrowed
/// copies of an F32WeightCache snapshot and is resolved once per weight
/// generation, when the snapshot is built.
template <typename T>
struct ServingWeights {
  int num_heads = 0;
  int head_dim = 0;
  ServingFcn<T> value_embedding;
  std::vector<ServingLayer<T>> layers;
  ServingFcn<T> head;
};

/// Maps a parameter to the storage a view reads: its f64 value, or its
/// narrowed copy in an f32 snapshot.
template <typename T>
using WeightResolver = std::function<const T*(const Parameter*)>;

/// Point the view pieces at a module's parameters through `resolve`.
template <typename T>
void ResolveLinear(const Linear& linear, const WeightResolver<T>& resolve,
                   ServingLinear<T>* out);
template <typename T>
void ResolveFcn(const Fcn2& fcn, const WeightResolver<T>& resolve,
                ServingFcn<T>* out);

/// Resolves every encoder layer into w->layers (reusing its storage, so a
/// steady-state re-resolve allocates nothing) and sets num_heads and
/// head_dim.
template <typename T>
void ResolveEncoder(const Encoder& encoder, const WeightResolver<T>& resolve,
                    ServingWeights<T>* w);

/// `fcn` applied to the `rows` rows of x [rows, fcn.fc1.in]; returns the
/// [rows, out] result, an arena tensor of `ws` (one arena tensor per dense
/// layer, none for the activation).
template <typename T>
BasicTensor<T>& FcnRows(const ServingFcn<T>& fcn, const T* x, int rows,
                        InferenceWorkspace* ws);

/// The serving forward of one sequence: value embedding of x [L, 1] (plus
/// the pre-embedded `sape` [L, d_model] in SAPE mode), the encoder stack
/// with shielded attention over `plan` (SRPE: legal pair t reads its d_k
/// row through the index view `srpe` — a layout's PairStore rows; null in
/// SAPE mode), and the prediction head. `layer_begin` holds T + 1 row
/// offsets (SequenceLayout::layer_begin): layer t projects keys/values for
/// the rows it reads, [layer_begin[t-1], L), and evaluates only the rows
/// it writes, [layer_begin[t], L); the head runs over
/// [layer_begin[T], L). Each evaluated row reads only its plan keys, which
/// must lie in the layer's read range, so every returned value equals the
/// matching row of a full evaluation. Returns the [L - layer_begin[T], 1]
/// standardized predictions, valid until the workspace's next use. The
/// caller resets `ws`.
template <typename T>
const BasicTensor<T>& ServingForward(const ServingWeights<T>& w, const T* x,
                                     const IndexedSrpe<T>* srpe,
                                     const BasicTensor<T>* sape,
                                     const AttentionPlan& plan,
                                     const std::vector<int>& layer_begin,
                                     InferenceWorkspace* ws);

}  // namespace ssin

#endif  // SSIN_NN_SERVING_H_
