#include "nn/serving.h"

#include <cstdint>

#include "common/simd.h"
#include "common/telemetry.h"
#include "nn/inference.h"
#include "nn/layers.h"
#include "nn/serving_kernels.h"
#include "nn/transformer.h"

namespace ssin {

namespace {

// The workspace storage of each precision: arena tensors, the fused
// kernels' row tiles, and the attention kernel's per-query scores.
template <typename T>
struct Arena;

template <>
struct Arena<double> {
  static Tensor* Acquire(InferenceWorkspace* ws, const std::vector<int>& s) {
    return ws->Acquire(s);
  }
  static double* Scratch(InferenceWorkspace* ws, size_t n) {
    return ws->ScratchF64(n);
  }
  static std::vector<double>* Scores(InferenceWorkspace* ws) {
    return ws->f64_scores();
  }
};

template <>
struct Arena<float> {
  static TensorF32* Acquire(InferenceWorkspace* ws,
                            const std::vector<int>& s) {
    return ws->AcquireF32(s);
  }
  static float* Scratch(InferenceWorkspace* ws, size_t n) {
    return ws->ScratchF32(n);
  }
  static std::vector<float>* Scores(InferenceWorkspace* ws) {
    return ws->f32_scores();
  }
};

template <typename T>
void ResolveNorm(const LayerNormLayer& norm, const WeightResolver<T>& resolve,
                 ServingNorm<T>* out) {
  out->gamma = resolve(norm.gamma_param());
  out->beta = resolve(norm.beta_param());
  out->eps = static_cast<T>(norm.eps());
}

// One encoder layer over x [length, dm], evaluated for the queries
// [tail_begin, length): returns their [length - tail_begin, dm] outputs.
template <typename T>
const T* EncoderLayerRows(const ServingWeights<T>& w,
                          const ServingLayer<T>& layer, const T* x,
                          int length, int dm, const T* srpe,
                          const AttentionPlan& plan, int tail_begin,
                          InferenceWorkspace* ws) {
  const int H = w.num_heads;
  const int d = w.head_dim;
  const int nq = length - tail_begin;
  T* concat = Arena<T>::Acquire(ws, {nq, H * d})->data();
  {
    SSIN_TRACE_SPAN("encoder.attention");
    // Head-major projection arenas: q [H, nq, d]; kv [2H, L, d] with k_h
    // at block 2h and v_h at block 2h+1. Each head's attention writes its
    // column block of the concat directly (stride H*d).
    T* q = Arena<T>::Acquire(ws, {H * nq, d})->data();
    T* kv = Arena<T>::Acquire(ws, {2 * H * length, d})->data();
    const T* const* wq = layer.qkv.data();
    fused::FusedQkvProjectRows<T, simd::VecOps>(x, length, dm, tail_begin, wq,
                                                wq + H, wq + 2 * H, H, d, q,
                                                kv);
    std::vector<T>* scores = Arena<T>::Scores(ws);
    for (int h = 0; h < H; ++h) {
      PackedAttentionForwardRowsStrided<T, simd::VecOps>(
          q + static_cast<int64_t>(h) * nq * d,
          kv + static_cast<int64_t>(2 * h) * length * d,
          kv + static_cast<int64_t>(2 * h + 1) * length * d, srpe, plan, d,
          tail_begin, scores, /*alpha_out=*/nullptr,
          concat + static_cast<int64_t>(h) * d,
          /*z_stride=*/static_cast<int64_t>(H) * d);
    }
  }
  SSIN_TRACE_SPAN("encoder.ffn");
  // One scratch slab serves both sublayers: [d_ff] hidden tile + [dm] row
  // temporary, so the [L, d_ff] hidden activation never hits the arena.
  const ServingFcn<T>& ffn = layer.ffn;
  const int d_ff = ffn.fc1.out;
  T* hidden = Arena<T>::Scratch(ws, static_cast<size_t>(d_ff) + dm);
  T* tmp = hidden + d_ff;
  T* x1 = Arena<T>::Acquire(ws, {nq, dm})->data();
  fused::FusedAttentionEpilogueRows<T, simd::VecOps>(
      concat, nq, H * d, layer.wo.w, layer.wo.b, dm,
      x + static_cast<int64_t>(tail_begin) * dm, layer.norm1.gamma,
      layer.norm1.beta, layer.norm1.eps, tmp, x1);
  T* out = Arena<T>::Acquire(ws, {nq, dm})->data();
  fused::FusedFfnRows<T, simd::VecOps>(
      x1, nq, dm, d_ff, ffn.fc1.w, ffn.fc1.b, ffn.fc2.w, ffn.fc2.b, ffn.relu,
      layer.norm2.gamma, layer.norm2.beta, layer.norm2.eps, hidden, tmp, out);
  return out;
}

}  // namespace

template <typename T>
void ResolveLinear(const Linear& linear, const WeightResolver<T>& resolve,
                   ServingLinear<T>* out) {
  out->w = resolve(linear.weight_param());
  out->b = linear.bias_param() != nullptr ? resolve(linear.bias_param())
                                          : nullptr;
  out->in = linear.in_features();
  out->out = linear.out_features();
}

template <typename T>
void ResolveFcn(const Fcn2& fcn, const WeightResolver<T>& resolve,
                ServingFcn<T>* out) {
  ResolveLinear(fcn.first(), resolve, &out->fc1);
  ResolveLinear(fcn.second(), resolve, &out->fc2);
  out->relu = fcn.relu();
}

template <typename T>
void ResolveEncoder(const Encoder& encoder, const WeightResolver<T>& resolve,
                    ServingWeights<T>* w) {
  const MultiHeadSpaAttention& first = encoder.layer(0).attention();
  w->num_heads = first.num_heads();
  w->head_dim = first.head_dim();
  w->layers.resize(encoder.num_layers());
  for (int t = 0; t < encoder.num_layers(); ++t) {
    const EncoderLayer& layer = encoder.layer(t);
    const MultiHeadSpaAttention& attention = layer.attention();
    ServingLayer<T>* out = &w->layers[t];
    const int H = attention.num_heads();
    out->qkv.resize(3 * static_cast<size_t>(H));
    for (int h = 0; h < H; ++h) {
      out->qkv[h] = resolve(attention.query(h).weight_param());
      out->qkv[H + h] = resolve(attention.key(h).weight_param());
      out->qkv[2 * H + h] = resolve(attention.value(h).weight_param());
    }
    ResolveLinear(attention.output_proj(), resolve, &out->wo);
    ResolveNorm(layer.norm1(), resolve, &out->norm1);
    ResolveFcn(layer.ffn(), resolve, &out->ffn);
    ResolveNorm(layer.norm2(), resolve, &out->norm2);
  }
}

template <typename T>
ServingTensor<T>& FcnRows(const ServingFcn<T>& fcn, const T* x, int rows,
                          InferenceWorkspace* ws) {
  ServingTensor<T>* h = Arena<T>::Acquire(ws, {rows, fcn.fc1.out});
  fused::LinearRows<T, simd::VecOps>(x, rows, fcn.fc1.in, fcn.fc1.w,
                                     fcn.fc1.b, fcn.fc1.out, h->data());
  if (fcn.fc2.w == nullptr) return *h;
  if (fcn.relu) simd::VecOps::Relu(h->data(), static_cast<int>(h->numel()));
  ServingTensor<T>* out = Arena<T>::Acquire(ws, {rows, fcn.fc2.out});
  fused::LinearRows<T, simd::VecOps>(h->data(), rows, fcn.fc2.in, fcn.fc2.w,
                                     fcn.fc2.b, fcn.fc2.out, out->data());
  return *out;
}

template <typename T>
const ServingTensor<T>& ServingForward(const ServingWeights<T>& w,
                                       const T* x,
                                       const ServingTensor<T>* srpe,
                                       const ServingTensor<T>* sape,
                                       const AttentionPlan& plan,
                                       int tail_begin,
                                       InferenceWorkspace* ws) {
  const int length = plan.length;
  SSIN_CHECK(tail_begin >= 0 && tail_begin <= length);
  ServingTensor<T>& e = FcnRows(w.value_embedding, x, length, ws);
  const int dm = e.dim(1);
  if (sape != nullptr) {
    // SAPE: positions enter additively, exactly as Forward's Add(e, sape).
    SSIN_CHECK(sape->SameShape(e));
    simd::VecOps::Add(sape->data(), e.data(), static_cast<int>(e.numel()));
  }
  const T* c = srpe != nullptr ? srpe->data() : nullptr;
  const T* h = e.data();
  const int num_layers = static_cast<int>(w.layers.size());
  for (int t = 0; t < num_layers; ++t) {
    h = EncoderLayerRows(w, w.layers[t], h, length, dm, c, plan,
                         t + 1 == num_layers ? tail_begin : 0, ws);
  }
  return FcnRows(w.head, h, length - tail_begin, ws);
}

#define SSIN_INSTANTIATE_SERVING(T)                                          \
  template void ResolveLinear<T>(const Linear&, const WeightResolver<T>&,    \
                                 ServingLinear<T>*);                         \
  template void ResolveFcn<T>(const Fcn2&, const WeightResolver<T>&,         \
                              ServingFcn<T>*);                               \
  template void ResolveEncoder<T>(const Encoder&, const WeightResolver<T>&,  \
                                  ServingWeights<T>*);                       \
  template ServingTensor<T>& FcnRows<T>(const ServingFcn<T>&, const T*, int, \
                                        InferenceWorkspace*);                \
  template const ServingTensor<T>& ServingForward<T>(                        \
      const ServingWeights<T>&, const T*, const ServingTensor<T>*,           \
      const ServingTensor<T>*, const AttentionPlan&, int,                    \
      InferenceWorkspace*);

SSIN_INSTANTIATE_SERVING(double)
SSIN_INSTANTIATE_SERVING(float)

#undef SSIN_INSTANTIATE_SERVING

}  // namespace ssin
