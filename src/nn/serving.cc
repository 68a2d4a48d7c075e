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

template <typename T>
void ResolveNorm(const LayerNormLayer& norm, const WeightResolver<T>& resolve,
                 ServingNorm<T>* out) {
  out->gamma = resolve(norm.gamma_param());
  out->beta = resolve(norm.beta_param());
  out->eps = static_cast<T>(norm.eps());
}

// One encoder layer over the rows [begin, length) of x [length - begin, dm],
// evaluated for the rows [q_begin, length): returns their
// [length - q_begin, dm] outputs.
template <typename T>
const T* EncoderLayerRows(const ServingWeights<T>& w,
                          const ServingLayer<T>& layer, const T* x,
                          int begin, int length, int dm,
                          const IndexedSrpe<T>* srpe,
                          const AttentionPlan& plan, int q_begin,
                          InferenceWorkspace* ws) {
  const int H = w.num_heads;
  const int d = w.head_dim;
  const int nq = length - q_begin;
  T* concat = ws->arena<T>().Acquire({nq, H * d})->data();
  {
    SSIN_TRACE_SPAN("encoder.attention");
    // Head-major projection arenas: q [H, nq, d]; kv [2H, L, d] indexed by
    // sequence row, with k_h at block 2h and v_h at block 2h+1. Each head's
    // attention writes its column block of the concat directly (stride
    // H*d).
    T* q = ws->arena<T>().Acquire({H * nq, d})->data();
    T* kv = ws->arena<T>().Acquire({2 * H * length, d})->data();
    const T* const* wq = layer.qkv.data();
    fused::FusedQkvProjectRows<T, simd::VecOps>(x, begin, length, dm, q_begin,
                                                wq, wq + H, wq + 2 * H, H, d,
                                                q, kv);
    std::vector<T>* scores = ws->arena<T>().scores();
    for (int h = 0; h < H; ++h) {
      PackedAttentionForwardRowsStrided<T, simd::VecOps>(
          q + static_cast<int64_t>(h) * nq * d,
          kv + static_cast<int64_t>(2 * h) * length * d,
          kv + static_cast<int64_t>(2 * h + 1) * length * d, srpe, plan, d,
          q_begin, scores, /*alpha_out=*/nullptr,
          concat + static_cast<int64_t>(h) * d,
          /*z_stride=*/static_cast<int64_t>(H) * d);
    }
  }
  SSIN_TRACE_SPAN("encoder.ffn");
  // One scratch slab serves both sublayers: [d_ff] hidden tile + [dm] row
  // temporary, so the [L, d_ff] hidden activation never hits the arena.
  const ServingFcn<T>& ffn = layer.ffn;
  const int d_ff = ffn.fc1.out;
  T* hidden = ws->arena<T>().Scratch(static_cast<size_t>(d_ff) + dm);
  T* tmp = hidden + d_ff;
  T* x1 = ws->arena<T>().Acquire({nq, dm})->data();
  fused::FusedAttentionEpilogueRows<T, simd::VecOps>(
      concat, nq, H * d, layer.wo.w, layer.wo.b, dm,
      x + static_cast<int64_t>(q_begin - begin) * dm, layer.norm1.gamma,
      layer.norm1.beta, layer.norm1.eps, tmp, x1);
  T* out = ws->arena<T>().Acquire({nq, dm})->data();
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
BasicTensor<T>& FcnRows(const ServingFcn<T>& fcn, const T* x, int rows,
                        InferenceWorkspace* ws) {
  BasicTensor<T>* h = ws->arena<T>().Acquire({rows, fcn.fc1.out});
  fused::LinearRows<T, simd::VecOps>(x, rows, fcn.fc1.in, fcn.fc1.w,
                                     fcn.fc1.b, fcn.fc1.out, h->data());
  if (fcn.fc2.w == nullptr) return *h;
  if (fcn.relu) simd::VecOps::Relu(h->data(), static_cast<int>(h->numel()));
  BasicTensor<T>* out = ws->arena<T>().Acquire({rows, fcn.fc2.out});
  fused::LinearRows<T, simd::VecOps>(h->data(), rows, fcn.fc2.in, fcn.fc2.w,
                                     fcn.fc2.b, fcn.fc2.out, out->data());
  return *out;
}

template <typename T>
const BasicTensor<T>& ServingForward(const ServingWeights<T>& w, const T* x,
                                     const IndexedSrpe<T>* srpe,
                                     const BasicTensor<T>* sape,
                                     const AttentionPlan& plan,
                                     const std::vector<int>& layer_begin,
                                     InferenceWorkspace* ws) {
  const int length = plan.length;
  const int num_layers = static_cast<int>(w.layers.size());
  SSIN_CHECK_EQ(static_cast<int>(layer_begin.size()), num_layers + 1);
  SSIN_CHECK(layer_begin[0] >= 0 && layer_begin[num_layers] <= length);
  BasicTensor<T>& e = FcnRows(w.value_embedding, x, length, ws);
  const int dm = e.dim(1);
  if (sape != nullptr) {
    // SAPE: positions enter additively, exactly as Forward's Add(e, sape).
    SSIN_CHECK(sape->SameShape(e));
    simd::VecOps::Add(sape->data(), e.data(), static_cast<int>(e.numel()));
  }
  // h holds rows [layer_begin[t], length) of layer t's output.
  const T* h = e.data() + static_cast<int64_t>(layer_begin[0]) * dm;
  for (int t = 1; t <= num_layers; ++t) {
    SSIN_CHECK_LE(layer_begin[t - 1], layer_begin[t]);
    h = EncoderLayerRows(w, w.layers[t - 1], h, layer_begin[t - 1], length,
                         dm, srpe, plan, layer_begin[t], ws);
  }
  return FcnRows(w.head, h, length - layer_begin[num_layers], ws);
}

#define SSIN_INSTANTIATE_SERVING(T)                                          \
  template void ResolveLinear<T>(const Linear&, const WeightResolver<T>&,    \
                                 ServingLinear<T>*);                         \
  template void ResolveFcn<T>(const Fcn2&, const WeightResolver<T>&,         \
                              ServingFcn<T>*);                               \
  template void ResolveEncoder<T>(const Encoder&, const WeightResolver<T>&,  \
                                  ServingWeights<T>*);                       \
  template BasicTensor<T>& FcnRows<T>(const ServingFcn<T>&, const T*, int,   \
                                      InferenceWorkspace*);                  \
  template const BasicTensor<T>& ServingForward<T>(                          \
      const ServingWeights<T>&, const T*, const IndexedSrpe<T>*,            \
      const BasicTensor<T>*, const AttentionPlan&, const std::vector<int>&, \
      InferenceWorkspace*);

SSIN_INSTANTIATE_SERVING(double)
SSIN_INSTANTIATE_SERVING(float)

#undef SSIN_INSTANTIATE_SERVING

}  // namespace ssin
