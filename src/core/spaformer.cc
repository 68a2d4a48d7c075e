#include "core/spaformer.h"

#include <type_traits>

#include "common/telemetry.h"
#include "core/inference_engine.h"

namespace ssin {

SpaFormerConfig SpaFormerConfig::EmbPosLinear() {
  SpaFormerConfig c;
  c.position_embedding = Embedding::kLinearNoBias;
  return c;
}

SpaFormerConfig SpaFormerConfig::EmbInputLinear() {
  SpaFormerConfig c;
  c.value_embedding = Embedding::kLinearNoBias;
  return c;
}

SpaFormerConfig SpaFormerConfig::EmbBothLinear() {
  SpaFormerConfig c;
  c.value_embedding = Embedding::kLinearNoBias;
  c.position_embedding = Embedding::kLinearNoBias;
  return c;
}

SpaFormerConfig SpaFormerConfig::WithSape() {
  SpaFormerConfig c;
  c.position_mode = PositionMode::kSape;
  return c;
}

SpaFormerConfig SpaFormerConfig::WithoutShield() {
  SpaFormerConfig c;
  c.shielded = false;
  return c;
}

SpaFormerConfig SpaFormerConfig::NaiveTransformer() {
  SpaFormerConfig c;
  c.value_embedding = Embedding::kLinearNoBias;
  c.position_embedding = Embedding::kLinearNoBias;
  c.position_mode = PositionMode::kSape;
  c.shielded = false;
  return c;
}

namespace {

AttentionConfig MakeAttentionConfig(const SpaFormerConfig& config) {
  AttentionConfig attn;
  attn.use_srpe =
      config.position_mode == SpaFormerConfig::PositionMode::kSrpe;
  attn.shielded = config.shielded;
  return attn;
}

// The f64 serving view reads the parameters in place.
const double* ParameterValue(const Parameter* p) { return p->value.data(); }

// An embedding module is either a bias-free Linear or an Fcn2.
template <typename T>
void ResolveEmbedding(const Linear* linear, const Fcn2* fcn,
                      const WeightResolver<T>& resolve, ServingFcn<T>* out) {
  if (fcn != nullptr) {
    ResolveFcn(*fcn, resolve, out);
    return;
  }
  ResolveLinear(*linear, resolve, &out->fc1);
  out->fc2 = ServingLinear<T>();
  out->relu = false;
}

}  // namespace

SpaFormer::SpaFormer(const SpaFormerConfig& config, Rng* rng)
    : config_(config),
      encoder_(config.num_layers, config.d_model, config.num_heads,
               config.d_k, config.d_ff, MakeAttentionConfig(config), rng),
      prediction_(config.d_model, config.d_model, 1, /*relu=*/false,
                  /*bias=*/true, rng) {
  value_embedding_ = MakeEmbedding(config.value_embedding, 1, config.d_model,
                                   rng, &value_linear_, &value_fcn_);
  RegisterSubmodule("iem", value_embedding_.get());

  const bool srpe =
      config.position_mode == SpaFormerConfig::PositionMode::kSrpe;
  const int pos_out = srpe ? config.d_k : config.d_model;
  position_embedding_ = MakeEmbedding(config.position_embedding, 2, pos_out,
                                      rng, &position_linear_, &position_fcn_);
  RegisterSubmodule(srpe ? "srpem" : "sapem", position_embedding_.get());

  RegisterSubmodule("itm", &encoder_);
  RegisterSubmodule("pm", &prediction_);
}

std::unique_ptr<Module> SpaFormer::MakeEmbedding(
    SpaFormerConfig::Embedding kind, int in, int out, Rng* rng,
    Linear** linear, Fcn2** fcn) {
  if (kind == SpaFormerConfig::Embedding::kFcn) {
    auto module = std::make_unique<Fcn2>(in, out, out, /*relu=*/false,
                                         /*bias=*/true, rng);
    *fcn = module.get();
    *linear = nullptr;
    return module;
  }
  auto module = std::make_unique<Linear>(in, out, /*bias=*/false, rng);
  *linear = module.get();
  *fcn = nullptr;
  return module;
}

Var SpaFormer::ApplyEmbedding(Linear* linear, Fcn2* fcn, Var in) {
  return linear != nullptr ? linear->Forward(in) : fcn->Forward(in);
}

Var SpaFormer::ForwardWithPlan(Graph* graph, const Tensor& x,
                               std::shared_ptr<const AttentionPlan> plan,
                               const Tensor& relpos_rows,
                               const Tensor& abspos) {
  SSIN_TRACE_SPAN("spaformer.forward");
  const int length = x.dim(0);
  SSIN_CHECK_EQ(x.dim(1), 1);
  SSIN_CHECK(plan != nullptr);
  SSIN_CHECK_EQ(plan->length, length);

  // Input Embedding Module.
  Var e;
  {
    SSIN_TRACE_SPAN("spaformer.embed");
    e = ApplyEmbedding(value_linear_, value_fcn_, graph->Constant(x));
  }

  Var srpe;  // Stays invalid in SAPE mode.
  if (config_.position_mode == SpaFormerConfig::PositionMode::kSrpe) {
    SSIN_TRACE_SPAN("spaformer.srpe");
    SSIN_CHECK_EQ(relpos_rows.dim(0), plan->num_pairs());
    SSIN_CHECK_EQ(relpos_rows.dim(1), 2);
    srpe = ApplyEmbedding(position_linear_, position_fcn_,
                          graph->Constant(relpos_rows));
  } else {
    SSIN_TRACE_SPAN("spaformer.sape");
    SSIN_CHECK_EQ(abspos.dim(0), length);
    SSIN_CHECK_EQ(abspos.dim(1), 2);
    Var sape = ApplyEmbedding(position_linear_, position_fcn_,
                              graph->Constant(abspos));
    e = Add(e, sape);  // APE-style addition, the paper's SAPE ablation.
  }

  Var h = encoder_.Forward(e, srpe, std::move(plan));
  SSIN_TRACE_SPAN("spaformer.head");
  return prediction_.Forward(h);  // [L, 1]
}

template <typename T>
void SpaFormer::ResolveServingWeights(const WeightResolver<T>& resolve,
                                      ServingWeights<T>* view) const {
  ResolveEmbedding(value_linear_, value_fcn_, resolve,
                   &view->value_embedding);
  ResolveEncoder(encoder_, resolve, view);
  ResolveFcn(prediction_, resolve, &view->head);
}

template void SpaFormer::ResolveServingWeights<double>(
    const WeightResolver<double>&, ServingWeights<double>*) const;
template void SpaFormer::ResolveServingWeights<float>(
    const WeightResolver<float>&, ServingWeights<float>*) const;

const Tensor& SpaFormer::EmbedPositionRows(const Tensor& rows,
                                           InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.embed_positions");
  SSIN_CHECK_EQ(rows.dim(1), 2);
  ws->Reset();
  ServingFcn<double> position;
  ResolveEmbedding(position_linear_, position_fcn_,
                   WeightResolver<double>(ParameterValue), &position);
  return FcnRows(position, rows.data(), rows.dim(0), ws);
}

void SpaFormer::EmbedLayoutPositions(SequenceLayout* layout,
                                     const Tensor& relpos_rows,
                                     InferenceWorkspace* ws) {
  if (config_.position_mode == SpaFormerConfig::PositionMode::kSrpe) {
    SSIN_CHECK_EQ(relpos_rows.dim(0), layout->plan->num_pairs());
    layout->srpe = EmbedPositionRows(relpos_rows, ws);
  } else {
    SSIN_CHECK_EQ(layout->abspos.dim(0), layout->length());
    layout->sape = EmbedPositionRows(layout->abspos, ws);
  }
}

template <typename T>
const BasicTensor<T>& SpaFormer::PredictRows(const Tensor& x,
                                             const SequenceLayout& layout,
                                             const ServingWeights<T>& w,
                                             InferenceWorkspace* ws) {
  const bool srpe =
      config_.position_mode == SpaFormerConfig::PositionMode::kSrpe;
  SSIN_CHECK_EQ(x.dim(1), 1);
  SSIN_CHECK_EQ(layout.length(), x.dim(0));
  SSIN_CHECK(layout.plan != nullptr);
  SSIN_CHECK(!layout.layer_begin.empty() &&
             layout.layer_begin.back() == layout.num_observed)
      << "layout lacks its layer row ranges";
  if (srpe) {
    SSIN_CHECK(layout.store != nullptr) << "layout lacks its pair store";
    SSIN_CHECK_EQ(static_cast<int64_t>(layout.store_rows.size()),
                  layout.plan->num_pairs());
  } else {
    SSIN_CHECK(!layout.Sape<T>().empty())
        << "layout lacks its embedded positions";
  }
  const T* input;
  if constexpr (std::is_same_v<T, double>) {
    input = x.data();
  } else {
    // Narrow the input values once; everything downstream stays in T.
    T* narrowed = ws->arena<T>().Acquire(x.shape())->data();
    for (int64_t i = 0; i < x.numel(); ++i) narrowed[i] = static_cast<T>(x[i]);
    input = narrowed;
  }
  const IndexedSrpe<T> c = srpe ? layout.SrpeRows<T>() : IndexedSrpe<T>();
  return ServingForward(w, input, srpe ? &c : nullptr,
                        srpe ? nullptr : &layout.Sape<T>(), *layout.plan,
                        layout.layer_begin, ws);
}

const Tensor& SpaFormer::Predict(const Tensor& x, const SequenceLayout& layout,
                                 InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.predict");
  ws->Reset();
  // The f64 view points straight at the parameters; re-resolving it per
  // call costs a few dozen pointer stores and needs no invalidation.
  ServingWeights<double>* w = ws->serving_weights();
  ResolveServingWeights(WeightResolver<double>(ParameterValue), w);
  return PredictRows(x, layout, *w, ws);
}

const TensorF32& SpaFormer::PredictF32(const Tensor& x,
                                       const SequenceLayout& layout,
                                       const F32WeightCache::Map& w,
                                       InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.predict_f32");
  ws->Reset();
  return PredictRows(x, layout, w.view, ws);
}

}  // namespace ssin
