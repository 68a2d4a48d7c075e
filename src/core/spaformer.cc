#include "core/spaformer.h"

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

void CheckServingInput(const Tensor& x, const SequenceLayout& layout) {
  SSIN_CHECK_EQ(x.dim(1), 1);
  SSIN_CHECK_EQ(layout.length(), x.dim(0));
  SSIN_CHECK(layout.plan != nullptr);
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

void SpaFormer::EmbedLayoutPositions(SequenceLayout* layout,
                                     const Tensor& relpos_rows,
                                     InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.embed_positions");
  ws->Reset();
  ServingFcn<double> position;
  ResolveEmbedding(position_linear_, position_fcn_,
                   WeightResolver<double>(ParameterValue), &position);
  if (config_.position_mode == SpaFormerConfig::PositionMode::kSrpe) {
    SSIN_CHECK_EQ(relpos_rows.dim(0), layout->plan->num_pairs());
    SSIN_CHECK_EQ(relpos_rows.dim(1), 2);
    layout->srpe =
        FcnRows(position, relpos_rows.data(), relpos_rows.dim(0), ws);
  } else {
    SSIN_CHECK_EQ(layout->abspos.dim(0), layout->length());
    SSIN_CHECK_EQ(layout->abspos.dim(1), 2);
    layout->sape =
        FcnRows(position, layout->abspos.data(), layout->length(), ws);
  }
}

const Tensor& SpaFormer::Predict(const Tensor& x, const SequenceLayout& layout,
                                 InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.predict");
  CheckServingInput(x, layout);
  ws->Reset();
  // The f64 view points straight at the parameters; re-resolving it per
  // call costs a few dozen pointer stores and needs no invalidation.
  ServingWeights<double>* w = ws->serving_weights();
  ResolveServingWeights(WeightResolver<double>(ParameterValue), w);
  const bool srpe =
      config_.position_mode == SpaFormerConfig::PositionMode::kSrpe;
  return ServingForward(*w, x.data(), srpe ? &layout.srpe : nullptr,
                        srpe ? nullptr : &layout.sape, *layout.plan,
                        layout.num_observed, ws);
}

const TensorF32& SpaFormer::PredictF32(const Tensor& x,
                                       const SequenceLayout& layout,
                                       const F32WeightCache::Map& w,
                                       InferenceWorkspace* ws) {
  SSIN_TRACE_SPAN("spaformer.predict_f32");
  CheckServingInput(x, layout);
  ws->Reset();
  // Narrow the input values once; everything downstream stays f32.
  TensorF32* x32 = ws->AcquireF32(x.shape());
  const double* src = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    x32->data()[i] = static_cast<float>(src[i]);
  }
  const bool srpe =
      config_.position_mode == SpaFormerConfig::PositionMode::kSrpe;
  SSIN_CHECK(!(srpe ? layout.srpe_f32 : layout.sape_f32).empty())
      << "layout lacks converted f32 positions";
  return ServingForward(w.view, x32->data(),
                        srpe ? &layout.srpe_f32 : nullptr,
                        srpe ? nullptr : &layout.sape_f32, *layout.plan,
                        layout.num_observed, ws);
}

}  // namespace ssin
