#include "nn/transformer.h"

#include <string>

#include "common/telemetry.h"

namespace ssin {

EncoderLayer::EncoderLayer(int d_model, int num_heads, int d_k, int d_ff,
                           const AttentionConfig& config, Rng* rng)
    : attention_(d_model, num_heads, d_k, config, rng),
      ffn_(d_model, d_ff, d_model, /*relu=*/true, /*bias=*/true, rng),
      norm1_(d_model),
      norm2_(d_model) {
  RegisterSubmodule("attn", &attention_);
  RegisterSubmodule("ffn", &ffn_);
  RegisterSubmodule("norm1", &norm1_);
  RegisterSubmodule("norm2", &norm2_);
}

Var EncoderLayer::Forward(Var x, Var srpe,
                          std::shared_ptr<const AttentionPlan> plan) {
  Var attn;
  {
    SSIN_TRACE_SPAN("encoder.attention");
    attn = attention_.Forward(x, srpe, std::move(plan));
  }
  SSIN_TRACE_SPAN("encoder.ffn");
  x = norm1_.Forward(Add(x, attn));
  Var ff = ffn_.Forward(x);
  return norm2_.Forward(Add(x, ff));
}

Encoder::Encoder(int num_layers, int d_model, int num_heads, int d_k,
                 int d_ff, const AttentionConfig& config, Rng* rng) {
  SSIN_CHECK_GE(num_layers, 1);
  layers_.reserve(num_layers);
  for (int t = 0; t < num_layers; ++t) {
    layers_.push_back(std::make_unique<EncoderLayer>(d_model, num_heads, d_k,
                                                     d_ff, config, rng));
    RegisterSubmodule("layer" + std::to_string(t), layers_.back().get());
  }
}

Var Encoder::Forward(Var x, Var srpe,
                     std::shared_ptr<const AttentionPlan> plan) {
  for (auto& layer : layers_) {
    x = layer->Forward(x, srpe, plan);
  }
  return x;
}

}  // namespace ssin
