#ifndef SSIN_NN_TRANSFORMER_H_
#define SSIN_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace ssin {

/// One Interpolation Transformer Module layer (paper §3.3.3): shielded
/// self-attention with SRPE followed by a position-wise feed-forward
/// network, each wrapped in residual + post-LayerNorm
/// (x = LayerNorm(x + Sublayer(x))).
class EncoderLayer : public Module {
 public:
  EncoderLayer(int d_model, int num_heads, int d_k, int d_ff,
               const AttentionConfig& config, Rng* rng);

  Var Forward(Var x, Var srpe, std::shared_ptr<const AttentionPlan> plan);

  /// Sublayer access for the serving view (nn/serving.h).
  const MultiHeadSpaAttention& attention() const { return attention_; }
  const Fcn2& ffn() const { return ffn_; }
  const LayerNormLayer& norm1() const { return norm1_; }
  const LayerNormLayer& norm2() const { return norm2_; }

 private:
  MultiHeadSpaAttention attention_;
  Fcn2 ffn_;
  LayerNormLayer norm1_;
  LayerNormLayer norm2_;
};

/// Stack of T identical encoder layers.
class Encoder : public Module {
 public:
  Encoder(int num_layers, int d_model, int num_heads, int d_k, int d_ff,
          const AttentionConfig& config, Rng* rng);

  /// `plan` is shared (not rebuilt) across all layers of the stack.
  Var Forward(Var x, Var srpe, std::shared_ptr<const AttentionPlan> plan);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  const EncoderLayer& layer(int t) const { return *layers_[t]; }

 private:
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
};

}  // namespace ssin

#endif  // SSIN_NN_TRANSFORMER_H_
