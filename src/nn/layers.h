#ifndef SSIN_NN_LAYERS_H_
#define SSIN_NN_LAYERS_H_

#include "nn/module.h"
#include "tensor/ops.h"

namespace ssin {

/// Fully connected layer: y = x W (+ b).
class Linear : public Module {
 public:
  /// When `bias` is false this is the "linear layer without bias" of the
  /// paper's embedding ablations (Table 6, emb:*-l variants).
  Linear(int in_features, int out_features, bool bias, Rng* rng);

  Var Forward(Var x);

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

  /// Raw parameter access for the serving view (nn/serving.h), which reads
  /// the weights directly. bias_param() is null for bias-free layers.
  const Parameter* weight_param() const { return weight_; }
  const Parameter* bias_param() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Parameter* weight_;
  Parameter* bias_ = nullptr;
};

/// Two-layer fully connected network with hidden size `hidden` and an
/// optional ReLU between the layers.
///
/// With relu=false and bias=true this is the embedding FCN of paper
/// Eq. (2)/(3)/(9); with relu=true it is the Transformer feed-forward
/// network of Eq. (8).
class Fcn2 : public Module {
 public:
  Fcn2(int in_features, int hidden, int out_features, bool relu, bool bias,
       Rng* rng);

  Var Forward(Var x);

  /// Sublayer access for the serving view.
  const Linear& first() const { return first_; }
  const Linear& second() const { return second_; }
  bool relu() const { return relu_; }

 private:
  Linear first_;
  Linear second_;
  bool relu_;
};

/// Layer normalization with learnable gain/bias over the last dimension.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int features, double eps = 1e-5);

  Var Forward(Var x);

  /// Raw parameter access for the serving view.
  const Parameter* gamma_param() const { return gamma_; }
  const Parameter* beta_param() const { return beta_; }
  double eps() const { return eps_; }

 private:
  Parameter* gamma_;
  Parameter* beta_;
  double eps_;
};

}  // namespace ssin

#endif  // SSIN_NN_LAYERS_H_
