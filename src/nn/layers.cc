#include "nn/layers.h"

#include <cmath>

namespace ssin {

Linear::Linear(int in_features, int out_features, bool bias, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter("weight",
                              GlorotUniform(in_features, out_features, rng));
  if (bias) {
    // PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)). A
    // non-zero bias matters here — it is what lets the embedding FCNs map
    // a zero input to a non-zero embedding (paper §3.3.1).
    const double bound = 1.0 / std::sqrt(static_cast<double>(in_features));
    bias_ = RegisterParameter(
        "bias", Tensor::RandUniform({out_features}, rng, -bound, bound));
  }
}

Var Linear::Forward(Var x) {
  Graph* g = x.graph;
  Var out = MatMul(x, weight_->Bind(g));
  if (bias_ != nullptr) out = AddRow(out, bias_->Bind(g));
  return out;
}

Fcn2::Fcn2(int in_features, int hidden, int out_features, bool relu,
           bool bias, Rng* rng)
    : first_(in_features, hidden, bias, rng),
      second_(hidden, out_features, bias, rng),
      relu_(relu) {
  RegisterSubmodule("fc1", &first_);
  RegisterSubmodule("fc2", &second_);
}

Var Fcn2::Forward(Var x) {
  Var h = first_.Forward(x);
  if (relu_) h = Relu(h);
  return second_.Forward(h);
}

LayerNormLayer::LayerNormLayer(int features, double eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor({features}, 1.0));
  beta_ = RegisterParameter("beta", Tensor({features}));
}

Var LayerNormLayer::Forward(Var x) {
  Graph* g = x.graph;
  return LayerNorm(x, gamma_->Bind(g), beta_->Bind(g), eps_);
}

}  // namespace ssin
