#include "nn/attention.h"

#include <string>

namespace ssin {

MultiHeadSpaAttention::MultiHeadSpaAttention(int d_model, int num_heads,
                                             int d_k,
                                             const AttentionConfig& config,
                                             Rng* rng)
    : config_(config) {
  SSIN_CHECK_GE(num_heads, 1);
  heads_.resize(num_heads);
  for (int h = 0; h < num_heads; ++h) {
    heads_[h].wq = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    heads_[h].wk = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    heads_[h].wv = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    const std::string prefix = "head" + std::to_string(h);
    RegisterSubmodule(prefix + ".wq", heads_[h].wq.get());
    RegisterSubmodule(prefix + ".wk", heads_[h].wk.get());
    RegisterSubmodule(prefix + ".wv", heads_[h].wv.get());
  }
  output_proj_ =
      std::make_unique<Linear>(num_heads * d_k, d_model, /*bias=*/false, rng);
  RegisterSubmodule("wo", output_proj_.get());
}

Var MultiHeadSpaAttention::Forward(Var e, Var srpe,
                                   std::shared_ptr<const AttentionPlan> plan) {
  std::vector<Var> head_outputs;
  head_outputs.reserve(heads_.size());
  for (auto& head : heads_) {
    Var q = head.wq->Forward(e);
    Var k = head.wk->Forward(e);
    Var v = head.wv->Forward(e);
    head_outputs.push_back(SpaAttention(q, k, v, srpe, plan, config_));
  }
  Var concat = head_outputs.size() == 1 ? head_outputs[0]
                                        : ConcatCols(head_outputs);
  return output_proj_->Forward(concat);
}

}  // namespace ssin
