#ifndef SSIN_NN_ATTENTION_H_
#define SSIN_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/attention_kernels.h"
#include "tensor/ops.h"

namespace ssin {

/// Multi-head shielded self-attention with spatial relative position
/// embeddings (paper §3.3.3, Eq. 4-7).
///
/// Each head h computes z^(h) via the packed shielded-attention kernel from
/// its own Q/K/V projections (all without bias, as in the original
/// Transformer); head outputs are concatenated and projected by W^O back to
/// the model dimension.
class MultiHeadSpaAttention : public Module {
 public:
  /// d_model: input embedding dimension d_e. d_k: per-head dimension.
  /// The SRPE tensor passed to Forward must have column width d_k.
  MultiHeadSpaAttention(int d_model, int num_heads, int d_k,
                        const AttentionConfig& config, Rng* rng);

  /// e: [L, d_model] node embeddings. srpe: relative position embeddings
  /// shared by all heads, [num_pairs, d_k] indexed by legal pair (pass an
  /// invalid Var when use_srpe=false). plan: the sequence's legal-pair
  /// plan, built once upstream (the caller of SpaFormer::ForwardWithPlan)
  /// and shared by every layer and head.
  Var Forward(Var e, Var srpe, std::shared_ptr<const AttentionPlan> plan);

  const AttentionConfig& config() const { return config_; }
  int num_heads() const { return static_cast<int>(heads_.size()); }
  int head_dim() const { return heads_[0].wq->out_features(); }
  /// Head h's bias-free [d_model, d_k] projections, and W^O.
  const Linear& query(int h) const { return *heads_[h].wq; }
  const Linear& key(int h) const { return *heads_[h].wk; }
  const Linear& value(int h) const { return *heads_[h].wv; }
  const Linear& output_proj() const { return *output_proj_; }

 private:
  struct Head {
    std::unique_ptr<Linear> wq;
    std::unique_ptr<Linear> wk;
    std::unique_ptr<Linear> wv;
  };

  AttentionConfig config_;
  std::vector<Head> heads_;
  std::unique_ptr<Linear> output_proj_;
};

}  // namespace ssin

#endif  // SSIN_NN_ATTENTION_H_
