#ifndef SSIN_CORE_SPAFORMER_H_
#define SSIN_CORE_SPAFORMER_H_

#include <memory>
#include <vector>

#include "nn/inference.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/serving.h"
#include "nn/transformer.h"

namespace ssin {

struct SequenceLayout;  // core/inference_engine.h

/// Architecture configuration of the SpaFormer model, including the
/// switches for every Table 6 ablation variant.
struct SpaFormerConfig {
  int num_layers = 3;  ///< T, Transformer blocks.
  int num_heads = 2;   ///< H.
  int d_model = 16;    ///< d_e, embedding dimension.
  int d_k = 16;        ///< Per-head query/key/value dimension.
  int d_ff = 256;      ///< Feed-forward hidden dimension.

  /// How numeric inputs are embedded.
  enum class Embedding {
    kFcn,           ///< Two-layer FCN with bias (paper Eq. 2/3).
    kLinearNoBias,  ///< Single linear layer without bias (ablation).
  };
  Embedding value_embedding = Embedding::kFcn;
  Embedding position_embedding = Embedding::kFcn;

  /// How spatial position enters the model.
  enum class PositionMode {
    kSrpe,  ///< Relative (distance, azimuth) in the attention (paper).
    kSape,  ///< Absolute [x, y] added to input embeddings (ablation).
  };
  PositionMode position_mode = PositionMode::kSrpe;

  /// Shielded attention (paper) vs. full self-attention (ablation).
  bool shielded = true;

  /// Neighbor-limited shielding. 0 — the default — is full shielding, the
  /// paper's exact §3.3.3 semantics and the bit-exact reference. k > 0
  /// caps every query's legal observed keys at its k spatially nearest
  /// (self always stays legal), so attention-plan pair counts and SRPE
  /// rows grow O(L*k) instead of O(L*m) — the knob that makes 1k–10k-
  /// station networks tractable. Requires shielded; applied by
  /// BuildSequencePlan, which every caller of ForwardWithPlan and the
  /// serving layouts share. When k >= num_observed the limited plan is
  /// identical to the full one, pair for pair, so results are
  /// bit-identical.
  int neighbor_k = 0;

  /// Radius-based neighbor selection (the distance-based sibling of
  /// neighbor_k, plumbed from geo::SpatialIndex::WithinRadius). 0 — the
  /// default — applies no radius cut; r > 0 restricts every query's legal
  /// observed keys to stations within r kilometers (travel-matrix
  /// kilometers on road-metric networks; self always stays legal). May be
  /// combined with neighbor_k: the radius filters first, then k caps the
  /// survivors at the k nearest. Same requirements as neighbor_k
  /// (shielded, applied by BuildSequencePlan); when every observed station
  /// lies within the radius the plan is identical to full shielding, pair
  /// for pair.
  double neighbor_radius_km = 0.0;

  /// Named constructors for the paper's ablation variants (Table 6).
  static SpaFormerConfig Paper() { return SpaFormerConfig(); }
  static SpaFormerConfig EmbPosLinear();
  static SpaFormerConfig EmbInputLinear();
  static SpaFormerConfig EmbBothLinear();
  static SpaFormerConfig WithSape();
  static SpaFormerConfig WithoutShield();
  static SpaFormerConfig NaiveTransformer();
};

/// The SpaFormer spatial interpolator model (paper §3.3): Input Embedding
/// Module, Spatial Relative Position Embedding Module, Interpolation
/// Transformer Module, and Prediction Module.
///
/// SRPE has one layout: the position embedding runs over the relative
/// positions of the sequence's legal attention pairs only, and the
/// attention kernels read its [num_pairs, d_k] output by legal-pair index
/// (paper §3.3.3 scores only the O(mL) legal pairs). ForwardWithPlan is
/// the one autograd entry; Predict/PredictF32 are the graph-free serving
/// chain over a prebuilt SequenceLayout.
class SpaFormer : public Module {
 public:
  SpaFormer(const SpaFormerConfig& config, Rng* rng);

  /// Runs the model on one sequence under a caller-built attention plan
  /// (BuildSequencePlan: full, unshielded or neighbor-limited).
  ///
  /// x:           [L, 1] standardized input values (masked/query nodes
  ///              pre-filled; see BuildMaskedSequence).
  /// plan:        the sequence's legal-pair plan, shared by every layer and
  ///              head and kept alive by the backward closures.
  /// relpos_rows: SRPE mode — [plan->num_pairs(), 2], row t = standardized
  ///              relpos of legal pair t (RelposRowsForPlan /
  ///              SpatialContext::RelposForPairs); SAPE mode — ignored
  ///              (pass an empty tensor).
  /// abspos:      [L, 2] standardized absolute coordinates (SAPE mode).
  /// Returns predictions, shape [L, 1], in standardized space.
  Var ForwardWithPlan(Graph* graph, const Tensor& x,
                      std::shared_ptr<const AttentionPlan> plan,
                      const Tensor& relpos_rows, const Tensor& abspos);

  /// Graph-free forward for serving (the f64 instantiation of the serving
  /// chain, nn/serving.h): evaluates the same network as ForwardWithPlan
  /// with zero autograd bookkeeping, reusing the plan and pre-embedded
  /// positions of `layout` and the activation arena of `ws` (resetting
  /// it). Returns the
  /// [L - num_observed, 1] standardized predictions of the query (trailing)
  /// rows — row r is sequence row num_observed + r — valid until the
  /// workspace's next use. The final encoder layer and the prediction head
  /// are evaluated for those rows only; every returned value matches
  /// ForwardWithPlan to 1e-12 (the engine == autograd pin).
  const Tensor& Predict(const Tensor& x, const SequenceLayout& layout,
                        InferenceWorkspace* ws);

  /// Float32 serving forward: the f32 instantiation of the same chain as
  /// Predict — the f64 input is narrowed once, the layout's pre-converted
  /// srpe_f32/sape_f32 feed the encoder, and every weight comes from the
  /// view of the converted snapshot `w` (see F32WeightCache). Returns
  /// the [L - num_observed, 1] standardized query predictions; callers
  /// destandardize in f64. Roughly half the memory traffic and twice the
  /// SIMD lane width of Predict, at single-precision accuracy — gate with
  /// SsinInterpolator::MeasureF32ServingDelta before enabling.
  const TensorF32& PredictF32(const Tensor& x, const SequenceLayout& layout,
                              const F32WeightCache::Map& w,
                              InferenceWorkspace* ws);

  /// Fills layout->srpe ([num_pairs, d_k], SRPE mode) or layout->sape
  /// (SAPE mode) by running the position-embedding module with the
  /// *current* weights. `relpos_rows` follows the ForwardWithPlan
  /// contract: [num_pairs, 2] legal-pair rows, or empty in SAPE mode
  /// (which embeds layout->abspos instead). The layout's abspos/plan must
  /// already be set.
  void EmbedLayoutPositions(SequenceLayout* layout, const Tensor& relpos_rows,
                            InferenceWorkspace* ws);

  /// Points `view` at every weight the serving chain reads, through
  /// `resolve` (T = double: the parameter values; T = float: the narrowed
  /// copies of an F32WeightCache snapshot). Re-resolving an
  /// already-shaped view only stores pointers.
  template <typename T>
  void ResolveServingWeights(const WeightResolver<T>& resolve,
                             ServingWeights<T>* view) const;

  const SpaFormerConfig& config() const { return config_; }

  /// Runtime toggles for neighbor-limited shielding (config().neighbor_k /
  /// config().neighbor_radius_km). Affect only plan construction for
  /// *future* sequences; the owning interpolator must invalidate its
  /// layout cache when flipping these.
  void set_neighbor_k(int k) { config_.neighbor_k = k; }
  void set_neighbor_radius_km(double radius_km) {
    config_.neighbor_radius_km = radius_km;
  }

 private:
  std::unique_ptr<Module> MakeEmbedding(SpaFormerConfig::Embedding kind,
                                        int in, int out, Rng* rng,
                                        Linear** linear, Fcn2** fcn);

  Var ApplyEmbedding(Linear* linear, Fcn2* fcn, Var in);

  SpaFormerConfig config_;

  // Input Embedding Module (scalar value -> d_model).
  std::unique_ptr<Module> value_embedding_;
  Linear* value_linear_ = nullptr;
  Fcn2* value_fcn_ = nullptr;

  // Position embedding: SRPE ([dist, azimuth] -> d_k) or SAPE
  // ([x, y] -> d_model, added to input embeddings).
  std::unique_ptr<Module> position_embedding_;
  Linear* position_linear_ = nullptr;
  Fcn2* position_fcn_ = nullptr;

  Encoder encoder_;
  Fcn2 prediction_;
};

}  // namespace ssin

#endif  // SSIN_CORE_SPAFORMER_H_
