#include "stages.h"

#include <algorithm>

#include "common/rng.h"
#include "core/inference_engine.h"
#include "core/masking.h"
#include "core/spatial_context.h"
#include "nn/inference.h"
#include "nn/optimizer.h"
#include "tensor/attention_kernels.h"
#include "tensor/graph.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using ssin::Tensor;

/// Neighbor count the geo stage is timed with on every workload (the
/// nat1k_churn serving value).
constexpr int kNearestK = 32;

class StageTimer {
 public:
  explicit StageTimer(StageResult* result) : result_(result) {}

  /// Runs `fn` as one span named `name` and returns the span.
  template <typename Fn>
  Span Time(const char* name, Fn&& fn) {
    const int64_t begin = NowNs();
    fn();
    const int64_t end = NowNs();
    result_->ms[name].push_back(MsBetween(begin, end));
    result_->spans.push_back({name, begin, end, 0});
    return result_->spans.back();
  }

 private:
  StageResult* result_;
};

int64_t LayoutBytes(const ssin::SequenceLayout& layout) {
  const ssin::AttentionPlan& plan = *layout.plan;
  return static_cast<int64_t>(plan.key_index.size() * sizeof(int) +
                              plan.pair_rows.size() * sizeof(int64_t) +
                              plan.offset.size() * sizeof(int64_t)) +
         layout.srpe.numel() * static_cast<int64_t>(sizeof(double)) +
         layout.srpe_f32.numel() * static_cast<int64_t>(sizeof(float));
}

/// Bytes one packed-attention call touches, computed from sizes: per legal
/// pair its SRPE row, the gathered key and value rows, the key index and
/// the softmax weight; per query its q row and z row; plus the offsets.
/// Gathers are counted per pair, so this bounds DRAM traffic from above.
double AttentionBytes(int64_t pairs, int length, int d) {
  const double row = static_cast<double>(d) * sizeof(double);
  return static_cast<double>(pairs) *
             (3.0 * row + sizeof(int) + sizeof(double)) +
         static_cast<double>(length) * 2.0 * row +
         static_cast<double>(length + 1) * sizeof(int64_t);
}

void TrainingBatch(const WorkloadInputs& in, ssin::SsinInterpolator* weights,
                   bool short_mode, StageTimer* timer) {
  ssin::SsinInterpolator scratch(in.model_config, in.train_config);
  scratch.Prepare(in.train_data, in.split.train_ids);
  scratch.CopyParametersFrom(*weights);
  ssin::SpaFormer* model = scratch.model();
  ssin::SpatialContext context;
  context.Build(in.train_data, in.split.train_ids);

  const std::vector<int>& node_ids = in.split.train_ids;
  const int length = static_cast<int>(node_ids.size());
  const Tensor abspos = context.AbsposFor(node_ids);
  ssin::MaskingOptions options;
  options.mask_ratio = in.train_config.mask_ratio;
  ssin::Rng rng(in.train_config.seed);
  ssin::Adam adam(model->Parameters(), 0.9, 0.98, 1e-9);
  adam.set_learning_rate(1e-4);

  const bool national = in.kind == Kind::kNat1kChurn;
  const int batch = short_mode ? 2 : 8;
  const int batches = short_mode ? 1 : (national ? 2 : 3);
  for (int b = 0; b < batches; ++b) {
    for (int item = 0; item < batch; ++item) {
      const int hour = (b * batch + item) % in.train_data.num_timestamps();
      std::vector<double> values;
      for (int id : node_ids) values.push_back(in.train_data.Value(hour, id));
      const ssin::MaskedSequence seq = ssin::BuildMaskedSequence(
          values, ssin::SampleMask(length, options.mask_ratio, &rng),
          options);
      std::shared_ptr<const ssin::AttentionPlan> plan =
          ssin::BuildSequencePlan(model->config(), context, node_ids,
                                  seq.observed);
      const Tensor relpos =
          ssin::RelposRowsForPlan(context, node_ids, *plan, model->config());
      ssin::Graph graph;
      ssin::Var pred;
      timer->Time("train.forward", [&] {
        pred = model->ForwardWithPlan(&graph, seq.input, plan, relpos,
                                      abspos);
      });
      ssin::Var loss = ssin::Scale(
          ssin::MseLoss(ssin::GatherRows(pred, seq.target_positions),
                        seq.targets),
          1.0 / batch);
      timer->Time("train.backward", [&] { graph.Backward(loss); });
    }
    timer->Time("train.optimizer_step", [&] { adam.Step(); });
  }
  // Further steps on zeroed gradients cost the same update arithmetic and
  // give the step its own sample.
  for (int s = 0; s < (short_mode ? 2 : 7); ++s) {
    timer->Time("train.optimizer_step", [&] { adam.Step(); });
  }
}

}  // namespace

StageResult RunStagePass(const WorkloadInputs& in,
                         ssin::SsinInterpolator* weights, bool short_mode) {
  StageResult result;
  StageTimer timer(&result);
  ssin::SpaFormer* model = weights->model();
  const ssin::SpaFormerConfig& config = model->config();
  ssin::SpatialContext context;
  context.Build(in.train_data, in.split.train_ids);
  ssin::InferenceWorkspace ws;
  ssin::F32WeightCache f32_weights;

  for (int r = 0; r < (short_mode ? 3 : 10); ++r) {
    f32_weights.Clear();
    timer.Time("nn.f32_snapshot", [&] { f32_weights.EnsureFrom(model); });
  }
  std::shared_ptr<const ssin::F32WeightCache::Map> w32 =
      f32_weights.EnsureFrom(model);

  const bool national = in.kind == Kind::kNat1kChurn;
  const int num_layouts =
      std::min<int>(national ? 16 : 1, static_cast<int>(in.layouts.size()));
  const int reps = short_mode ? 1 : (national ? 2 : 20);
  ssin::Rng rng(in.train_config.seed + 1);
  double pairs_sum = 0.0, bytes_sum = 0.0, ns_per_pair_sum = 0.0,
         attention_bytes_sum = 0.0;
  int attention_samples = 0;
  for (int l = 0; l < num_layouts; ++l) {
    const Layout& spec = in.layouts[l];
    std::vector<int> node_ids = spec.observed_ids;
    node_ids.insert(node_ids.end(), spec.query_ids.begin(),
                    spec.query_ids.end());
    std::vector<uint8_t> observed(node_ids.size(), 0);
    std::fill(observed.begin(), observed.begin() + spec.observed_ids.size(), 1);
    const int length = static_cast<int>(node_ids.size());

    for (int rep = 0; rep < reps; ++rep) {
      timer.Time("geo.nearest_keys", [&] {
        context.NearestObservedKeys(node_ids, observed, kNearestK);
      });

      // The layout build by hand, step by step, inside one parent span.
      const int64_t steps_begin = NowNs();
      std::shared_ptr<const ssin::AttentionPlan> plan;
      const Span plan_span = timer.Time("core.plan_build", [&] {
        plan = ssin::BuildSequencePlan(config, context, node_ids, observed);
      });
      Tensor relpos;
      const Span relpos_span = timer.Time("core.relpos_rows", [&] {
        relpos = ssin::RelposRowsForPlan(context, node_ids, *plan, config);
      });
      ssin::SequenceLayout manual;
      manual.node_ids = node_ids;
      manual.num_observed = static_cast<int>(spec.observed_ids.size());
      manual.observed = observed;
      manual.plan = plan;
      manual.abspos = context.AbsposFor(node_ids);
      const Span embed_span = timer.Time("core.embed_positions", [&] {
        model->EmbedLayoutPositions(&manual, relpos, &ws);
      });
      const int64_t steps_end = NowNs();
      result.layout_steps_self_ms.push_back(
          SelfTimeMs(steps_begin, steps_end,
                     {{plan_span.begin_ns, plan_span.end_ns},
                      {relpos_span.begin_ns, relpos_span.end_ns},
                      {embed_span.begin_ns, embed_span.end_ns}}));
      result.spans.push_back({"core.layout_steps", steps_begin, steps_end, 0});

      std::shared_ptr<const ssin::SequenceLayout> layout;
      timer.Time("core.layout_build", [&] {
        layout = ssin::BuildSequenceLayout(model, context, spec.observed_ids,
                                           spec.query_ids, &ws);
      });
      pairs_sum += static_cast<double>(layout->plan->num_pairs());
      bytes_sum += static_cast<double>(LayoutBytes(*layout));

      std::vector<double> values;
      const int hour = rep % in.live_data.num_timestamps();
      for (int id : spec.observed_ids) {
        values.push_back(in.live_data.Value(hour, id));
      }
      ssin::MaskingOptions options;
      const Tensor x =
          ssin::BuildInferenceSequence(
              values, static_cast<int>(spec.query_ids.size()), options)
              .input;
      for (int k = 0; k < 3; ++k) {
        timer.Time("core.predict", [&] { model->Predict(x, *layout, &ws); });
        timer.Time("core.predict_f32",
                   [&] { model->PredictF32(x, *layout, *w32, &ws); });
      }

      // One head of shielded attention on this layout's plan and packed
      // SRPE, with synthetic projections of the right shape.
      const int d = config.d_k;
      const Tensor q = Tensor::Randn({length, d}, &rng);
      const Tensor k = Tensor::Randn({length, d}, &rng);
      const Tensor v = Tensor::Randn({length, d}, &rng);
      const Tensor& c = layout->srpe;  // Packed: [num_pairs, d_k].
      ssin::AttentionConfig cfg;
      cfg.packed_srpe = true;
      ssin::AttentionContext attention_context;
      Tensor z;
      for (int k_rep = 0; k_rep < 3; ++k_rep) {
        const int64_t begin = NowNs();
        ssin::PackedAttentionForwardInto(q, k, v, &c, *layout->plan, cfg,
                                         &attention_context, &z);
        const int64_t end = NowNs();
        result.spans.push_back({"tensor.attention", begin, end, 0});
        ns_per_pair_sum += static_cast<double>(end - begin) /
                           static_cast<double>(layout->plan->num_pairs());
        attention_bytes_sum +=
            AttentionBytes(layout->plan->num_pairs(), length, d);
        ++attention_samples;
      }
    }
  }
  const double layout_samples = static_cast<double>(num_layouts * reps);
  result.plan_pairs = pairs_sum / layout_samples;
  result.layout_bytes = bytes_sum / layout_samples;
  result.attention_ns_per_pair = ns_per_pair_sum / attention_samples;
  result.attention_bytes_per_call = attention_bytes_sum / attention_samples;

  TrainingBatch(in, weights, short_mode, &timer);
  return result;
}

}  // namespace perfbench
