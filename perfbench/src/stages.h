#ifndef SSIN_PERFBENCH_STAGES_H_
#define SSIN_PERFBENCH_STAGES_H_

#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// The offline stage pass of a traced run: times the library's public
/// per-stage calls on the workload's own layouts and on one training
/// batch of its network.
struct StageResult {
  /// Per-call durations in ms, keyed by span name (e.g. "core.plan_build").
  std::map<std::string, std::vector<double>> ms;
  double plan_pairs = 0.0;         ///< Mean AttentionPlan::num_pairs.
  double layout_bytes = 0.0;       ///< Mean plan + srpe + srpe_f32 bytes.
  double attention_ns_per_pair = 0.0;
  double attention_bytes_per_call = 0.0;
  /// Self time of the hand-assembled layout build (plan + relpos + embed
  /// inside one parent span): the glue between the timed steps.
  std::vector<double> layout_steps_self_ms;
  std::vector<Span> spans;
};

/// Runs the pass with the weights of `weights` (read, never written: the
/// training batch runs on a scratch copy).
StageResult RunStagePass(const WorkloadInputs& in,
                         ssin::SsinInterpolator* weights, bool short_mode);

}  // namespace perfbench

#endif  // SSIN_PERFBENCH_STAGES_H_
