#ifndef SSIN_PERFBENCH_SERVING_H_
#define SSIN_PERFBENCH_SERVING_H_

#include <memory>
#include <vector>

#include "inputs.h"
#include "serve/interpolation_server.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

/// A standing InterpolationServer with the workload's model registered as
/// two TracingInterpolator buffers, plus the weight generations the
/// nat1k_churn admin thread promotes.
struct ServingRig {
  std::unique_ptr<ssin::serve::InterpolationServer> server;
  std::shared_ptr<TracingInterpolator> buffers[2];
  std::vector<std::unique_ptr<ssin::SsinInterpolator>> generations;
};

/// Serving set-up, the part setup_s times: Prepare both registry buffers,
/// load the generation-A checkpoint into them, register, and either run
/// the f32 gate on both (nat1k_churn, which also prepares both promote
/// generations) or warm the shared layout (hk_shared). Returns nullptr and
/// records a failed check if the f32 gate leaves serving on f64.
std::unique_ptr<ServingRig> SetupServing(const WorkloadInputs& in,
                                         Checks* checks);

/// Counts and timings of one traffic phase.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t errored = 0;
  int64_t succeeded = 0;
  int64_t batches = 0;          ///< Server dispatches during the phase.
  int64_t accepted = 0;         ///< Server admissions during the phase.
  double send_window_s = 0.0;   ///< Open loop: first due to last send.
  int64_t outstanding_at_end = 0;  ///< Open loop: unfinished at last send.
  std::vector<double> latency_ms;  ///< Open loop; +inf for a failure.
  std::vector<double> send_lag_ms;
  /// Closed loop: the whole phase, fill and drain included (the metrics
  /// come from its slices).
  int64_t window_completions = 0;
  double window_s = 0.0;
  double window_cpu_s = 0.0;
};

/// One slice of the closed-loop measured window: `completions` requests
/// (max_batch_size) completed in `seconds` for `cpu_s` of process CPU
/// time. Traced runs alternate tracing across slices to measure its
/// overhead.
struct Slice {
  enum Tracing { kOff, kOn, kMixed };
  Tracing tracing = kOff;
  int64_t completions = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
};

struct ServedSample {
  Send send;
  std::vector<double> served;
  bool ok = false;
};

struct ServingResult {
  PhaseResult open;
  PhaseResult closed;
  std::vector<Slice> slices;
  std::vector<RequestRecord> requests;  ///< Open loop first, then closed.
  std::vector<DispatchRecord> dispatches;
  std::vector<double> promote_ms;
  std::vector<Span> promote_spans;
  int64_t layout_hits = 0;
  int64_t layout_misses = 0;
  int64_t layout_evictions = 0;
  size_t arena_peak_bytes = 0;
  std::vector<ServedSample> samples;
  int threads_used = 0;
};

/// Runs the open-loop then the closed-loop phase (with the nat1k_churn
/// admin thread promoting throughout). With `trace`, every open-loop
/// request and alternate closed-loop slices carry request spans.
ServingResult RunServing(const WorkloadInputs& in, ServingRig* rig,
                         bool trace, uint64_t seed);

/// Closed-loop capacity (1/s) and CPU ms per request over the slices with
/// the given tracing state (QuietRate / QuietCost), or over the whole
/// phase when the window produced no such slice (short runs).
double SliceCapacityQps(const ServingResult& result, Slice::Tracing tracing);
double SliceCpuMsPerReq(const ServingResult& result, Slice::Tracing tracing);

/// A plain interpolator prepared on the workload's network holding weight
/// generation `generation`.
std::unique_ptr<ssin::SsinInterpolator> LoadGeneration(
    const WorkloadInputs& in, int generation);

/// Held-out RMSE (mm) of `model` over every live hour, observed gauges ->
/// held-out sites, through the serving engine.
double HeldOutRmse(const WorkloadInputs& in, ssin::SsinInterpolator* model);

/// Output checks on the served sample: bit-equality with a direct
/// InterpolateTimestamp on `reference` (hk_shared), or with the direct f32
/// result of one weight generation plus the f32 gate against its f64
/// result (nat1k_churn, reference unused).
void CheckServed(const WorkloadInputs& in, const ServingResult& result,
                 ssin::SsinInterpolator* reference, Checks* checks);

/// Times `count` ModelRegistry::Promote calls of `source` into the rig.
std::vector<double> TimePromotes(const WorkloadInputs& in, ServingRig* rig,
                                 ssin::SsinInterpolator* source, int count);

}  // namespace perfbench

#endif  // SSIN_PERFBENCH_SERVING_H_
