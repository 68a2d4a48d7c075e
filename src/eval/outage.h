#ifndef SSIN_EVAL_OUTAGE_H_
#define SSIN_EVAL_OUTAGE_H_

#include <vector>

#include "common/rng.h"
#include "core/interpolation.h"
#include "eval/metrics.h"

namespace ssin {

/// Gauge-outage robustness evaluation (failure injection).
///
/// Real gauge networks lose stations to power cuts, clogging and telemetry
/// failures, so an operational interpolator must degrade gracefully when a
/// random subset of the observed stations drops out each hour. SSIN
/// handles a varying observed set natively (the shielded attention simply
/// sees fewer observed nodes); this harness quantifies the degradation for
/// any SpatialInterpolator.
struct OutageResult {
  double outage_fraction = 0.0;
  Metrics metrics;
};

/// Evaluates `method` under per-timestamp random outages: for each
/// evaluated timestamp, each train station independently drops out with
/// probability `outage_fraction`; predictions for the test stations use
/// the surviving ones; at least two survive every timestamp, so the split
/// needs two or more training stations. The method must already be Fit()
/// on the full training set (models are trained once and must survive
/// outages at serving time, which is the operational scenario).
OutageResult EvaluateUnderOutage(SpatialInterpolator* method,
                                 const SpatialDataset& data,
                                 const NodeSplit& split,
                                 double outage_fraction, Rng* rng,
                                 int begin = 0, int end = -1,
                                 int stride = 1);

}  // namespace ssin

#endif  // SSIN_EVAL_OUTAGE_H_
