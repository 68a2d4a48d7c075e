#ifndef SSIN_EVAL_CROSSVAL_H_
#define SSIN_EVAL_CROSSVAL_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/interpolation.h"
#include "eval/runner.h"

namespace ssin {

/// K-fold *spatial* cross-validation: stations are partitioned into k
/// folds; each fold is held out in turn and predicted from the others.
/// This is the standard way to estimate interpolation error when no
/// dedicated test network exists — a practitioner tool complementing the
/// paper's fixed 80/20 gauge split.
struct CrossValidationResult {
  std::vector<EvalResult> folds;
  Metrics pooled;  ///< Metrics over all (timestamp, held-out gauge) pairs.
};

/// Partitions {0..num_stations-1} into k disjoint folds of near-equal
/// size, in random order.
std::vector<std::vector<int>> MakeFolds(int num_stations, int k, Rng* rng);

/// Runs the full k-fold protocol. `factory` must produce a fresh
/// interpolator per fold (training state must not leak between folds).
/// All k factories run first, in fold order on the calling thread (they may
/// share an Rng); then the folds fit and evaluate on a pool of
/// options.num_threads, each fold's interpolator touched by exactly one
/// worker, and metrics are reduced in fold order, so the result is the same
/// at every thread count for deterministic interpolators.
CrossValidationResult CrossValidate(
    const std::function<std::unique_ptr<SpatialInterpolator>()>& factory,
    const SpatialDataset& data, int k, Rng* rng,
    const EvalOptions& options = EvalOptions());

}  // namespace ssin

#endif  // SSIN_EVAL_CROSSVAL_H_
