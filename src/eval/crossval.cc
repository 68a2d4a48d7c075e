#include "eval/crossval.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace ssin {

namespace {

NodeSplit SplitForFold(const std::vector<std::vector<int>>& folds,
                       int fold) {
  NodeSplit split;
  split.test_ids = folds[fold];
  for (int other = 0; other < static_cast<int>(folds.size()); ++other) {
    if (other == fold) continue;
    split.train_ids.insert(split.train_ids.end(), folds[other].begin(),
                           folds[other].end());
  }
  std::sort(split.train_ids.begin(), split.train_ids.end());
  return split;
}

}  // namespace

std::vector<std::vector<int>> MakeFolds(int num_stations, int k, Rng* rng) {
  SSIN_CHECK_GE(k, 2);
  SSIN_CHECK_GE(num_stations, k);
  std::vector<int> perm = rng->Permutation(num_stations);
  std::vector<std::vector<int>> folds(k);
  for (int i = 0; i < num_stations; ++i) {
    folds[i % k].push_back(perm[i]);
  }
  for (auto& fold : folds) std::sort(fold.begin(), fold.end());
  return folds;
}

CrossValidationResult CrossValidate(
    const std::function<std::unique_ptr<SpatialInterpolator>()>& factory,
    const SpatialDataset& data, int k, Rng* rng,
    const EvalOptions& options) {
  const std::vector<std::vector<int>> folds =
      MakeFolds(data.num_stations(), k, rng);

  // Every interpolator is created on the calling thread before any fold
  // runs (factories may share an Rng or other mutable state); then folds fit
  // and evaluate across the pool, each fold's timestamps in order inside
  // its slot. Each evaluation keeps the (truth, prediction) pairs it scored,
  // and the pooled metrics merge them on the calling thread in (fold,
  // timestamp) order, so every thread count gives the same result.
  std::vector<NodeSplit> splits(k);
  std::vector<std::unique_ptr<SpatialInterpolator>> methods;
  for (int fold = 0; fold < k; ++fold) {
    splits[fold] = SplitForFold(folds, fold);
    methods.push_back(factory());
  }
  std::vector<EvalResult> fold_evals(k);
  std::vector<MetricsAccumulator> fold_pairs(k);
  EvalOptions fold_options = options;
  fold_options.num_threads = 1;  // Parallelism lives at the fold level.
  ThreadPool pool(options.num_threads);
  pool.ParallelFor(k, [&](int64_t fold, int /*slot*/) {
    fold_evals[fold] = EvaluateInterpolator(
        methods[fold].get(), data, splits[fold], fold_options,
        &fold_pairs[fold]);
  });
  CrossValidationResult result;
  MetricsAccumulator pooled;
  for (int fold = 0; fold < k; ++fold) {
    pooled.Merge(fold_pairs[fold]);
    result.folds.push_back(std::move(fold_evals[fold]));
  }
  result.pooled = pooled.Compute();
  return result;
}

}  // namespace ssin
