#ifndef SSIN_PERFBENCH_INPUTS_H_
#define SSIN_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ssin_interpolator.h"
#include "data/dataset.h"
#include "serve/interpolation_server.h"
#include "util.h"

namespace perfbench {

enum class Kind { kHkShared, kNat1kChurn };

/// Parses a workload name; returns false for an unknown one.
bool ParseKind(const std::string& name, Kind* kind);

/// One (observed, query) station layout a request may ask for.
struct Layout {
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
};

/// One request of the generated traffic: when it is due (open loop only,
/// relative to the phase start), which hour of `live` it carries and which
/// layout it asks for.
struct Send {
  int64_t offset_ns = 0;
  int hour = 0;
  int layout = 0;
};

/// A fixed training budget: what Prepare + ContinueTraining runs.
struct TrainBudget {
  int epochs = 1;
  int masks_per_sequence = 1;
  int batch_size = 8;
  int num_threads = 2;
};

/// Everything a workload run feeds the library, generated from the seed
/// before any timing starts. The library sees only these inputs.
struct WorkloadInputs {
  Kind kind = Kind::kHkShared;
  std::string name;
  std::string model_name;  ///< Registry name of the served model.

  ssin::SpaFormerConfig model_config;
  ssin::TrainConfig train_config;
  TrainBudget budget;

  ssin::SpatialDataset train_data;  ///< Hours for Prepare and training.
  ssin::SpatialDataset live_data;   ///< Hours served and scored (RMSE).
  ssin::NodeSplit split;            ///< Observed gauges / held-out sites.
  std::vector<Layout> layouts;      ///< hk_shared: one; nat1k_churn: the pool.

  double open_rate_qps = 0.0;
  double open_seconds = 0.0;
  double closed_seconds = 0.0;
  int closed_outstanding = 0;
  std::vector<Send> open_sends;
  std::vector<Send> closed_sends;  ///< Replayed cyclically.

  /// Served-weight checkpoints written here: generation A, and for
  /// nat1k_churn generation B (A trained further).
  std::vector<std::string> checkpoints;
  /// The training that produced the checkpoints.
  double gen_train_wall_s = 0.0;
  int64_t gen_train_items = 0;
  std::vector<double> gen_epoch_seconds;
  std::vector<double> gen_epoch_loss;

  int setup_repeats = 5;
  int check_samples = 32;
  double promote_interval_s = 0.0;  ///< nat1k_churn admin cadence.
  ssin::serve::ServerConfig server_config;
};

/// Builds the inputs of one workload from `options` (seed, seconds, short
/// mode), including the served checkpoints under options.out_dir.
WorkloadInputs GenerateInputs(Kind kind, const Options& options);

/// The request payload of one send: a copy of the hour's values plus the
/// layout's ids.
ssin::serve::Request MakeRequest(const WorkloadInputs& in, const Send& send);

}  // namespace perfbench

#endif  // SSIN_PERFBENCH_INPUTS_H_
