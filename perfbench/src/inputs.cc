#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "data/rainfall_generator.h"
#include "geo/coords.h"

namespace perfbench {

namespace {

using ssin::Rng;

// The deployment -- station split, training hours, model initialization and
// so the trained weights -- is the same for every run seed: a run stands
// for one more stretch of traffic against one deployed model, and its
// held-out RMSE then differs between seeds only through the served hours.
// Everything a run serves (hours, arrival schedule, catchment pool, check
// sample) comes from the run seed.
constexpr uint64_t kDeploymentSeed = 2023;

// Sub-seed streams; each input draws from its own stream so changing one
// generator never shifts another's draws.
constexpr uint64_t kTrainHoursStream = 1;
constexpr uint64_t kLiveHoursStream = 2;
constexpr uint64_t kSplitStream = 3;
constexpr uint64_t kTrafficStream = 4;
constexpr uint64_t kLayoutStream = 5;
constexpr uint64_t kModelStream = 6;
constexpr uint64_t kSubsetStream = 7;

// nat1k_churn catchment pool: four times the LayoutCache capacity of 64,
// drawn with Zipf(1.1) popularity, so the popular head hits and the tail
// keeps building layouts.
constexpr int kLayoutPool = 256;
constexpr double kZipfExponent = 1.1;

std::vector<int> NearestOf(const std::vector<ssin::PointKm>& positions,
                           const std::vector<int>& candidates, int center,
                           int count) {
  std::vector<std::pair<double, int>> by_distance;
  by_distance.reserve(candidates.size());
  for (int id : candidates) {
    by_distance.emplace_back(
        ssin::DistanceKm(positions[center], positions[id]), id);
  }
  std::sort(by_distance.begin(), by_distance.end());
  std::vector<int> out;
  for (int i = 0; i < count && i < static_cast<int>(by_distance.size());
       ++i) {
    out.push_back(by_distance[i].second);
  }
  return out;
}

/// nat1k_churn's (catchment, outage) pool: each entry asks for a small
/// spatially clustered set of held-out sites around a random centre, with
/// 2-4 of the centre's 12 nearest gauges out of service.
std::vector<Layout> CatchmentPool(const std::vector<ssin::PointKm>& positions,
                                  const ssin::NodeSplit& split, int pool,
                                  Rng* rng) {
  std::vector<Layout> layouts;
  layouts.reserve(pool);
  const int held_out = static_cast<int>(split.test_ids.size());
  for (int p = 0; p < pool; ++p) {
    const int center = split.test_ids[rng->UniformInt(0, held_out - 1)];
    const int size = static_cast<int>(rng->UniformInt(4, 8));
    Layout layout;
    layout.query_ids = NearestOf(positions, split.test_ids, center, size);
    std::sort(layout.query_ids.begin(), layout.query_ids.end());

    std::vector<int> near = NearestOf(positions, split.train_ids, center, 12);
    const int outages = static_cast<int>(rng->UniformInt(2, 4));
    std::vector<int> order = rng->Permutation(static_cast<int>(near.size()));
    std::vector<int> down;
    for (int i = 0; i < outages; ++i) down.push_back(near[order[i]]);
    for (int id : split.train_ids) {
      if (std::find(down.begin(), down.end(), id) == down.end()) {
        layout.observed_ids.push_back(id);
      }
    }
    layouts.push_back(std::move(layout));
  }
  return layouts;
}

/// Cumulative Zipf(s) weights over ranks 1..n.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

int DrawLayout(const std::vector<double>& cdf, Rng* rng) {
  if (cdf.empty()) return 0;
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<int>(it - cdf.begin()),
                  static_cast<int>(cdf.size()) - 1);
}

/// Number of masked training sequences one ContinueTraining call over
/// `data` processes under `budget`.
int64_t TrainItems(const ssin::SpatialDataset& data,
                   const TrainBudget& budget) {
  return static_cast<int64_t>(data.num_timestamps()) *
         budget.masks_per_sequence * budget.epochs;
}

/// The workload's training configuration carrying `budget`.
ssin::TrainConfig WithBudget(ssin::TrainConfig base,
                             const TrainBudget& budget) {
  base.epochs = budget.epochs;
  base.masks_per_sequence = budget.masks_per_sequence;
  base.batch_size = budget.batch_size;
  base.num_threads = budget.num_threads;
  return base;
}

/// Trains the served weights: Prepare with the workload's seeded
/// initialization, then one ContinueTraining per checkpoint, saving after
/// each; the wall time of the training calls is recorded.
void TrainCheckpoints(WorkloadInputs* in, const Options& options,
                      const std::vector<int>& train_ids, int generations) {
  ssin::SsinInterpolator model(in->model_config,
                               WithBudget(in->train_config, in->budget));
  model.Prepare(in->train_data, train_ids);
  for (int g = 0; g < generations; ++g) {
    const int64_t begin = NowNs();
    ssin::TrainStats stats = model.ContinueTraining(in->train_data, train_ids);
    in->gen_train_wall_s += MsBetween(begin, NowNs()) / 1e3;
    in->gen_train_items += TrainItems(in->train_data, in->budget);
    in->gen_epoch_seconds.insert(in->gen_epoch_seconds.end(),
                                 stats.epoch_seconds.begin(),
                                 stats.epoch_seconds.end());
    in->gen_epoch_loss.insert(in->gen_epoch_loss.end(),
                              stats.epoch_loss.begin(), stats.epoch_loss.end());
    const std::string path = options.out_dir + "/" + in->name + "-seed" +
                             std::to_string(options.seed) + "-gen" +
                             std::to_string(g) + ".ckpt";
    if (!model.Save(path)) {
      std::fprintf(stderr, "cannot write checkpoint %s\n", path.c_str());
      std::exit(2);
    }
    in->checkpoints.push_back(path);
  }
}

}  // namespace

bool ParseKind(const std::string& name, Kind* kind) {
  if (name == "hk_shared") {
    *kind = Kind::kHkShared;
  } else if (name == "nat1k_churn") {
    *kind = Kind::kNat1kChurn;
  } else {
    return false;
  }
  return true;
}

ssin::serve::Request MakeRequest(const WorkloadInputs& in, const Send& send) {
  ssin::serve::Request request;
  request.model = in.model_name;
  request.all_values = in.live_data.Values(send.hour);
  const Layout& layout = in.layouts[send.layout];
  request.observed_ids = layout.observed_ids;
  request.query_ids = layout.query_ids;
  return request;
}

WorkloadInputs GenerateInputs(Kind kind, const Options& options) {
  const bool short_mode = options.short_mode;
  WorkloadInputs in;
  in.kind = kind;
  in.name = kind == Kind::kHkShared ? "hk_shared" : "nat1k_churn";
  in.model_name = kind == Kind::kNat1kChurn ? "nat1k" : "hk";

  const bool national = kind == Kind::kNat1kChurn;
  const ssin::RainfallRegionConfig region =
      national ? ssin::NationalRegionConfig(1000) : ssin::HkRegionConfig();
  ssin::RainfallGenerator generator(region);

  // Enough held-out hours that the RMSE of one seed sits close to the
  // RMSE of another.
  int train_hours = national ? 64 : 32;
  int live_hours = national ? 128 : 384;
  if (short_mode) {
    train_hours = national ? 8 : 12;
    live_hours = national ? 6 : 16;
  }
  in.train_data = generator.GenerateHours(
      train_hours, SubSeed(kDeploymentSeed, kTrainHoursStream));
  in.live_data = generator.GenerateHours(
      live_hours, SubSeed(options.seed, kLiveHoursStream));
  Rng split_rng(SubSeed(kDeploymentSeed, kSplitStream));
  in.split = ssin::RandomNodeSplit(in.train_data.num_stations(), 0.2,
                                   &split_rng);

  in.model_config = ssin::SpaFormerConfig::Paper();
  if (national) in.model_config.neighbor_k = 32;
  in.train_config.mask_ratio = 0.2;
  in.train_config.warmup_steps = 8;
  in.train_config.lr_factor = 1.0;
  in.train_config.seed = SubSeed(kDeploymentSeed, kModelStream);

  if (national) {
    Rng layout_rng(SubSeed(options.seed, kLayoutStream));
    std::vector<ssin::PointKm> positions;
    for (const ssin::Station& s : generator.stations()) {
      positions.push_back(s.position);
    }
    in.layouts = CatchmentPool(positions, in.split,
                               short_mode ? 16 : kLayoutPool, &layout_rng);
  } else {
    in.layouts.push_back(Layout{in.split.train_ids, in.split.test_ids});
  }

  // Phase lengths are shares of --seconds; rates are absolute, sit well
  // below the serving capacity measured at the parent commit (latency at a
  // fixed rate climbs steeply as load nears capacity, which would turn
  // machine noise into latency noise), and give the open loop >= 1,000
  // completions at --seconds 40 so its p99 has >= 10 samples beyond it.
  // The served HK weights train on one thread, the trainer's serial path:
  // its epochs are steadier on a shared host than two threads that wait
  // on each other every batch.
  const double seconds = options.seconds;
  switch (kind) {
    case Kind::kHkShared:
      in.open_rate_qps = 100.0;
      in.open_seconds = 0.5 * seconds;
      in.closed_seconds = 0.5 * seconds;
      in.budget = {short_mode ? 2 : 12, 1, short_mode ? 4 : 32, 1};
      break;
    case Kind::kNat1kChurn:
      in.open_rate_qps = 45.0;
      in.open_seconds = 0.7 * seconds;
      in.closed_seconds = 0.3 * seconds;
      in.budget = {short_mode ? 2 : 4, 1, short_mode ? 4 : 16, 2};
      in.promote_interval_s = short_mode ? 0.25 : 3.0;
      break;
  }
  in.server_config.queue_capacity = 1024;
  // Short runs cut waves to 8 so the closed loop still completes a full
  // cycle of traced and untraced slices.
  in.server_config.max_batch_size = short_mode ? 8 : 64;
  in.server_config.batch_linger_us = 200;
  in.server_config.batch_threads = 1;
  in.closed_outstanding = 2 * static_cast<int>(in.server_config.max_batch_size);
  in.setup_repeats = short_mode ? 2 : (national ? 5 : 11);
  in.check_samples = short_mode ? 8 : 32;

  Rng traffic(SubSeed(options.seed, kTrafficStream));
  const std::vector<double> cdf =
      national ? ZipfCdf(static_cast<int>(in.layouts.size()), kZipfExponent)
               : std::vector<double>();
  const int hours = in.live_data.num_timestamps();
  const int64_t open_count = std::max<int64_t>(
      1, std::llround(in.open_rate_qps * in.open_seconds));
  double due_s = 0.0;
  for (int64_t i = 0; i < open_count; ++i) {
    due_s += traffic.Exponential(in.open_rate_qps);
    Send send;
    send.offset_ns = static_cast<int64_t>(due_s * 1e9);
    send.hour = static_cast<int>(traffic.UniformInt(0, hours - 1));
    send.layout = DrawLayout(cdf, &traffic);
    in.open_sends.push_back(send);
  }
  // Enough closed-loop sends for several times the parent's capacity over
  // the phase; the replay wraps around if a faster build outruns it.
  const int64_t closed_count = std::max<int64_t>(
      1024, std::llround((national ? 400.0 : 4000.0) * in.closed_seconds));
  for (int64_t i = 0; i < closed_count; ++i) {
    Send send;
    send.hour = static_cast<int>(traffic.UniformInt(0, hours - 1));
    send.layout = DrawLayout(cdf, &traffic);
    in.closed_sends.push_back(send);
  }

  if (!national) {
    TrainCheckpoints(&in, options, in.split.train_ids, 1);
  } else {
    // The served weights are trained on a seeded 160-gauge sub-network of
    // the observed set (the architecture does not depend on the network,
    // as in the paper's transfer setting): training at L=800 would cost
    // most of the run. Generation B is generation A trained further.
    Rng subset_rng(SubSeed(kDeploymentSeed, kSubsetStream));
    std::vector<int> order = subset_rng.Permutation(
        static_cast<int>(in.split.train_ids.size()));
    std::vector<int> subset;
    for (int i = 0; i < std::min<int>(160, static_cast<int>(order.size()));
         ++i) {
      subset.push_back(in.split.train_ids[order[i]]);
    }
    std::sort(subset.begin(), subset.end());
    TrainCheckpoints(&in, options, subset, 2);
  }
  return in;
}

}  // namespace perfbench
