/// Reproduces paper Table 5: model size, per-epoch training time and
/// per-sequence inference time of SpaFormer on the HK and BW setups.
///
/// Absolute times differ (single CPU core here vs. a V100 in the paper);
/// the reproduced facts are the ~33.6k parameter count and that such a
/// small model trains in seconds per epoch and infers in milliseconds per
/// sequence.

#include <thread>

#include "bench/bench_util.h"
#include "common/timer.h"

int main() {
  using namespace ssin;
  using namespace ssin::bench;
  Banner("bench_table5_model_cost", "Table 5");

  std::printf("%-8s %8s %10s %12s %18s %18s\n", "Dataset", "#Param",
              "#Seq", "SeqLength", "TrainTime/epoch(s)",
              "Inference(ms/seq)");

  for (const char* region_name : {"HK", "BW"}) {
    const bool is_hk = std::string(region_name) == "HK";
    RainfallSetup setup(is_hk ? HkRegionConfig() : BwRegionConfig(),
                        /*hours=*/Scaled(120), is_hk ? 21 : 22);

    TrainConfig training = ReducedTraining();
    training.epochs = 2;  // Enough to time an epoch.
    SsinInterpolator ssin(SpaFormerConfig::Paper(), training);
    ssin.Fit(setup.data, setup.split.train_ids);

    // Per-sequence inference time over the full network (L = all
    // stations, matching the paper's protocol).
    Timer timer;
    const int reps = 30;
    for (int r = 0; r < reps; ++r) {
      ssin.InterpolateTimestamp(setup.data.Values(r % 10),
                                setup.split.train_ids,
                                setup.split.test_ids);
    }
    const double infer_ms = timer.Millis() / reps;

    std::printf("%-8s %8lld %10d %12d %18.2f %18.2f\n", region_name,
                static_cast<long long>(ssin.model()->ParameterCount()),
                setup.data.num_timestamps(), setup.data.num_stations(),
                ssin.train_stats().mean_epoch_seconds(), infer_ms);
    std::fflush(stdout);
  }

  // Thread scaling of data-parallel training (the CPU analog of the
  // paper's batched GPU training): same model, data and seed at every
  // thread count — only the wall time changes.
  std::printf("\n--- training thread scaling (HK, %u hardware threads) ---\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %18s %10s\n", "Threads", "TrainTime/epoch(s)", "Speedup");
  RainfallSetup setup(HkRegionConfig(), /*hours=*/Scaled(120), 21);
  double serial_epoch_seconds = 0.0;
  for (int threads : {1, 2, 4}) {
    TrainConfig training = ReducedTraining();
    training.epochs = 2;
    training.num_threads = threads;
    SsinInterpolator ssin(SpaFormerConfig::Paper(), training);
    ssin.Fit(setup.data, setup.split.train_ids);
    const double epoch_seconds = ssin.train_stats().mean_epoch_seconds();
    if (threads == 1) serial_epoch_seconds = epoch_seconds;
    std::printf("%-8d %18.2f %9.2fx\n", threads, epoch_seconds,
                epoch_seconds > 0.0 ? serial_epoch_seconds / epoch_seconds
                                    : 0.0);
    std::fflush(stdout);
  }

  std::printf("\npaper reported: 33585 params; 19.5s (HK) / 19.2s (BW) per"
              " epoch; 2.6 / 2.7 ms per sequence (Tesla V100,\n"
              "3855/3640 sequences, 100 epochs x 10 masks).\n");
  return 0;
}
