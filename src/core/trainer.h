#ifndef SSIN_CORE_TRAINER_H_
#define SSIN_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "core/masking.h"
#include "core/spaformer.h"
#include "core/spatial_context.h"
#include "data/dataset.h"
#include "nn/optimizer.h"

namespace ssin {

struct ParallelTrainState;  // Worker pool + per-slot buffers (trainer.cc).

/// SSIN training hyperparameters (paper §4.1.4 defaults, scaled down by the
/// bench harnesses for CPU budgets).
struct TrainConfig {
  int epochs = 100;
  int masks_per_sequence = 10;  ///< Random masks per sequence per epoch.
  double mask_ratio = 0.2;
  int batch_size = 64;
  /// Noam warmup steps. Clamped to a quarter of the first Train() call's
  /// total optimizer steps so short runs still traverse the whole
  /// schedule (the paper's 1200 is sized for 100-epoch GPU runs).
  int warmup_steps = 1200;
  double lr_factor = 1.0;  ///< Multiplier on the Noam schedule.

  /// Dynamic masking (paper default, after RoBERTa): a fresh mask each time
  /// a sequence is presented. False = "static masking" ablation: masks are
  /// drawn once in preprocessing and reused every epoch.
  bool dynamic_masking = true;
  /// Mean fill of hidden inputs (paper default) vs. the zero-fill ablation.
  bool mean_fill = true;

  /// Worker threads for data-parallel training (0 = one per hardware
  /// thread). Each batch item's forward/backward runs on a worker with a
  /// private graph and per-thread gradient buffers that are reduced into
  /// the model before the optimizer step; masks are pre-drawn on the main
  /// thread, so any thread count reproduces the serial run's item->mask
  /// assignment (equal results up to floating-point reduction order).
  /// 1 = the exact serial code path.
  int num_threads = 1;

  /// Crash-safe checkpointing: when non-empty, the trainer writes its full
  /// training state (model parameters, Adam moments/step, Noam schedule,
  /// RNG engine, epoch/shuffle cursor) to this path every
  /// `checkpoint_every_epochs` epochs and after the final epoch. Writes go
  /// to a temp file that is fsynced and atomically renamed over the
  /// target, so a kill mid-save never leaves a torn checkpoint; see
  /// SsinTrainer::ResumeFrom for the resume contract.
  std::string checkpoint_path;
  int checkpoint_every_epochs = 1;

  uint64_t seed = 17;
  bool verbose = false;

  /// Opt-in run telemetry: when true, Train() turns on the process-wide
  /// telemetry runtime (telemetry::SetEnabled(true)) before the first
  /// epoch, so the train.* metrics, trace spans and timing probes record.
  /// It never turns telemetry *off* — a caller that enabled it globally
  /// keeps it. Instrumentation is read-only: enabling it changes no
  /// numeric result (pinned by the equivalence tests).
  bool telemetry = false;
};

/// Per-run training statistics.
struct TrainStats {
  std::vector<double> epoch_loss;      ///< Mean masked-MSE per epoch.
  std::vector<double> epoch_seconds;   ///< Wall time per epoch.
  int64_t steps = 0;                   ///< Optimizer steps taken.

  double final_loss() const {
    return epoch_loss.empty() ? 0.0 : epoch_loss.back();
  }
  double mean_epoch_seconds() const;
};

/// The SSIN mask-and-recover training loop (paper §3.2): builds masked
/// sequences from historical observations, runs SpaFormer, and minimizes
/// MSE on the masked nodes with Adam under a Noam warmup schedule.
class SsinTrainer {
 public:
  /// `model` and `context` must outlive the trainer.
  SsinTrainer(SpaFormer* model, const SpatialContext* context,
              const TrainConfig& config);

  /// Trains on the values of `train_ids` stations over all timestamps of
  /// `data`. Can be called again (e.g. after adding data) to continue
  /// training with the same optimizer state.
  TrainStats Train(const SpatialDataset& data,
                   const std::vector<int>& train_ids);

  /// The learning-rate schedule in effect — created (and warmup-clamped)
  /// by the first Train() call; null before that.
  const NoamSchedule* schedule() const { return schedule_.get(); }

  /// Writes the complete training state to `path` with the atomic
  /// temp-file + fsync + rename protocol (nn/serialize.h). Called
  /// automatically per TrainConfig::checkpoint_path; also callable
  /// directly. Returns false on IO failure.
  bool SaveCheckpoint(const std::string& path) const;

  /// Restores model + optimizer + schedule + RNG + epoch cursor from a
  /// SaveCheckpoint() file. All-or-nothing: on corruption or an
  /// architecture mismatch it returns false and leaves the trainer and
  /// model untouched. After a successful resume the next Train() call
  /// continues the interrupted run — it starts at the saved epoch cursor
  /// and reproduces the uninterrupted run's remaining epochs (losses and
  /// final parameters to ≤1e-12, serial or thread-parallel). A checkpoint
  /// from a *finished* run instead warm-starts: Train() runs a fresh full
  /// set of epochs from the restored state, exactly as ContinueTraining
  /// on the original trainer would.
  bool ResumeFrom(const std::string& path);

  /// Epochs completed in the current (possibly resumed) run.
  int64_t epochs_completed() const { return epochs_completed_; }

 private:
  /// The per-batch loop body shared by the serial and parallel paths; adds
  /// each item's loss to `*loss_sum`/`*loss_count` and leaves the batch's
  /// mean gradient accumulated in the model's parameters.
  /// `node_ids` maps sequence positions to stations (per-item plans and
  /// legal-pair relpos rows are derived from it).
  void RunBatch(const std::vector<int>& items, size_t start, size_t end,
                const std::vector<int>& node_ids,
                const std::vector<std::vector<double>>& sequences,
                const std::vector<std::vector<int>>& static_masks,
                const Tensor& abspos, const MaskingOptions& mask_options,
                ParallelTrainState* state, double* loss_sum,
                int64_t* loss_count);
  SpaFormer* model_;
  const SpatialContext* context_;
  TrainConfig config_;
  Adam optimizer_;
  std::unique_ptr<NoamSchedule> schedule_;  ///< Created on first Train().
  Rng rng_;

  // Progress state for checkpoint/resume: the epoch cursor, the item
  // permutation as of the last completed epoch, and (static-masking runs)
  // the masks drawn at preprocessing time. `resume_pending_` marks state
  // restored by ResumeFrom() that the next Train() call should continue
  // from instead of starting a fresh run.
  int64_t epochs_completed_ = 0;
  std::vector<int> item_order_;
  std::vector<std::vector<int>> static_masks_;
  bool resume_pending_ = false;
};

}  // namespace ssin

#endif  // SSIN_CORE_TRAINER_H_
