#include "core/trainer.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/log.h"
#include "common/telemetry.h"
#include "core/inference_engine.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace ssin {

namespace {

// Training metrics (train.*). Counters record unconditionally (they are
// the trainer's statistics API); gauges/histograms and the grad-norm probe
// only when the telemetry runtime is enabled.
telemetry::Counter* StepsCounter() {
  static telemetry::Counter* counter = telemetry::GetCounter("train.steps");
  return counter;
}

telemetry::Counter* ExamplesCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("train.examples");
  return counter;
}

telemetry::Counter* MaskedNodesCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("train.masked_nodes");
  return counter;
}

telemetry::Histogram* GradNormHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("train.grad_norm");
  return histogram;
}

telemetry::Histogram* CheckpointSecondsHistogram() {
  static telemetry::Histogram* histogram =
      telemetry::GetHistogram("train.checkpoint_write_seconds");
  return histogram;
}

// L2 norm over every parameter gradient. Read-only: safe to run between
// backward and the optimizer step without perturbing training.
double GlobalGradNorm(const std::vector<Parameter*>& params) {
  double sum_sq = 0.0;
  for (const Parameter* p : params) {
    const double* g = p->grad.data();
    const int64_t n = p->grad.numel();
    for (int64_t i = 0; i < n; ++i) sum_sq += g[i] * g[i];
  }
  return std::sqrt(sum_sq);
}

}  // namespace

/// Data-parallel training state, allocated once per Train() call: the
/// worker pool, the flat parameter list, one gradient buffer per (slot,
/// parameter), and per-item scratch for the current batch. Masks are
/// pre-drawn into `item_masks` on the main thread (in item order, from the
/// trainer's rng_) so the item->mask assignment is the same at every thread
/// count; workers only read them. A pool of one runs the batch on the
/// calling thread through the same slot buffers.
struct ParallelTrainState {
  ThreadPool pool;
  std::vector<Parameter*> params;
  /// slot_grads[slot][pi] accumulates worker `slot`'s gradient for
  /// parameter pi; reduced into params[pi]->grad in slot order after the
  /// batch joins, then re-zeroed.
  std::vector<std::vector<Tensor>> slot_grads;
  std::vector<double> item_losses;
  std::vector<const std::vector<int>*> item_masks;
  std::vector<std::vector<int>> drawn_masks;  ///< Dynamic-mask storage.

  ParallelTrainState(int num_threads, SpaFormer* model)
      : pool(num_threads), params(model->Parameters()) {
    slot_grads.resize(pool.num_threads());
    for (auto& slot : slot_grads) {
      slot.reserve(params.size());
      for (const Parameter* p : params) slot.emplace_back(p->value.shape());
    }
  }
};

double TrainStats::mean_epoch_seconds() const {
  if (epoch_seconds.empty()) return 0.0;
  return std::accumulate(epoch_seconds.begin(), epoch_seconds.end(), 0.0) /
         static_cast<double>(epoch_seconds.size());
}

SsinTrainer::SsinTrainer(SpaFormer* model, const SpatialContext* context,
                         const TrainConfig& config)
    : model_(model),
      context_(context),
      config_(config),
      optimizer_(model->Parameters(), /*beta1=*/0.9, /*beta2=*/0.98,
                 /*eps=*/1e-9),
      rng_(config.seed) {}

TrainStats SsinTrainer::Train(const SpatialDataset& data,
                              const std::vector<int>& train_ids) {
  SSIN_TRACE_SPAN("train.run");
  const int num_sequences = data.num_timestamps();
  const int length = static_cast<int>(train_ids.size());
  SSIN_CHECK_GT(num_sequences, 0);
  SSIN_CHECK_GT(length, 1);

  // Static spatial inputs for the training sub-network: sequence node i is
  // station train_ids[i]. Relative positions are not precomputed: RunBatch
  // derives each item's O(L*k) legal-pair rows from the context on demand,
  // and SAPE needs none at all.
  const Tensor abspos = context_->AbsposFor(train_ids);

  MaskingOptions mask_options;
  mask_options.mask_ratio = config_.mask_ratio;
  mask_options.mean_fill = config_.mean_fill;

  // Raw value rows gathered once.
  std::vector<std::vector<double>> sequences(num_sequences);
  for (int t = 0; t < num_sequences; ++t) {
    sequences[t].resize(length);
    for (int i = 0; i < length; ++i) {
      sequences[t][i] = data.Value(t, train_ids[i]);
    }
  }

  const size_t num_items =
      static_cast<size_t>(num_sequences) * config_.masks_per_sequence;

  // A pending ResumeFrom() continues the interrupted run when its cursor
  // is mid-run and its shuffle state fits this dataset; a finished-run
  // checkpoint (or a mismatched dataset) warm-starts instead: fresh
  // cursor/order/masks from the restored rng, which is exactly what a
  // second Train() call on the original, uninterrupted trainer does.
  const bool resuming = resume_pending_ &&
                        epochs_completed_ < config_.epochs &&
                        item_order_.size() == num_items;
  resume_pending_ = false;

  // Static-masking ablation: one fixed mask per (sequence, repetition),
  // drawn during "preprocessing" and replayed every epoch. A resumed run
  // replays the checkpointed masks — the restored rng stream is already
  // past these draws.
  if (config_.dynamic_masking) {
    static_masks_.clear();
  } else {
    bool masks_valid = resuming && static_masks_.size() == num_items;
    for (size_t m = 0; masks_valid && m < static_masks_.size(); ++m) {
      for (int i : static_masks_[m]) {
        if (i < 0 || i >= length) masks_valid = false;
      }
    }
    if (!masks_valid) {
      static_masks_.assign(num_items, {});
      for (auto& mask : static_masks_) {
        mask = SampleMask(length, config_.mask_ratio, &rng_);
      }
    }
  }

  // An epoch presents every sequence masks_per_sequence times. The
  // permutation carries over epoch to epoch (each epoch shuffles the
  // previous order), so a resume restores the saved order verbatim.
  const int start_epoch = resuming ? static_cast<int>(epochs_completed_) : 0;
  if (!resuming) {
    item_order_.resize(num_items);
    std::iota(item_order_.begin(), item_order_.end(), 0);
    epochs_completed_ = 0;
  }

  if (schedule_ == nullptr) {
    // Size the warmup for this run: at most a quarter of the planned
    // steps, so short CPU runs still reach and traverse the decay phase.
    const int64_t steps_per_epoch = static_cast<int64_t>(
        (num_items + config_.batch_size - 1) / config_.batch_size);
    const int64_t planned = steps_per_epoch * config_.epochs;
    const int warmup = static_cast<int>(std::max<int64_t>(
        1, std::min<int64_t>(config_.warmup_steps, planned / 4)));
    schedule_ = std::make_unique<NoamSchedule>(model_->config().d_model,
                                               warmup, config_.lr_factor);
  }

  ParallelTrainState parallel(config_.num_threads, model_);

  TrainStats stats;
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    SSIN_TRACE_SPAN("train.epoch");
    Timer epoch_timer;
    rng_.Shuffle(&item_order_);
    double loss_sum = 0.0;
    int64_t loss_count = 0;

    for (size_t start = 0; start < item_order_.size();
         start += config_.batch_size) {
      SSIN_TRACE_SPAN("train.batch");
      const size_t end =
          std::min(item_order_.size(), start + config_.batch_size);
      model_->ZeroGrad();
      RunBatch(item_order_, start, end, train_ids, sequences, static_masks_,
               abspos, mask_options, &parallel, &loss_sum, &loss_count);
      if (telemetry::Enabled()) {
        // Read-only probe of the reduced (pre-step) batch gradient.
        GradNormHistogram()->Observe(GlobalGradNorm(model_->Parameters()));
      }
      schedule_->Step(&optimizer_);
      optimizer_.Step();
      ++stats.steps;
      StepsCounter()->Add(1);
      ExamplesCounter()->Add(static_cast<int64_t>(end - start));
    }

    stats.epoch_loss.push_back(loss_sum /
                               static_cast<double>(std::max<int64_t>(
                                   1, loss_count)));
    stats.epoch_seconds.push_back(epoch_timer.Seconds());
    if (telemetry::Enabled()) {
      telemetry::GetGauge("train.epoch_loss")->Set(stats.epoch_loss.back());
      telemetry::GetGauge("train.lr")->Set(optimizer_.learning_rate());
      const double secs = stats.epoch_seconds.back();
      telemetry::GetGauge("train.examples_per_sec")
          ->Set(secs > 0.0 ? static_cast<double>(num_items) / secs : 0.0);
    }
    if (config_.verbose) {
      SSIN_LOG(Info) << "epoch " << epoch + 1 << "  loss "
                     << stats.epoch_loss.back() << "  ("
                     << stats.epoch_seconds.back() << "s, lr "
                     << optimizer_.learning_rate() << ")";
    }

    epochs_completed_ = epoch + 1;
    if (!config_.checkpoint_path.empty()) {
      SSIN_TRACE_SPAN("train.checkpoint");
      Timer checkpoint_timer;
      errno = 0;
      const bool saved = SaveCheckpoint(config_.checkpoint_path);
      if (telemetry::Enabled()) {
        CheckpointSecondsHistogram()->Observe(checkpoint_timer.Seconds());
      }
      if (!saved) {
        const int err = errno;
        SSIN_LOG(Warn) << "checkpoint write to " << config_.checkpoint_path
                       << " failed"
                       << (err != 0
                               ? std::string(": ") + std::strerror(err)
                               : std::string());
      }
    }
  }
  return stats;
}

bool SsinTrainer::SaveCheckpoint(const std::string& path) const {
  TrainingCheckpoint cp;
  for (Parameter* p : model_->Parameters()) {
    cp.params.emplace_back(p->name, p->value);
  }
  cp.adam_step = optimizer_.step_count();
  cp.adam_m = optimizer_.moment1();
  cp.adam_v = optimizer_.moment2();
  if (schedule_ != nullptr) {
    cp.has_schedule = true;
    cp.schedule_scale = schedule_->scale();
    cp.schedule_warmup = schedule_->warmup_steps();
    cp.schedule_step = schedule_->step();
  }
  cp.rng_state = rng_.SerializeState();
  cp.epochs_completed = epochs_completed_;
  cp.item_order = item_order_;
  cp.static_masks = static_masks_;
  return SaveTrainingCheckpoint(cp, path);
}

bool SsinTrainer::ResumeFrom(const std::string& path) {
  TrainingCheckpoint cp;
  if (!LoadTrainingCheckpoint(&cp, path)) return false;

  // Validate everything against this trainer before mutating anything: a
  // rejected resume must leave the model and trainer untouched.
  std::vector<Parameter*> params = model_->Parameters();
  if (params.size() != cp.params.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i]->name != cp.params[i].first) return false;
    if (!params[i]->value.SameShape(cp.params[i].second)) return false;
  }
  Rng restored_rng(0);
  if (!restored_rng.RestoreState(cp.rng_state)) return false;

  // Commit.
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(cp.params[i].second);
  }
  SSIN_CHECK(optimizer_.RestoreState(cp.adam_step, std::move(cp.adam_m),
                                     std::move(cp.adam_v)));
  if (cp.has_schedule) {
    schedule_ = std::make_unique<NoamSchedule>(NoamSchedule::Restore(
        cp.schedule_scale, cp.schedule_warmup, cp.schedule_step));
  } else {
    schedule_.reset();
  }
  rng_ = restored_rng;
  epochs_completed_ = cp.epochs_completed;
  item_order_ = std::move(cp.item_order);
  static_masks_ = std::move(cp.static_masks);
  resume_pending_ = true;
  return true;
}

void SsinTrainer::RunBatch(const std::vector<int>& items, size_t start,
                           size_t end, const std::vector<int>& node_ids,
                           const std::vector<std::vector<double>>& sequences,
                           const std::vector<std::vector<int>>& static_masks,
                           const Tensor& abspos,
                           const MaskingOptions& mask_options,
                           ParallelTrainState* parallel, double* loss_sum,
                           int64_t* loss_count) {
  const int num_sequences = static_cast<int>(sequences.size());
  const int length = static_cast<int>(sequences[0].size());
  const SpaFormerConfig& model_config = model_->config();

  // Per-item plan + relpos rows: each item's mask pattern defines its own
  // legal-pair set, and exactly those pairs' rows are computed — O(pairs),
  // never [L*L].
  const auto forward = [&](Graph* graph,
                           const MaskedSequence& seq) -> Var {
    std::shared_ptr<const AttentionPlan> plan =
        BuildSequencePlan(model_config, *context_, node_ids, seq.observed);
    const Tensor relpos_rows =
        RelposRowsForPlan(*context_, node_ids, *plan, model_config);
    return model_->ForwardWithPlan(graph, seq.input, std::move(plan),
                                   relpos_rows, abspos);
  };
  // Per-batch gradient averaging: the seed of every item's backward pass is
  // scaled by 1/|batch|, the *actual* batch size — for a partial final
  // batch that is the number of items it really holds, so each optimizer
  // step consumes the mean gradient of the items it saw (the reported
  // epoch loss is separately the mean over all items of the epoch).
  const double inv_batch = 1.0 / static_cast<double>(end - start);

  // Draw every item's mask on the main thread first, in item order, so rng_
  // advances identically at every thread count.
  const size_t batch_items = end - start;
  parallel->item_losses.assign(batch_items, 0.0);
  parallel->item_masks.resize(batch_items);
  parallel->drawn_masks.resize(batch_items);
  for (size_t bi = 0; bi < batch_items; ++bi) {
    if (config_.dynamic_masking) {
      parallel->drawn_masks[bi] =
          SampleMask(length, config_.mask_ratio, &rng_);
      parallel->item_masks[bi] = &parallel->drawn_masks[bi];
    } else {
      parallel->item_masks[bi] = &static_masks[items[start + bi]];
    }
    MaskedNodesCounter()->Add(
        static_cast<int64_t>(parallel->item_masks[bi]->size()));
  }

  parallel->pool.ParallelFor(
      static_cast<int64_t>(batch_items), [&](int64_t bi, int slot) {
        const int item = items[start + bi];
        const int t = item % num_sequences;
        MaskedSequence seq = BuildMaskedSequence(
            sequences[t], *parallel->item_masks[bi], mask_options);

        // A private graph whose parameter leaves accumulate into this
        // slot's buffers instead of the shared Parameter::grad.
        Graph graph;
        std::vector<Tensor>& grads = parallel->slot_grads[slot];
        for (size_t pi = 0; pi < parallel->params.size(); ++pi) {
          graph.RedirectGradient(&parallel->params[pi]->grad, &grads[pi]);
        }
        Var pred = forward(&graph, seq);
        Var masked_pred = GatherRows(pred, seq.target_positions);
        Var loss = MseLoss(masked_pred, seq.targets);
        parallel->item_losses[bi] = loss.value()[0];
        graph.Backward(Scale(loss, inv_batch));
      });

  // Deterministic reductions: losses in item order (bit-identical at every
  // thread count), gradients in slot order (equal up to fp associativity —
  // each slot covers a contiguous item range accumulated in item order; a
  // single slot adds onto zeroed grads, which is exact).
  for (size_t bi = 0; bi < batch_items; ++bi) {
    *loss_sum += parallel->item_losses[bi];
    ++*loss_count;
  }
  for (auto& slot : parallel->slot_grads) {
    for (size_t pi = 0; pi < parallel->params.size(); ++pi) {
      parallel->params[pi]->grad.Accumulate(slot[pi]);
      slot[pi].Fill(0.0);
    }
  }
}

}  // namespace ssin
