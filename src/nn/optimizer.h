#ifndef SSIN_NN_OPTIMIZER_H_
#define SSIN_NN_OPTIMIZER_H_

#include <vector>

#include "nn/module.h"

namespace ssin {

/// Adam (Kingma & Ba, 2015) over a fixed parameter list. Paper settings:
/// beta1=0.9, beta2=0.98, eps=1e-9. Gradients are expected to be
/// accumulated into Parameter::grad (see Graph::Backward); Step() consumes
/// them and zeroes them.
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double beta1 = 0.9,
                double beta2 = 0.98, double eps = 1e-9,
                double weight_decay = 0.0);

  /// Applies one update with the current learning rate and clears grads.
  void Step();

  void set_learning_rate(double lr) { learning_rate_ = lr; }
  double learning_rate() const { return learning_rate_; }

  int64_t step_count() const { return step_; }

  /// Internal state exposure for training checkpoints.
  const std::vector<Tensor>& moment1() const { return m_; }
  const std::vector<Tensor>& moment2() const { return v_; }

  /// Restores step count and moments from a checkpoint. Validates that the
  /// moment counts and shapes match this optimizer's parameter list before
  /// mutating anything; returns false (state untouched) on any mismatch.
  bool RestoreState(int64_t step, std::vector<Tensor> m,
                    std::vector<Tensor> v);

 private:
  std::vector<Parameter*> params_;
  double learning_rate_ = 1e-3;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  int64_t step_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// The original Transformer's warmup schedule ("Noam"):
///   lr(step) = factor * d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)
/// Paper §4.1.4 uses warmup_steps = 1200.
class NoamSchedule {
 public:
  NoamSchedule(int d_model, int warmup_steps, double factor = 1.0);

  /// Rebuilds a schedule from checkpointed state: the raw scale
  /// (factor / sqrt(d_model)), the effective warmup, and the step already
  /// taken.
  static NoamSchedule Restore(double scale, int warmup_steps, int64_t step);

  /// Learning rate for a 1-based step index.
  double LearningRate(int64_t step) const;

  /// Advances the internal step and applies the new rate to `opt`.
  void Step(Adam* opt);

  int64_t step() const { return step_; }

  /// The warmup length actually in effect (after any caller-side clamping).
  int warmup_steps() const { return static_cast<int>(warmup_); }

  /// The raw schedule scale, factor / sqrt(d_model) (for checkpoints).
  double scale() const { return scale_; }

 private:
  NoamSchedule() : scale_(0.0), warmup_(1.0) {}

  double scale_;
  double warmup_;
  int64_t step_ = 0;
};

}  // namespace ssin

#endif  // SSIN_NN_OPTIMIZER_H_
