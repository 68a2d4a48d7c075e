#include "nn/optimizer.h"

#include <cmath>

namespace ssin {

Adam::Adam(std::vector<Parameter*> params, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  for (size_t t = 0; t < params_.size(); ++t) {
    Parameter* p = params_[t];
    Tensor& m = m_[t];
    Tensor& v = v_[t];
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      double g = p->grad[i];
      if (weight_decay_ > 0.0) g += weight_decay_ * p->value[i];
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * g * g;
      const double m_hat = m[i] / bc1;
      const double v_hat = v[i] / bc2;
      p->value[i] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
    p->grad.Fill(0.0);
  }
}

bool Adam::RestoreState(int64_t step, std::vector<Tensor> m,
                        std::vector<Tensor> v) {
  if (step < 0) return false;
  if (m.size() != params_.size() || v.size() != params_.size()) return false;
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!m[i].SameShape(params_[i]->value)) return false;
    if (!v[i].SameShape(params_[i]->value)) return false;
  }
  step_ = step;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

NoamSchedule::NoamSchedule(int d_model, int warmup_steps, double factor)
    : scale_(factor / std::sqrt(static_cast<double>(d_model))),
      warmup_(static_cast<double>(warmup_steps)) {
  SSIN_CHECK_GE(warmup_steps, 1);
}

NoamSchedule NoamSchedule::Restore(double scale, int warmup_steps,
                                   int64_t step) {
  SSIN_CHECK_GE(warmup_steps, 1);
  SSIN_CHECK_GE(step, 0);
  NoamSchedule schedule;
  schedule.scale_ = scale;
  schedule.warmup_ = static_cast<double>(warmup_steps);
  schedule.step_ = step;
  return schedule;
}

double NoamSchedule::LearningRate(int64_t step) const {
  SSIN_CHECK_GE(step, 1);
  const double s = static_cast<double>(step);
  return scale_ * std::min(1.0 / std::sqrt(s), s / std::pow(warmup_, 1.5));
}

void NoamSchedule::Step(Adam* opt) {
  ++step_;
  opt->set_learning_rate(LearningRate(step_));
}

}  // namespace ssin
