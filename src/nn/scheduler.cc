#include "nn/scheduler.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace kvec {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

LrScheduler::LrScheduler(Optimizer* optimizer)
    : optimizer_(optimizer), base_lr_(optimizer->learning_rate()) {
  KVEC_CHECK(optimizer_ != nullptr);
}

void LrScheduler::Step() {
  ++step_count_;
  optimizer_->set_learning_rate(ComputeLr(step_count_));
}

float LrScheduler::current_lr() const { return ComputeLr(step_count_); }

ConstantLr::ConstantLr(Optimizer* optimizer) : LrScheduler(optimizer) {}

float ConstantLr::ComputeLr(int step) const { return base_lr(); }

CosineAnnealingLr::CosineAnnealingLr(Optimizer* optimizer, int total_steps,
                                     float min_lr)
    : LrScheduler(optimizer), total_steps_(total_steps), min_lr_(min_lr) {
  KVEC_CHECK(total_steps_ > 0) << "total_steps must be positive";
}

float CosineAnnealingLr::ComputeLr(int step) const {
  if (step >= total_steps_) return min_lr_;
  double progress = static_cast<double>(step) / total_steps_;
  double cosine = 0.5 * (1.0 + std::cos(kPi * progress));
  return min_lr_ + static_cast<float>((base_lr() - min_lr_) * cosine);
}

WarmupCosineLr::WarmupCosineLr(Optimizer* optimizer, int warmup_steps,
                               int total_steps, float min_lr)
    : LrScheduler(optimizer),
      warmup_steps_(warmup_steps),
      total_steps_(total_steps),
      min_lr_(min_lr) {
  KVEC_CHECK(warmup_steps_ >= 0);
  KVEC_CHECK(total_steps_ > warmup_steps_)
      << "total_steps must exceed warmup_steps";
}

float WarmupCosineLr::ComputeLr(int step) const {
  if (warmup_steps_ > 0 && step < warmup_steps_) {
    return base_lr() * static_cast<float>(step) / warmup_steps_;
  }
  if (step >= total_steps_) return min_lr_;
  double progress = static_cast<double>(step - warmup_steps_) /
                    (total_steps_ - warmup_steps_);
  double cosine = 0.5 * (1.0 + std::cos(kPi * progress));
  return min_lr_ + static_cast<float>((base_lr() - min_lr_) * cosine);
}

}  // namespace kvec
