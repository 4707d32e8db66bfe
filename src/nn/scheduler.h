// Learning-rate schedules driving an Optimizer's learning rate over
// training. The paper trains at a fixed rate (1e-4 / 1e-3 depending on the
// dataset); schedules are provided for the scaled-down CPU runs, where a
// short warmup stabilises the REINFORCE term and a decaying tail improves
// the final accuracy/earliness trade-off (see the ext_schedulers bench).
//
// Usage:
//   Adam opt(model.Parameters(), 1e-3f);
//   CosineAnnealingLr schedule(&opt, /*total_steps=*/epochs);
//   for (...) { ...; opt.Step(); schedule.Step(); }
//
// `Step()` is designed to be called once per epoch, but nothing prevents a
// per-update granularity; `total_steps` just has to match.
#pragma once

#include "nn/optimizer.h"

namespace kvec {

class LrScheduler {
 public:
  // Does not take ownership; `optimizer` must outlive the scheduler. The
  // optimizer's current learning rate is captured as the base rate.
  explicit LrScheduler(Optimizer* optimizer);
  virtual ~LrScheduler() = default;

  // Advances the schedule by one step and writes the new rate into the
  // optimizer. The first call moves to step 1.
  void Step();

  // The rate the schedule prescribes for the current step (equals the
  // optimizer's rate after the last Step()).
  float current_lr() const;

  int step_count() const { return step_count_; }
  float base_lr() const { return base_lr_; }

 protected:
  // The learning rate at `step` (0 = before any Step() call). Must return
  // base_lr() at step 0 unless the schedule deliberately starts lower
  // (warmup).
  virtual float ComputeLr(int step) const = 0;

 private:
  Optimizer* optimizer_;
  float base_lr_;
  int step_count_ = 0;
};

// No-op schedule; keeps the base rate forever. Useful as a default so
// callers can hold an LrScheduler unconditionally.
class ConstantLr : public LrScheduler {
 public:
  explicit ConstantLr(Optimizer* optimizer);

 protected:
  float ComputeLr(int step) const override;
};

// Cosine annealing from the base rate to `min_lr` over `total_steps`
// (Loshchilov & Hutter, SGDR without restarts). Steps past `total_steps`
// stay at `min_lr`.
class CosineAnnealingLr : public LrScheduler {
 public:
  CosineAnnealingLr(Optimizer* optimizer, int total_steps,
                    float min_lr = 0.0f);

 protected:
  float ComputeLr(int step) const override;

 private:
  int total_steps_;
  float min_lr_;
};

// Linear ramp from 0 to the base rate over `warmup_steps`, then cosine
// annealing to `min_lr` at `total_steps`. The standard Transformer-training
// recipe, adapted to an epoch-granular schedule.
class WarmupCosineLr : public LrScheduler {
 public:
  WarmupCosineLr(Optimizer* optimizer, int warmup_steps, int total_steps,
                 float min_lr = 0.0f);

 protected:
  float ComputeLr(int step) const override;

 private:
  int warmup_steps_;
  int total_steps_;
  float min_lr_;
};

}  // namespace kvec

