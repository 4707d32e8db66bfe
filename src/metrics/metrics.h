// Evaluation metrics (paper §V-A.3): earliness, accuracy, macro-averaged
// precision / recall / F1, and the harmonic mean of accuracy and
// (1 - earliness).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/types.h"

namespace kvec {

// One early-classification outcome (verdict) for one key-value sequence
// S_k of an episode.
struct PredictionRecord {
  int key = 0;
  int true_label = 0;
  int predicted_label = 0;
  int observed_items = 0;  // n_k, the halting position (1-based)
  int sequence_length = 0;  // |S_k|
  int true_halt_position = 0;  // 0 when the dataset has no ground truth
  // The classifier's probability for the predicted label at the halting
  // point (max softmax). 0 when the method does not expose confidences.
  double confidence = 0.0;
};

// The record of a verdict `predicted` on key `key` of `episode`, reached
// after `observed` of its items; the label, |S_k| and the true halting
// position come from the episode.
PredictionRecord MakeRecord(const TangledSequence& episode, int key,
                            int predicted, int observed, double confidence);

struct EvaluationSummary {
  double earliness = 0.0;  // mean over sequences of n_k / |S_k|
  double accuracy = 0.0;
  double macro_precision = 0.0;
  double macro_recall = 0.0;
  double macro_f1 = 0.0;
  double harmonic_mean = 0.0;  // HM of accuracy and (1 - earliness)
  int num_sequences = 0;
};

// Computes all metrics over `records`; `num_classes` bounds the labels.
EvaluationSummary Evaluate(const std::vector<PredictionRecord>& records,
                           int num_classes);

// What every method's Evaluate returns: one record per classified
// sequence, and the metrics over them.
struct EvaluationResult {
  std::vector<PredictionRecord> records;
  EvaluationSummary summary;
};

// HM as defined in the paper: 2 (1-E) A / ((1-E) + A); 0 when degenerate.
double HarmonicMean(double accuracy, double earliness);

// Confusion counts: matrix[truth][predicted].
std::vector<std::vector<int64_t>> ConfusionMatrix(
    const std::vector<PredictionRecord>& records, int num_classes);

// Per-class precision/recall/F1/support plus a macro-average row, rendered
// as an aligned text table (sklearn-style classification report).
std::string ClassificationReport(const std::vector<PredictionRecord>& records,
                                 int num_classes);

}  // namespace kvec

