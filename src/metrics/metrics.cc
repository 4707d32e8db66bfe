#include "metrics/metrics.h"

#include "util/check.h"
#include "util/table.h"

namespace kvec {

PredictionRecord MakeRecord(const TangledSequence& episode, int key,
                            int predicted, int observed, double confidence) {
  PredictionRecord record;
  record.key = key;
  record.true_label = episode.labels.at(key);
  record.predicted_label = predicted;
  record.observed_items = observed;
  record.sequence_length = episode.KeyLength(key);
  record.true_halt_position = episode.TrueHaltPosition(key);
  record.confidence = confidence;
  return record;
}

double HarmonicMean(double accuracy, double earliness) {
  double timeliness = 1.0 - earliness;
  double denominator = timeliness + accuracy;
  if (denominator <= 0.0) return 0.0;
  return 2.0 * timeliness * accuracy / denominator;
}

EvaluationSummary Evaluate(const std::vector<PredictionRecord>& records,
                           int num_classes) {
  KVEC_CHECK_GT(num_classes, 0);
  EvaluationSummary summary;
  summary.num_sequences = static_cast<int>(records.size());
  if (records.empty()) return summary;

  std::vector<int64_t> true_positive(num_classes, 0);
  std::vector<int64_t> false_positive(num_classes, 0);
  std::vector<int64_t> false_negative(num_classes, 0);
  double earliness_sum = 0.0;
  int64_t correct = 0;
  for (const PredictionRecord& record : records) {
    KVEC_CHECK_GE(record.true_label, 0);
    KVEC_CHECK_LT(record.true_label, num_classes);
    KVEC_CHECK_GE(record.predicted_label, 0);
    KVEC_CHECK_LT(record.predicted_label, num_classes);
    KVEC_CHECK_GT(record.sequence_length, 0);
    KVEC_CHECK_GE(record.observed_items, 1);
    KVEC_CHECK_LE(record.observed_items, record.sequence_length);
    earliness_sum += static_cast<double>(record.observed_items) /
                     static_cast<double>(record.sequence_length);
    if (record.true_label == record.predicted_label) {
      ++correct;
      ++true_positive[record.true_label];
    } else {
      ++false_positive[record.predicted_label];
      ++false_negative[record.true_label];
    }
  }
  summary.earliness = earliness_sum / records.size();
  summary.accuracy = static_cast<double>(correct) / records.size();

  // Macro averages over classes that appear (as truth or prediction);
  // classes absent from the evaluation set are skipped, matching common
  // practice for macro metrics.
  double precision_sum = 0.0, recall_sum = 0.0, f1_sum = 0.0;
  int active_classes = 0;
  for (int c = 0; c < num_classes; ++c) {
    int64_t tp = true_positive[c];
    int64_t fp = false_positive[c];
    int64_t fn = false_negative[c];
    if (tp + fp + fn == 0) continue;
    ++active_classes;
    double precision =
        (tp + fp) > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
    double recall = (tp + fn) > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
    double f1 = (precision + recall) > 0.0
                    ? 2.0 * precision * recall / (precision + recall)
                    : 0.0;
    precision_sum += precision;
    recall_sum += recall;
    f1_sum += f1;
  }
  if (active_classes > 0) {
    summary.macro_precision = precision_sum / active_classes;
    summary.macro_recall = recall_sum / active_classes;
    summary.macro_f1 = f1_sum / active_classes;
  }
  summary.harmonic_mean = HarmonicMean(summary.accuracy, summary.earliness);
  return summary;
}

std::vector<std::vector<int64_t>> ConfusionMatrix(
    const std::vector<PredictionRecord>& records, int num_classes) {
  KVEC_CHECK_GT(num_classes, 0);
  std::vector<std::vector<int64_t>> matrix(
      num_classes, std::vector<int64_t>(num_classes, 0));
  for (const PredictionRecord& record : records) {
    KVEC_CHECK_GE(record.true_label, 0);
    KVEC_CHECK_LT(record.true_label, num_classes);
    KVEC_CHECK_GE(record.predicted_label, 0);
    KVEC_CHECK_LT(record.predicted_label, num_classes);
    ++matrix[record.true_label][record.predicted_label];
  }
  return matrix;
}

std::string ClassificationReport(const std::vector<PredictionRecord>& records,
                                 int num_classes) {
  std::vector<std::vector<int64_t>> matrix =
      ConfusionMatrix(records, num_classes);
  Table table({"class", "precision", "recall", "f1", "support"});
  double precision_sum = 0.0, recall_sum = 0.0, f1_sum = 0.0;
  int active = 0;
  int64_t total_support = 0;
  for (int c = 0; c < num_classes; ++c) {
    int64_t tp = matrix[c][c];
    int64_t support = 0, predicted = 0;
    for (int o = 0; o < num_classes; ++o) {
      support += matrix[c][o];
      predicted += matrix[o][c];
    }
    total_support += support;
    if (support == 0 && predicted == 0) continue;
    ++active;
    double precision = predicted > 0 ? static_cast<double>(tp) / predicted
                                     : 0.0;
    double recall = support > 0 ? static_cast<double>(tp) / support : 0.0;
    double f1 = (precision + recall) > 0
                    ? 2 * precision * recall / (precision + recall)
                    : 0.0;
    precision_sum += precision;
    recall_sum += recall;
    f1_sum += f1;
    table.AddRow({std::to_string(c), Table::FormatDouble(precision, 3),
                  Table::FormatDouble(recall, 3), Table::FormatDouble(f1, 3),
                  std::to_string(support)});
  }
  if (active > 0) {
    table.AddRow({"macro avg", Table::FormatDouble(precision_sum / active, 3),
                  Table::FormatDouble(recall_sum / active, 3),
                  Table::FormatDouble(f1_sum / active, 3),
                  std::to_string(total_support)});
  }
  return table.ToText();
}

}  // namespace kvec
