// A feature-based early classifier in the style of interpretable-shapelet
// extraction (Related Work, "feature based approaches"), adapted to
// symbolic key-value sequences.
//
// Training mines discriminative value n-grams ("indicators") from the
// prefixes of the training sequences: an n-gram of item tokens is an
// indicator for class c when it occurs in at least `min_support` training
// sequences and P(class = c | n-gram observed) >= `precision_threshold`.
// At test time the sequence halts the moment any indicator fires inside the
// observed prefix and predicts that indicator's class; sequences where no
// indicator ever fires fall back to the training majority class at full
// length. The precision threshold is the earliness-accuracy knob: lower
// thresholds admit weaker indicators that fire earlier but misfire more.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/types.h"
#include "metrics/metrics.h"

namespace kvec {

struct IndicatorMatcherConfig {
  int max_ngram = 3;       // indicator lengths 1..max_ngram
  int max_prefix = 24;     // mine only from the first max_prefix items
  int min_support = 4;     // sequences an n-gram must appear in
  float precision_threshold = 0.8f;  // earliness-accuracy knob
};

class IndicatorMatcher {
 public:
  IndicatorMatcher(const DatasetSpec& spec,
                   const IndicatorMatcherConfig& config);

  // Mines indicators from all key-value sequences in `episodes`.
  void Fit(const std::vector<TangledSequence>& episodes);

  // Streams every key-value sequence; halts on the first indicator match.
  EvaluationResult Evaluate(const std::vector<TangledSequence>& episodes) const;

  // Number of mined indicators (after thresholding).
  int num_indicators() const { return num_indicators_; }
  int majority_class() const { return majority_class_; }
  const IndicatorMatcherConfig& config() const { return config_; }

 private:
  struct Candidate {
    std::vector<int> class_counts;
    bool indicator = false;  // passed support+precision thresholds
    int predicted_class = 0;
    float precision = 0.0f;
  };

  // Collapses an item's value vector into one token id (mixed-radix over
  // the field vocabularies, folded into a 61-bit hash when it would
  // overflow).
  uint64_t ItemToken(const Item& item) const;
  // Packs an n-gram of tokens into one 64-bit key.
  static uint64_t NgramKey(const std::vector<uint64_t>& window, int begin,
                           int length);

  DatasetSpec spec_;
  IndicatorMatcherConfig config_;
  std::unordered_map<uint64_t, Candidate> candidates_;
  int num_indicators_ = 0;
  int majority_class_ = 0;
  // Training frequency of the majority class; the fallback's confidence.
  double majority_fraction_ = 0.0;
};

}  // namespace kvec

