#include "baselines/indicator_matcher.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "util/check.h"

namespace kvec {
namespace {

// splitmix64-style mixing for n-gram keys.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct LabeledTokenSequence {
  std::vector<uint64_t> tokens;
  int label = 0;
  int length = 0;  // full |S_k|, before the max_prefix truncation
};

}  // namespace

IndicatorMatcher::IndicatorMatcher(const DatasetSpec& spec,
                                   const IndicatorMatcherConfig& config)
    : spec_(spec), config_(config) {
  KVEC_CHECK_GT(config_.max_ngram, 0);
  KVEC_CHECK_GT(config_.max_prefix, 0);
  KVEC_CHECK_GT(config_.min_support, 0);
  KVEC_CHECK(config_.precision_threshold > 0.0f &&
             config_.precision_threshold <= 1.0f);
  KVEC_CHECK_GT(spec_.num_classes, 0);
}

uint64_t IndicatorMatcher::ItemToken(const Item& item) const {
  uint64_t token = 0;
  bool overflow = false;
  for (size_t f = 0; f < item.value.size(); ++f) {
    const uint64_t radix =
        f < spec_.value_fields.size()
            ? static_cast<uint64_t>(spec_.value_fields[f].vocab_size)
            : 1ULL << 20;
    if (token > (1ULL << 40)) overflow = true;
    token = token * radix + static_cast<uint64_t>(item.value[f]);
  }
  return overflow ? Mix(token) : token;
}

uint64_t IndicatorMatcher::NgramKey(const std::vector<uint64_t>& window,
                                    int begin, int length) {
  // Chain-mix the tokens; include the length so that e.g. the unigram (a)
  // and bigram (a, a) cannot collide trivially.
  uint64_t key = Mix(static_cast<uint64_t>(length));
  for (int i = begin; i < begin + length; ++i) {
    key = Mix(key ^ window[i]);
  }
  return key;
}

void IndicatorMatcher::Fit(const std::vector<TangledSequence>& episodes) {
  candidates_.clear();
  num_indicators_ = 0;

  // Collect token sequences (truncated to the mining prefix).
  std::vector<LabeledTokenSequence> sequences;
  std::vector<int> class_totals(spec_.num_classes, 0);
  for (const TangledSequence& episode : episodes) {
    std::map<int, LabeledTokenSequence> by_key;
    for (const Item& item : episode.items) {
      LabeledTokenSequence& sequence = by_key[item.key];
      ++sequence.length;
      if (static_cast<int>(sequence.tokens.size()) < config_.max_prefix) {
        sequence.tokens.push_back(ItemToken(item));
      }
    }
    for (auto& [key, sequence] : by_key) {
      sequence.label = episode.labels.at(key);
      ++class_totals[sequence.label];
      sequences.push_back(std::move(sequence));
    }
  }
  KVEC_CHECK(!sequences.empty());
  majority_class_ = static_cast<int>(
      std::max_element(class_totals.begin(), class_totals.end()) -
      class_totals.begin());
  majority_fraction_ = static_cast<double>(class_totals[majority_class_]) /
                       static_cast<double>(sequences.size());

  // Count, per n-gram, in how many sequences of each class it occurs
  // (each distinct n-gram once per sequence).
  for (const LabeledTokenSequence& sequence : sequences) {
    std::unordered_set<uint64_t> seen;
    const int length = static_cast<int>(sequence.tokens.size());
    for (int n = 1; n <= config_.max_ngram; ++n) {
      for (int begin = 0; begin + n <= length; ++begin) {
        seen.insert(NgramKey(sequence.tokens, begin, n));
      }
    }
    for (uint64_t key : seen) {
      Candidate& candidate = candidates_[key];
      if (candidate.class_counts.empty()) {
        candidate.class_counts.assign(spec_.num_classes, 0);
      }
      ++candidate.class_counts[sequence.label];
    }
  }

  // Threshold into indicators.
  for (auto& [key, candidate] : candidates_) {
    int total = 0, best = 0, best_class = 0;
    for (int c = 0; c < spec_.num_classes; ++c) {
      total += candidate.class_counts[c];
      if (candidate.class_counts[c] > best) {
        best = candidate.class_counts[c];
        best_class = c;
      }
    }
    if (total < config_.min_support) continue;
    const float precision = static_cast<float>(best) / total;
    if (precision < config_.precision_threshold) continue;
    candidate.indicator = true;
    candidate.predicted_class = best_class;
    candidate.precision = precision;
    ++num_indicators_;
  }
}

EvaluationResult IndicatorMatcher::Evaluate(
    const std::vector<TangledSequence>& episodes) const {
  EvaluationResult result;
  for (const TangledSequence& episode : episodes) {
    struct Rollout {
      std::vector<uint64_t> tokens;
      int observed = 0;
      int length = 0;
      bool halted = false;
      int predicted = -1;
      int halted_at = 0;
      double confidence = 0.0;
    };
    std::map<int, Rollout> rollouts;
    for (const Item& item : episode.items) {
      Rollout& rollout = rollouts[item.key];
      ++rollout.length;
      if (rollout.halted) continue;
      rollout.tokens.push_back(ItemToken(item));
      ++rollout.observed;
      // Check the n-grams ending at this item, longest (most specific)
      // first; fire the best-precision match.
      const int t = static_cast<int>(rollout.tokens.size());
      const Candidate* best = nullptr;
      for (int n = std::min(config_.max_ngram, t); n >= 1; --n) {
        auto it = candidates_.find(NgramKey(rollout.tokens, t - n, n));
        if (it == candidates_.end() || !it->second.indicator) continue;
        if (best == nullptr || it->second.precision > best->precision) {
          best = &it->second;
        }
      }
      if (best != nullptr) {
        rollout.halted = true;
        rollout.predicted = best->predicted_class;
        rollout.halted_at = rollout.observed;
        rollout.confidence = best->precision;
      }
    }
    for (const auto& [key, rollout] : rollouts) {
      if (rollout.length == 0) continue;
      result.records.push_back(MakeRecord(
          episode, key, rollout.halted ? rollout.predicted : majority_class_,
          rollout.halted ? rollout.halted_at : rollout.length,
          rollout.halted ? rollout.confidence : majority_fraction_));
    }
  }
  result.summary = ::kvec::Evaluate(result.records, spec_.num_classes);
  return result;
}

}  // namespace kvec
