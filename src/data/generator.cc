#include "data/generator.h"

#include <algorithm>

#include "util/check.h"

namespace kvec {

SplitCounts SplitCounts::FromTotal(int total_episodes) {
  KVEC_CHECK_GE(total_episodes, kMinTotalEpisodes);
  SplitCounts counts;
  counts.validation = std::max(1, total_episodes / 10);
  counts.test = std::max(1, total_episodes / 10);
  counts.train = total_episodes - counts.validation - counts.test;
  return counts;
}

Dataset GenerateDataset(const EpisodeGenerator& generator,
                        const SplitCounts& counts, uint64_t seed) {
  KVEC_CHECK_GT(counts.train, 0);
  KVEC_CHECK_GT(counts.validation, 0);
  KVEC_CHECK_GT(counts.test, 0);
  Rng rng(seed);
  Dataset dataset;
  dataset.spec = generator.spec();
  auto fill = [&](std::vector<TangledSequence>* split, int count) {
    split->reserve(count);
    for (int i = 0; i < count; ++i) {
      TangledSequence episode = generator.GenerateEpisode(rng);
      episode.Validate(dataset.spec.num_value_fields());
      split->push_back(std::move(episode));
    }
  };
  fill(&dataset.train, counts.train);
  fill(&dataset.validation, counts.validation);
  fill(&dataset.test, counts.test);
  return dataset;
}

}  // namespace kvec
