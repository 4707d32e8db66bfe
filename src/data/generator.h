// Episode-generator interface and dataset assembly.
//
// Generators replace the paper's real datasets (see DESIGN.md §1). Each
// generator produces independent tangled sequences; `GenerateDataset` draws
// disjoint episodes for the train/validation/test splits, which makes the
// splits key-disjoint (each episode has its own keys), mirroring the paper's
// key-based 8:1:1 split with no key overlap.
#pragma once

#include "data/types.h"
#include "util/rng.h"

namespace kvec {

class EpisodeGenerator {
 public:
  virtual ~EpisodeGenerator() = default;

  virtual const DatasetSpec& spec() const = 0;

  // One fresh tangled key-value sequence.
  virtual TangledSequence GenerateEpisode(Rng& rng) const = 0;
};

// Number of episodes per split, following the paper's 8:1:1 proportion by
// default.
struct SplitCounts {
  int train = 0;
  int validation = 0;
  int test = 0;

  // The smallest total FromTotal accepts: one episode each for validation
  // and test needs a tenth of it.
  static constexpr int kMinTotalEpisodes = 10;

  static SplitCounts FromTotal(int total_episodes);
};

Dataset GenerateDataset(const EpisodeGenerator& generator,
                        const SplitCounts& counts, uint64_t seed);

}  // namespace kvec

