// Dataset presets mirroring the paper's five datasets (Table I), with an
// experiment-scale knob trading runtime for fidelity on a single CPU core.
#pragma once

#include <memory>
#include <string>

#include "data/generator.h"
#include "data/types.h"

namespace kvec {

enum class PresetId {
  kUstcTfc2016,     // 9-class malware/benign traffic
  kMovieLens1M,     // 2-class (gender) rating stream
  kTrafficFg,       // 12-class fine-grained service traffic
  kTrafficApp,      // 10-class app traffic (4 UDP-like short-flow classes)
  kSyntheticEarly,  // Synthetic-Traffic, early-stop subdataset
  kSyntheticLate,   // Synthetic-Traffic, late-stop subdataset
};

// Runtime/fidelity trade-off. Sequence lengths, episode counts and episode
// concurrency grow with scale; class counts and structure are identical.
enum class ExperimentScale { kTiny, kSmall, kFull };

const char* PresetName(PresetId id);
const char* ScaleName(ExperimentScale scale);

// Parses "tiny"/"small"/"full"; returns false on anything else.
bool ParseScale(const std::string& text, ExperimentScale* scale);

std::unique_ptr<EpisodeGenerator> MakeGenerator(PresetId id,
                                                ExperimentScale scale);

// Episode counts per split at this scale (8:1:1).
SplitCounts PresetSplitCounts(PresetId id, ExperimentScale scale);

// Generator + split + assembly in one call.
Dataset MakePresetDataset(PresetId id, ExperimentScale scale, uint64_t seed);

}  // namespace kvec

