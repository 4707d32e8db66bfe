#include "data/presets.h"

#include "data/movielens_generator.h"
#include "data/stop_signal_generator.h"
#include "data/traffic_generator.h"
#include "util/check.h"

namespace kvec {
namespace {

// Multiplier applied to sequence lengths per scale.
double LengthFactor(ExperimentScale scale) {
  switch (scale) {
    case ExperimentScale::kTiny:
      return 0.4;
    case ExperimentScale::kSmall:
      return 0.7;
    case ExperimentScale::kFull:
      return 1.0;
  }
  return 1.0;
}

int TotalEpisodes(ExperimentScale scale) {
  switch (scale) {
    case ExperimentScale::kTiny:
      return 100;
    case ExperimentScale::kSmall:
      return 90;
    case ExperimentScale::kFull:
      return 250;
  }
  return 90;
}

int Concurrency(ExperimentScale scale) {
  switch (scale) {
    case ExperimentScale::kTiny:
      return 3;
    case ExperimentScale::kSmall:
      return 4;
    case ExperimentScale::kFull:
      return 5;
  }
  return 4;
}

}  // namespace

const char* PresetName(PresetId id) {
  switch (id) {
    case PresetId::kUstcTfc2016:
      return "USTC-TFC2016";
    case PresetId::kMovieLens1M:
      return "MovieLens-1M";
    case PresetId::kTrafficFg:
      return "Traffic-FG";
    case PresetId::kTrafficApp:
      return "Traffic-App";
    case PresetId::kSyntheticEarly:
      return "Synthetic-Traffic(early)";
    case PresetId::kSyntheticLate:
      return "Synthetic-Traffic(late)";
  }
  return "unknown";
}

const char* ScaleName(ExperimentScale scale) {
  switch (scale) {
    case ExperimentScale::kTiny:
      return "tiny";
    case ExperimentScale::kSmall:
      return "small";
    case ExperimentScale::kFull:
      return "full";
  }
  return "unknown";
}

bool ParseScale(const std::string& text, ExperimentScale* scale) {
  if (text == "tiny") {
    *scale = ExperimentScale::kTiny;
  } else if (text == "small") {
    *scale = ExperimentScale::kSmall;
  } else if (text == "full") {
    *scale = ExperimentScale::kFull;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<EpisodeGenerator> MakeGenerator(PresetId id,
                                                ExperimentScale scale) {
  const double factor = LengthFactor(scale);
  const int concurrency = Concurrency(scale);
  switch (id) {
    case PresetId::kUstcTfc2016: {
      TrafficGeneratorConfig config;
      config.name = PresetName(id);
      config.num_classes = 9;
      config.avg_flow_length = 31.2 * factor;
      config.min_flow_length = 10;  // the paper discards flows < 10 packets
      // Table I: avg session length 8.3 -> high burst persistence.
      config.burst_continue_prob = 0.88;
      config.concurrency = concurrency;
      // Concurrent flows cluster by class (an attack / application opens
      // several flows at once) — the cross-flow structure the paper's
      // value correlation exploits; see DESIGN.md §1.
      config.classes_per_episode = 2;
      config.profile_seed = 1601;
      return std::make_unique<TrafficGenerator>(config);
    }
    case PresetId::kMovieLens1M: {
      MovieLensGeneratorConfig config;
      config.name = PresetName(id);
      config.avg_sequence_length = 163.5 * factor * 0.35;  // cost driver
      config.min_sequence_length = 10;
      config.session_continue_prob = 0.41;  // avg session ~= 1.7
      config.concurrency = concurrency;
      config.profile_seed = 1701;
      return std::make_unique<MovieLensGenerator>(config);
    }
    case PresetId::kTrafficFg: {
      TrafficGeneratorConfig config;
      config.name = PresetName(id);
      config.num_classes = 12;
      config.avg_flow_length = 50.7 * factor * 0.7;
      config.min_flow_length = 8;
      config.burst_continue_prob = 0.58;  // avg session 2.4
      config.concurrency = concurrency;
      config.classes_per_episode = 2;  // class co-occurrence (DESIGN.md §1)
      config.profile_seed = 1801;
      return std::make_unique<TrafficGenerator>(config);
    }
    case PresetId::kTrafficApp: {
      TrafficGeneratorConfig config;
      config.name = PresetName(id);
      config.num_classes = 10;
      config.num_short_flow_classes = 4;  // UDP-like applications
      config.avg_flow_length = 57.5 * factor * 0.7;
      config.min_flow_length = 8;
      config.burst_continue_prob = 0.63;  // avg session 2.7
      config.concurrency = concurrency;
      config.classes_per_episode = 2;  // class co-occurrence (DESIGN.md §1)
      config.profile_seed = 1901;
      return std::make_unique<TrafficGenerator>(config);
    }
    case PresetId::kSyntheticEarly:
    case PresetId::kSyntheticLate: {
      StopSignalGeneratorConfig config;
      config.name = PresetName(id);
      config.early_stop = (id == PresetId::kSyntheticEarly);
      config.flow_length = static_cast<int>(100 * factor);
      config.signal_length = 10;
      config.concurrency = concurrency;
      config.profile_seed = 2001;
      return std::make_unique<StopSignalGenerator>(config);
    }
  }
  KVEC_CHECK(false) << "unknown preset";
  return nullptr;
}

SplitCounts PresetSplitCounts(PresetId id, ExperimentScale scale) {
  return SplitCounts::FromTotal(TotalEpisodes(scale));
}

Dataset MakePresetDataset(PresetId id, ExperimentScale scale, uint64_t seed) {
  std::unique_ptr<EpisodeGenerator> generator = MakeGenerator(id, scale);
  return GenerateDataset(*generator, PresetSplitCounts(id, scale), seed);
}

}  // namespace kvec
