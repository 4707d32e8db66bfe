#include "data/presets.h"

#include "data/stats.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

TEST(PresetsTest, NamesAndScales) {
  EXPECT_STREQ(PresetName(PresetId::kUstcTfc2016), "USTC-TFC2016");
  EXPECT_STREQ(PresetName(PresetId::kTrafficFg), "Traffic-FG");
  EXPECT_STREQ(ScaleName(ExperimentScale::kTiny), "tiny");
  ExperimentScale scale;
  EXPECT_TRUE(ParseScale("full", &scale));
  EXPECT_EQ(scale, ExperimentScale::kFull);
  EXPECT_FALSE(ParseScale("huge", &scale));
}

TEST(PresetsTest, ClassCountsMatchTableOne) {
  EXPECT_EQ(MakeGenerator(PresetId::kUstcTfc2016, ExperimentScale::kTiny)
                ->spec()
                .num_classes,
            9);
  EXPECT_EQ(MakeGenerator(PresetId::kMovieLens1M, ExperimentScale::kTiny)
                ->spec()
                .num_classes,
            2);
  EXPECT_EQ(MakeGenerator(PresetId::kTrafficFg, ExperimentScale::kTiny)
                ->spec()
                .num_classes,
            12);
  EXPECT_EQ(MakeGenerator(PresetId::kTrafficApp, ExperimentScale::kTiny)
                ->spec()
                .num_classes,
            10);
  EXPECT_EQ(MakeGenerator(PresetId::kSyntheticEarly, ExperimentScale::kTiny)
                ->spec()
                .num_classes,
            2);
}

TEST(PresetsTest, SessionFieldsMatchPaper) {
  // Traffic datasets: sessions are direction bursts (field 1).
  EXPECT_EQ(MakeGenerator(PresetId::kTrafficFg, ExperimentScale::kTiny)
                ->spec()
                .session_field,
            1);
  // MovieLens: sessions are genre runs (field 1 of movie/genre/rating).
  EXPECT_EQ(MakeGenerator(PresetId::kMovieLens1M, ExperimentScale::kTiny)
                ->spec()
                .session_field,
            1);
}

TEST(PresetsTest, DatasetGeneratesAndValidates) {
  Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kTiny, 3);
  EXPECT_FALSE(dataset.train.empty());
  EXPECT_FALSE(dataset.validation.empty());
  EXPECT_FALSE(dataset.test.empty());
  DatasetStats stats = ComputeDatasetStats(dataset);
  EXPECT_EQ(stats.num_classes, 12);
  EXPECT_GT(stats.num_keys, 0);
  EXPECT_GT(stats.avg_sequence_length, 4.0);
}

TEST(PresetsTest, UstcIsBurstier) {
  // Table I: USTC-TFC2016 sessions average 8.3 items vs 2.4 for Traffic-FG.
  Dataset ustc =
      MakePresetDataset(PresetId::kUstcTfc2016, ExperimentScale::kTiny, 4);
  Dataset fg =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kTiny, 4);
  DatasetStats ustc_stats = ComputeDatasetStats(ustc);
  DatasetStats fg_stats = ComputeDatasetStats(fg);
  EXPECT_GT(ustc_stats.avg_session_length,
            1.5 * fg_stats.avg_session_length);
}

TEST(PresetsTest, StopDatasetsCarryTruth) {
  Dataset dataset =
      MakePresetDataset(PresetId::kSyntheticEarly, ExperimentScale::kTiny, 5);
  for (const TangledSequence& episode : dataset.test) {
    EXPECT_EQ(episode.true_halt_positions.size(), episode.labels.size());
  }
}

TEST(PresetsTest, ScaleChangesLengths) {
  Dataset tiny =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kTiny, 6);
  Dataset full =
      MakePresetDataset(PresetId::kTrafficFg, ExperimentScale::kFull, 6);
  DatasetStats tiny_stats = ComputeDatasetStats(tiny);
  DatasetStats full_stats = ComputeDatasetStats(full);
  EXPECT_GT(full_stats.avg_sequence_length, tiny_stats.avg_sequence_length);
  EXPECT_GT(full_stats.num_episodes, tiny_stats.num_episodes);
}

}  // namespace
}  // namespace kvec
