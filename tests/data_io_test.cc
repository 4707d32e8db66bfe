#include "data/io.h"

#include <cstdio>

#include "data/generator.h"
#include "data/traffic_generator.h"
#include "gtest/gtest.h"

namespace kvec {
namespace {

std::vector<TangledSequence> SampleEpisodes() {
  TrafficGeneratorConfig config;
  config.num_classes = 3;
  config.concurrency = 3;
  config.avg_flow_length = 10.0;
  config.min_flow_length = 4;
  TrafficGenerator generator(config);
  Rng rng(5);
  std::vector<TangledSequence> episodes;
  for (int e = 0; e < 4; ++e) {
    episodes.push_back(generator.GenerateEpisode(rng));
  }
  return episodes;
}

TEST(DataIoTest, RoundTripPreservesEverything) {
  std::vector<TangledSequence> episodes = SampleEpisodes();
  std::string csv = TangledSequencesToCsv(episodes, 2);
  std::vector<TangledSequence> loaded;
  ASSERT_TRUE(TangledSequencesFromCsv(csv, &loaded));
  EXPECT_EQ(TangledSequencesToCsv(loaded, 2), csv);  // byte for byte
  ASSERT_EQ(loaded.size(), episodes.size());
  for (size_t e = 0; e < episodes.size(); ++e) {
    ASSERT_EQ(loaded[e].items.size(), episodes[e].items.size());
    EXPECT_EQ(loaded[e].labels, episodes[e].labels);
    for (size_t i = 0; i < episodes[e].items.size(); ++i) {
      EXPECT_EQ(loaded[e].items[i].key, episodes[e].items[i].key);
      EXPECT_EQ(loaded[e].items[i].value, episodes[e].items[i].value);
      EXPECT_NEAR(loaded[e].items[i].time, episodes[e].items[i].time, 1e-6);
    }
  }
}

TEST(DataIoTest, TrueHaltColumnsRoundTrip) {
  std::vector<TangledSequence> episodes(1);
  TangledSequence& episode = episodes[0];
  episode.labels[0] = 1;
  episode.true_halt_positions[0] = 2;
  for (int i = 0; i < 3; ++i) {
    Item item;
    item.key = 0;
    item.value = {i, 0};
    item.time = i;
    episode.items.push_back(item);
  }
  std::string csv = TangledSequencesToCsv(episodes, 2);
  std::vector<TangledSequence> loaded;
  ASSERT_TRUE(TangledSequencesFromCsv(csv, &loaded));
  EXPECT_EQ(loaded[0].true_halt_positions.at(0), 2);
}

TEST(DataIoTest, FileRoundTrip) {
  std::vector<TangledSequence> episodes = SampleEpisodes();
  std::string path = ::testing::TempDir() + "/kvec_io_test.csv";
  ASSERT_TRUE(SaveTangledSequences(episodes, 2, path));
  std::vector<TangledSequence> loaded;
  ASSERT_TRUE(LoadTangledSequences(path, &loaded));
  EXPECT_EQ(loaded.size(), episodes.size());
  std::remove(path.c_str());
}

TEST(DataIoTest, LoadedEpisodesValidate) {
  std::vector<TangledSequence> episodes = SampleEpisodes();
  std::string csv = TangledSequencesToCsv(episodes, 2);
  std::vector<TangledSequence> loaded;
  ASSERT_TRUE(TangledSequencesFromCsv(csv, &loaded));
  for (const TangledSequence& episode : loaded) episode.Validate(2);
}

TEST(DataIoTest, RejectsBadHeader) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(
      TangledSequencesFromCsv("foo,bar\n1,2\n", &episodes));
  EXPECT_FALSE(TangledSequencesFromCsv("", &episodes));
  // No value columns at all.
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,true_halt\n0,0,0,0,0\n", &episodes));
}

TEST(DataIoTest, RejectsRaggedRow) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0,true_halt\n0,0,0.0,1\n", &episodes));
}

TEST(DataIoTest, RejectsNonNumeric) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0,true_halt\n0,zero,0.0,1,2,0\n", &episodes));
}

// A value past its type's range must fail the parse, not wrap: 4294967296
// would otherwise read as 0 and 4294967297 as 1, a key and token the model
// embeds without complaint.
TEST(DataIoTest, RejectsNumbersOutOfRange) {
  const std::string header = "episode,key,time,label,v0,true_halt\n";
  const char* rows[] = {
      "0,4294967296,0.0,1,2,0\n",   // key
      "0,2147483648,0.0,1,2,0\n",   // key, INT_MAX + 1
      "0,-2147483649,0.0,1,2,0\n",  // key, INT_MIN - 1
      "0,0,0.0,1,4294967297,0\n",   // value token
      "0,0,0.0,4294967297,2,0\n",   // label
      "0,0,0.0,1,2,4294967298\n",   // true_halt
      "4294967296,0,0.0,1,2,0\n",   // episode
      "0,0,1e400,1,2,0\n",          // time, past DBL_MAX
  };
  for (const char* row : rows) {
    std::vector<TangledSequence> episodes;
    EXPECT_FALSE(TangledSequencesFromCsv(header + row, &episodes)) << row;
  }
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0\n0,4294967296,0.0,1,4294967297\n",
      &episodes));
  // The range ends themselves still parse.
  ASSERT_TRUE(TangledSequencesFromCsv(
      header + "0,2147483647,0.0,1,-2147483648,2147483647\n", &episodes));
  EXPECT_EQ(episodes[0].items[0].key, 2147483647);
  EXPECT_EQ(episodes[0].items[0].value[0], -2147483648LL);
  EXPECT_EQ(episodes[0].true_halt_positions.at(2147483647), 2147483647);
}

TEST(DataIoTest, RejectsInconsistentLabels) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0,true_halt\n"
      "0,0,0.0,1,2,0\n"
      "0,0,1.0,2,3,0\n",
      &episodes));
}

TEST(DataIoTest, RejectsOutOfOrderTime) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0,true_halt\n"
      "0,0,5.0,1,2,0\n"
      "0,0,1.0,1,3,0\n",
      &episodes));
}

TEST(DataIoTest, RejectsNonContiguousEpisodes) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(TangledSequencesFromCsv(
      "episode,key,time,label,v0,true_halt\n"
      "0,0,0.0,1,2,0\n"
      "2,0,0.0,1,3,0\n",
      &episodes));
}

TEST(DataIoTest, FailureLeavesOutputUntouched) {
  std::vector<TangledSequence> episodes(3);
  EXPECT_FALSE(TangledSequencesFromCsv("broken", &episodes));
  EXPECT_EQ(episodes.size(), 3u);
}

TEST(DataIoTest, MissingFileLoadFails) {
  std::vector<TangledSequence> episodes;
  EXPECT_FALSE(LoadTangledSequences("/nonexistent/data.csv", &episodes));
}

}  // namespace
}  // namespace kvec
