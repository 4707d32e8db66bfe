// The `kvec soak` harness: flag validation, the CI-budget flatness run,
// and the memory-vs-open-keys curve artifact.
//
// The budget run IS the PR's headline claim executed in miniature: drive a
// sharded server through ingest / churn / window rotation /
// checkpoint-restore cycles at 100k open keys and require the post-warm-up RSS trend to stay
// inside the flatness band. Everything runs in-process through
// cli::RunKvecCli, the exact code path of `kvec soak`.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/subcommands.h"
#include "gtest/gtest.h"

// Mirrors soak.cc's sanitizer detection: under ASan/TSan the RSS numbers
// are dominated by shadow memory and quarantines and everything runs a
// few times slower, so the budget run shrinks (the harness itself widens
// its default band the same way).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVEC_SOAK_TEST_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVEC_SOAK_TEST_SANITIZED 1
#endif
#endif

namespace kvec {
namespace cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunSoak(std::vector<std::string> args) {
  args.insert(args.begin(), "soak");
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunKvecCli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// First integer following `"<key>": ` in a JSON dump; -1 when absent.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + needle.size());
}

TEST(SoakCli, BadFlagsAreUsageErrors) {
  EXPECT_EQ(RunSoak({"--keys", "0"}).code, 2);
  EXPECT_EQ(RunSoak({"--rss-band", "-1"}).code, 2);
  EXPECT_EQ(RunSoak({"--scales", "0,1"}).code, 2);
  EXPECT_EQ(RunSoak({"--scales", "2"}).code, 2);
  EXPECT_EQ(RunSoak({"--no-such-flag"}).code, 2);
  // Workers must be 0 (caller-thread mode) or match the shard count.
  EXPECT_EQ(RunSoak({"--shards", "4", "--workers", "3"}).code, 2);
}

TEST(SoakCli, BudgetRunIsFlatAndExercisesEveryClosePath) {
  // A rotation releases a shard pool only once it holds 4 MiB, which
  // takes about 10,000 open keys per shard, so the sanitized run's 20,000
  // keys go to two shards.
#if defined(KVEC_SOAK_TEST_SANITIZED)
  const std::string keys = "20000";
  const std::string shards = "2";
#else
  const std::string keys = "100000";
  const std::string shards = "4";
#endif
  CliResult result = RunSoak(
      {"--keys", keys, "--shards", shards, "--scales", "1", "--json"});
  ASSERT_EQ(result.code, 0) << result.err;

  EXPECT_NE(result.out.find("\"flat\": true"), std::string::npos) << result.out;
  EXPECT_EQ(JsonInt(result.out, "open_keys_peak"), std::atoll(keys.c_str()));

  // Every bound fires during steady state: engine rotation (the window
  // holds one cycle), the idle sweep (churn-retired keys go quiet), and
  // the pool release at those rotations. Capacity eviction is
  // load-dependent, so it is exercised but not asserted here.
  EXPECT_GT(JsonInt(result.out, "rotation_classifications"), 0);
  EXPECT_GT(JsonInt(result.out, "idle_timeouts"), 0);
  EXPECT_GT(JsonInt(result.out, "compactions"), 0);
  EXPECT_GT(JsonInt(result.out, "sequences_classified"), 0);

  // The pool gauges came through the worker seam, not a stale default.
  EXPECT_GT(JsonInt(result.out, "bytes_resident"), 0);
  EXPECT_GT(JsonInt(result.out, "pool_blocks"), 0);
  EXPECT_GT(JsonInt(result.out, "scratch_high_water"), 0);
}

// 20,000 keys hash unevenly over the four default shards (5,116 on the
// busiest against an even 5,000), so a capacity sized from the even split
// evicts keys the stage means to keep open. Sized from the busiest shard,
// every key is open at the end of the first pass, in every build.
TEST(SoakCli, CapacityHoldsEveryKeyOfTheBusiestShard) {
  CliResult result = RunSoak({"--keys", "20000", "--scales", "1", "--json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(JsonInt(result.out, "open_keys_peak"), 20000);
}

TEST(SoakCli, DisablingCheckpointStillHoldsTheBand) {
  CliResult result =
      RunSoak({"--keys", "2000", "--shards", "2", "--scales", "1",
               "--no-checkpoint", "--json"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"flat\": true"), std::string::npos) << result.out;
  // Pools this small are reused across rotations, never released.
  EXPECT_EQ(JsonInt(result.out, "compactions"), 0);
}

TEST(SoakCli, CurveArtifactMatchesTheBenchReportShape) {
  const std::filesystem::path curve =
      std::filesystem::temp_directory_path() / "kvec_soak_curve_test.json";
  std::filesystem::remove(curve);

  CliResult result =
      RunSoak({"--keys", "2000", "--shards", "2", "--warmup-cycles", "1",
               "--cycles", "2", "--scales", "0.5,1", "--curve",
               curve.string()});
  ASSERT_EQ(result.code, 0) << result.err;

  std::ifstream in(curve);
  ASSERT_TRUE(in.good());
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string json = contents.str();

  // One benchmark entry per stage, in the merge_reports shape the bench
  // runner folds into BENCH_PR9.json.
  EXPECT_NE(json.find("\"SOAK_MemoryVsOpenKeys/1000\""), std::string::npos);
  EXPECT_NE(json.find("\"SOAK_MemoryVsOpenKeys/2000\""), std::string::npos);
  EXPECT_NE(json.find("\"real_time_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"items_per_second\""), std::string::npos);
  EXPECT_NE(json.find("\"rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"pool_resident_bytes\""), std::string::npos);
  std::filesystem::remove(curve);
}

}  // namespace
}  // namespace cli
}  // namespace kvec
