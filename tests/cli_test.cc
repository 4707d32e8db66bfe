// The `kvec` driver: flag parsing, subcommand dispatch, and the JSON
// contract of `kvec eval`.
//
// Everything runs in-process through cli::RunKvecCli — the exact code path
// of apps/kvec.cc minus the argv shim — so bad flags, usage text, and exit
// codes are asserted without spawning processes.
//
// The golden test pins the byte-exact JSON of `kvec eval --json` for a
// fixed generate→train→eval recipe (tests/data/cli_eval_golden.json).
// If the JSON schema or the evaluation pipeline changes deliberately,
// regenerate with:
//   KVEC_REGEN_GOLDEN=1 ./cli_test --gtest_filter='*EvalJsonGolden*'
// (writes the golden next to the source tree via KVEC_TEST_DATA_DIR).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.h"
#include "cli/model_io.h"
#include "cli/report.h"
#include "cli/subcommands.h"
#include "exp/figures.h"
#include "gtest/gtest.h"
#include "util/fault_injection.h"

namespace kvec {
namespace cli {
namespace {

#ifndef KVEC_TEST_DATA_DIR
#define KVEC_TEST_DATA_DIR "tests/data"
#endif

constexpr char kGoldenFile[] = KVEC_TEST_DATA_DIR "/cli_eval_golden.json";

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = RunKvecCli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// ---- ArgParser -----------------------------------------------------------

TEST(ArgParser, ParsesEveryKindAndBothSpellings) {
  ArgParser parser("kvec test");
  std::string* name = parser.AddString("name", "default", "a string");
  int64_t* count = parser.AddInt("count", 1, "an int");
  double* rate = parser.AddDouble("rate", 0.5, "a double");
  bool* verbose = parser.AddBool("verbose", false, "a bool");
  bool* cache = parser.AddBool("cache", true, "a bool");

  ASSERT_TRUE(parser.Parse(
      {"--name", "abc", "--count=42", "--rate", "2.5", "--verbose",
       "--no-cache"}))
      << parser.error();
  EXPECT_EQ(*name, "abc");
  EXPECT_EQ(*count, 42);
  EXPECT_DOUBLE_EQ(*rate, 2.5);
  EXPECT_TRUE(*verbose);
  EXPECT_FALSE(*cache);
  EXPECT_TRUE(parser.Provided("name"));
  EXPECT_TRUE(parser.Provided("rate"));
  EXPECT_FALSE(parser.help_requested());
}

TEST(ArgParser, DefaultsSurviveAnEmptyParse) {
  ArgParser parser("kvec test");
  int64_t* count = parser.AddInt("count", 7, "an int");
  ASSERT_TRUE(parser.Parse({}));
  EXPECT_EQ(*count, 7);
  EXPECT_FALSE(parser.Provided("count"));
}

TEST(ArgParser, RejectsUnknownFlagMissingValueAndBadNumbers) {
  {
    ArgParser parser("kvec test");
    EXPECT_FALSE(parser.Parse({"--nope"}));
    EXPECT_NE(parser.error().find("unknown flag"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddInt("count", 1, "an int");
    EXPECT_FALSE(parser.Parse({"--count"}));
    EXPECT_NE(parser.error().find("missing its value"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddInt("count", 1, "an int");
    EXPECT_FALSE(parser.Parse({"--count", "abc"}));
    EXPECT_NE(parser.error().find("integer"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    parser.AddDouble("rate", 1, "a double");
    EXPECT_FALSE(parser.Parse({"--rate", "fast"}));
    EXPECT_NE(parser.error().find("number"), std::string::npos);
  }
  {
    ArgParser parser("kvec test");
    EXPECT_FALSE(parser.Parse({"positional"}));
    EXPECT_NE(parser.error().find("unexpected argument"), std::string::npos);
  }
}

TEST(ArgParser, HelpIsAlwaysRecognisedAndUsageListsFlags) {
  ArgParser parser("kvec test");
  parser.AddString("alpha", "x", "the alpha flag");
  parser.AddBool("beta", false, "the beta flag");
  ASSERT_TRUE(parser.Parse({"--help"}));
  EXPECT_TRUE(parser.help_requested());
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--beta"), std::string::npos);
  EXPECT_NE(usage.find("the alpha flag"), std::string::npos);
}

TEST(ArgParser, SplitCommaList) {
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_EQ(SplitCommaList("a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitCommaList("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

// ---- Dispatch ------------------------------------------------------------

TEST(CliDispatch, HelpListsEverySubcommand) {
  CliResult result = RunCli({"--help"});
  EXPECT_EQ(result.code, 0);
  for (const SubcommandInfo& info : Subcommands()) {
    EXPECT_NE(result.err.find(info.name), std::string::npos)
        << "help does not mention '" << info.name << "'";
  }
}

TEST(CliDispatch, NoArgumentsIsAUsageError) {
  CliResult result = RunCli({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, UnknownSubcommandFailsWithUsage) {
  CliResult result = RunCli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown subcommand"), std::string::npos);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, SubcommandHelpShowsFlagsAndSucceeds) {
  for (const SubcommandInfo& info : Subcommands()) {
    CliResult result = RunCli({info.name, "--help"});
    EXPECT_EQ(result.code, 0) << info.name;
    EXPECT_NE(result.err.find("usage: kvec "), std::string::npos)
        << info.name;
  }
}

TEST(CliDispatch, BadFlagsFailWithUsageText) {
  // Unknown flag.
  CliResult result = RunCli({"train", "--frobnicate", "1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown flag"), std::string::npos);
  EXPECT_NE(result.err.find("usage: kvec train"), std::string::npos);

  // Unparsable value.
  result = RunCli({"generate", "--seed", "banana", "--out", "ignored"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("integer"), std::string::npos);

  // Missing required flag.
  result = RunCli({"train", "--preset", "ustc"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--model"), std::string::npos);

  result = RunCli({"eval"});
  EXPECT_EQ(result.code, 2);

  // Bad enum-ish values.
  result = RunCli({"generate", "--preset", "nope", "--out", "cli_test_nope"});
  EXPECT_EQ(result.code, 1);  // runtime: dataset resolution fails cleanly
  EXPECT_NE(result.err.find("unknown preset"), std::string::npos);

  result = RunCli({"sweep", "--preset", "smoke", "--methods", "nope"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown method"), std::string::npos);
}

TEST(CliDispatch, GenerateListSucceeds) {
  CliResult result = RunCli({"generate", "--list"});
  EXPECT_EQ(result.code, 0);
  for (const PresetInfo& info : AllPresets()) {
    EXPECT_NE(result.out.find(info.canonical), std::string::npos)
        << info.canonical;
  }
}

// ---- End-to-end golden ---------------------------------------------------

// The fixed recipe behind the golden JSON. Relative paths keep the JSON
// (which embeds the --model argument) independent of the working
// directory's location.
constexpr char kGoldenDataDir[] = "cli_test_golden_data";
constexpr char kGoldenModel[] = "cli_test_golden.kvm";

std::string RunGoldenPipeline() {
  CliResult generate =
      RunCli({"generate", "--preset", "ustc", "--scale", "tiny", "--episodes",
           "30", "--seed", "7", "--out", kGoldenDataDir});
  EXPECT_EQ(generate.code, 0) << generate.err;
  CliResult train =
      RunCli({"train", "--data", kGoldenDataDir, "--model", kGoldenModel,
           "--epochs", "2", "--embed-dim", "12", "--state-dim", "16",
           "--blocks", "1", "--ffn-dim", "24", "--train-seed", "42"});
  EXPECT_EQ(train.code, 0) << train.err;
  CliResult eval =
      RunCli({"eval", "--model", kGoldenModel, "--data", kGoldenDataDir,
           "--json"});
  EXPECT_EQ(eval.code, 0) << eval.err;
  EXPECT_TRUE(eval.err.empty()) << eval.err;
  return eval.out;
}

TEST(CliGolden, EvalJsonGolden) {
  const std::string json = RunGoldenPipeline();

  // Structural sanity regardless of the golden bytes.
  for (const char* key :
       {"\"dataset\"", "\"split\"", "\"summary\"", "\"earliness\"",
        "\"accuracy\"", "\"harmonic_mean\"", "\"num_sequences\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  if (std::getenv("KVEC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kGoldenFile;
    out << json;
    GTEST_SKIP() << "regenerated " << kGoldenFile;
  }

  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << kGoldenFile
                  << " (regenerate with KVEC_REGEN_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "kvec eval --json drifted from the committed golden; if the "
         "change is deliberate, regenerate with KVEC_REGEN_GOLDEN=1";
}

TEST(CliGolden, EvalJsonIsDeterministic) {
  EXPECT_EQ(RunGoldenPipeline(), RunGoldenPipeline());
}

TEST(CliDispatch, HandAuthoredDatasetFailsClosed) {
  // The bring-your-own-data path must reject, with a clean exit 1, a
  // directory whose spec or items would otherwise abort inside the
  // embedding lookups: a spec missing max_keys_per_episode (defaults to
  // 0 → negative clamp index) and an item token outside the vocabulary.
  namespace fs = std::filesystem;
  const std::string dir = "cli_test_bad_data";
  fs::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& content) {
    std::ofstream out(dir + "/" + name, std::ios::trunc);
    ASSERT_TRUE(out) << name;
    out << content;
  };
  const std::string items =
      "episode,key,time,label,v0\n0,0,0.5,1,3\n0,0,1.5,1,3\n";
  write("train.csv", items);
  write("validation.csv", items);
  write("test.csv", items);

  // Spec without the max_* rows: structurally incomplete.
  write("spec.csv",
        "key,value,aux\nname,bad,\nsession_field,0,\nnum_classes,2,\n"
        "value_field,f0,8\n");
  CliResult result =
      RunCli({"train", "--data", dir, "--model", "cli_test_bad.kvm"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("spec.csv"), std::string::npos) << result.err;

  // Complete spec, but the items' token 3 exceeds vocab_size 2.
  write("spec.csv",
        "key,value,aux\nname,bad,\nsession_field,0,\nnum_classes,2,\n"
        "max_keys_per_episode,4,\nmax_sequence_length,8,\n"
        "max_episode_length,8,\ntarget_avg_length,2,\n"
        "target_avg_session_length,1,\nvalue_field,f0,2\n");
  result = RunCli({"train", "--data", dir, "--model", "cli_test_bad.kvm"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("vocabulary"), std::string::npos) << result.err;
}

TEST(CliGolden, BundleRoundTripsAndInspects) {
  RunGoldenPipeline();  // ensures the bundle exists
  std::string error;
  auto model = LoadModelBundle(kGoldenModel, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->config().embed_dim, 12);
  EXPECT_EQ(model->config().spec.name, "USTC-TFC2016");

  CliResult inspect = RunCli({"checkpoint", "--inspect", kGoldenModel});
  EXPECT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("model_config"), std::string::npos);
  EXPECT_NE(inspect.out.find("model_params"), std::string::npos);

  CliResult corrupt = RunCli({"checkpoint", "--inspect", "cli_test_nonexistent"});
  EXPECT_EQ(corrupt.code, 1);
}

// ---- kvec serve: shard workers, overload flags, graceful interrupt -------

TEST(CliServe, WorkersModeReportsOverloadCounters) {
  CliResult result =
      RunCli({"serve", "--workers", "2", "--queue-depth", "8",
              "--overload-policy", "shed-newest", "--json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"workers\": 2"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("\"overload\""), std::string::npos);
  EXPECT_NE(result.out.find("\"items_submitted\""), std::string::npos);
  EXPECT_NE(result.out.find("\"overload_policy\": \"shed-newest\""),
            std::string::npos);
  EXPECT_NE(result.out.find("\"queue_depth\": 8"), std::string::npos);
}

TEST(CliServe, WorkersShardsConflictAndBadPolicyAreUsageErrors) {
  CliResult mismatch = RunCli({"serve", "--workers", "2", "--shards", "4"});
  EXPECT_EQ(mismatch.code, 2);
  EXPECT_NE(mismatch.err.find("--workers must equal --shards"),
            std::string::npos)
      << mismatch.err;

  CliResult policy = RunCli({"serve", "--overload-policy", "drop"});
  EXPECT_EQ(policy.code, 2);
  EXPECT_NE(policy.err.find("block|shed-newest|shed-oldest"),
            std::string::npos)
      << policy.err;

  CliResult depth = RunCli({"serve", "--workers", "1", "--queue-depth", "0"});
  EXPECT_EQ(depth.code, 2);
}

TEST(CliServe, InterruptDrainsReportsAndStillSavesTheCheckpoint) {
  // Simulates Ctrl-C mid-replay: the "serve.batch" point fires at every
  // batch boundary, and after two batches the hook requests an interrupt
  // exactly as the SIGINT handler would. Serve must stop at the next
  // boundary, drain the shard queues, print the per-shard report, honor
  // --save-checkpoint, and exit 130.
  const std::string checkpoint = "cli_test_interrupt.ckpt";
  std::filesystem::remove(checkpoint);
  std::atomic<int> batches{0};
  FaultInjection::Arm("serve.batch", [&batches](const char*) {
    if (batches.fetch_add(1) + 1 == 2) RequestServeInterrupt();
    return false;
  });
  CliResult result = RunCli({"serve", "--workers", "2", "--batch", "16",
                             "--save-checkpoint", checkpoint});
  FaultInjection::DisarmAll();
  EXPECT_EQ(result.code, 130) << result.err;
  EXPECT_NE(result.out.find("interrupted: drained shard queues"),
            std::string::npos)
      << result.out;
  // The per-shard report has one column per shard.
  EXPECT_NE(result.out.find("shard 1"), std::string::npos) << result.out;
  ASSERT_TRUE(std::filesystem::exists(checkpoint));

  // The interrupted process's state restores into a fresh serve run.
  CliResult resumed = RunCli({"serve", "--workers", "2", "--batch", "16",
                              "--load-checkpoint", checkpoint});
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  std::filesystem::remove(checkpoint);
}

// The integer after `"key": ` in a JSON report (-1 when absent).
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  return at == std::string::npos ? -1
                                 : std::stoll(json.substr(at + needle.size()));
}

// One `kvec serve --json` run over a small window size, so every run
// rotates a few windows and `events.windows_started` tells how much state
// a load brought back.
CliResult Serve(std::vector<std::string> args) {
  args.insert(args.begin(), {"serve", "--max-window-items", "50"});
  args.push_back("--json");
  return RunCli(args);
}

void RemoveChain(const std::string& base) {
  std::filesystem::remove(base);
  for (int seq = 1; seq <= 16; ++seq) {
    std::filesystem::remove(base + ".delta." + std::to_string(seq));
  }
}

TEST(CliServe, EveryModeLoadsTheStateEveryOtherModeSaved) {
  // At the default --shards 1: a plain replay, a --checkpoint-every chain
  // and a --workers 1 run each save the state the others load, and every
  // load brings back the same state.
  const std::map<std::string, std::vector<std::string>> modes = {
      {"plain", {}},
      {"chain", {"--checkpoint-every", "100"}},
      {"workers", {"--workers", "1"}}};
  const std::string scratch = "cli_test_modes_scratch.ckpt";
  const int64_t fresh_windows = JsonInt(Serve({}).out, "windows_started");
  ASSERT_GT(fresh_windows, 1);
  std::set<int64_t> restored_windows;
  for (const auto& [saver, save_flags] : modes) {
    const std::string saved = "cli_test_modes_" + saver + ".ckpt";
    RemoveChain(saved);
    std::vector<std::string> save_args = save_flags;
    save_args.insert(save_args.end(), {"--save-checkpoint", saved});
    const CliResult save = Serve(save_args);
    ASSERT_EQ(save.code, 0) << saver << ": " << save.err;
    for (const auto& [loader, load_flags] : modes) {
      if (loader == saver) continue;
      SCOPED_TRACE(saver + " saved, " + loader + " loads");
      std::vector<std::string> load_args = load_flags;
      load_args.insert(load_args.end(), {"--load-checkpoint", saved});
      // --checkpoint-every writes its own chain somewhere else.
      if (loader == "chain") {
        RemoveChain(scratch);
        load_args.insert(load_args.end(), {"--save-checkpoint", scratch});
      }
      const CliResult load = Serve(load_args);
      ASSERT_EQ(load.code, 0) << load.err;
      restored_windows.insert(JsonInt(load.out, "windows_started"));
    }
    RemoveChain(saved);
  }
  RemoveChain(scratch);
  ASSERT_EQ(restored_windows.size(), 1u);
  EXPECT_GT(*restored_windows.begin(), fresh_windows);
}

TEST(CliServe, LoadCheckpointRestoresTheWholeChain) {
  // A chain base loaded without --checkpoint-every brings back its deltas
  // too: the same state as a full save of the same replay, and as a load
  // that goes on writing a chain.
  const std::string chain = "cli_test_whole_chain.ckpt";
  const std::string full = "cli_test_whole_chain_full.ckpt";
  const std::string scratch = "cli_test_whole_chain_scratch.ckpt";
  for (const std::string& path : {chain, full, scratch}) RemoveChain(path);
  ASSERT_EQ(Serve({"--shards", "2", "--checkpoint-every", "100",
                   "--save-checkpoint", chain})
                .code,
            0);
  ASSERT_TRUE(std::filesystem::exists(chain + ".delta.1"));
  ASSERT_EQ(Serve({"--shards", "2", "--save-checkpoint", full}).code, 0);

  const CliResult from_full =
      Serve({"--shards", "2", "--load-checkpoint", full});
  const CliResult plain = Serve({"--shards", "2", "--load-checkpoint", chain});
  const CliResult chained =
      Serve({"--shards", "2", "--load-checkpoint", chain,
             "--checkpoint-every", "100", "--save-checkpoint", scratch});
  ASSERT_EQ(from_full.code, 0) << from_full.err;
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(chained.code, 0) << chained.err;
  const int64_t windows = JsonInt(from_full.out, "windows_started");
  EXPECT_EQ(JsonInt(plain.out, "windows_started"), windows);
  EXPECT_EQ(JsonInt(chained.out, "windows_started"), windows);
  for (const std::string& path : {chain, full, scratch}) RemoveChain(path);
}

TEST(CliServe, FullSaveOverAChainBaseEndsTheChain) {
  // A plain --save-checkpoint over a former chain base removes the old
  // deltas, which would not link to the new base, so the file loads.
  const std::string path = "cli_test_full_over_chain.ckpt";
  const std::string scratch = "cli_test_full_over_chain_scratch.ckpt";
  RemoveChain(path);
  RemoveChain(scratch);
  ASSERT_EQ(Serve({"--checkpoint-every", "100", "--save-checkpoint", path})
                .code,
            0);
  ASSERT_TRUE(std::filesystem::exists(path + ".delta.1"));
  const CliResult full = Serve({"--save-checkpoint", path});
  ASSERT_EQ(full.code, 0) << full.err;
  EXPECT_FALSE(std::filesystem::exists(path + ".delta.1"));
  const CliResult plain = Serve({"--load-checkpoint", path});
  const CliResult chained =
      Serve({"--load-checkpoint", path, "--checkpoint-every", "100",
             "--save-checkpoint", scratch});
  ASSERT_EQ(plain.code, 0) << plain.err;
  ASSERT_EQ(chained.code, 0) << chained.err;
  EXPECT_EQ(JsonInt(plain.out, "windows_started"),
            JsonInt(chained.out, "windows_started"));
  RemoveChain(path);
  RemoveChain(scratch);
}

TEST(CliServe, ShorterChainOverALongerOneStillLoads) {
  // A fresh --checkpoint-every chain over a path holding a longer chain:
  // its first base write clears the old tail, so the path loads.
  const std::string path = "cli_test_stale_tail.ckpt";
  RemoveChain(path);
  ASSERT_EQ(Serve({"--episodes", "100", "--checkpoint-every", "20",
                   "--save-checkpoint", path})
                .code,
            0);
  ASSERT_TRUE(std::filesystem::exists(path + ".delta.6"));
  ASSERT_EQ(Serve({"--episodes", "30", "--checkpoint-every", "20",
                   "--save-checkpoint", path})
                .code,
            0);
  EXPECT_FALSE(std::filesystem::exists(path + ".delta.6"));
  const CliResult load = Serve({"--load-checkpoint", path});
  EXPECT_EQ(load.code, 0) << load.err;
  RemoveChain(path);
}

TEST(CliServe, WorkersModeLoadReportsOneResidentByteCount) {
  // memory.bytes_resident is a function of the input: after a load in
  // workers mode it used to follow which cached pool buffer each shard's
  // encoder arena happened to get, one 32 KiB buffer apart between runs.
  const std::string path = "cli_test_resident_bytes.ckpt";
  RemoveChain(path);
  const std::vector<std::string> flags = {
      "serve",   "--episodes", "300", "--max-window-items", "300",
      "--shards", "3",         "--batch", "1", "--workers", "3", "--json"};
  std::vector<std::string> save = flags;
  save.insert(save.end(), {"--save-checkpoint", path});
  ASSERT_EQ(RunCli(save).code, 0);
  std::set<int64_t> resident;
  for (int run = 0; run < 5; ++run) {
    std::vector<std::string> load = flags;
    load.insert(load.end(), {"--load-checkpoint", path});
    const CliResult result = RunCli(load);
    ASSERT_EQ(result.code, 0) << result.err;
    resident.insert(JsonInt(result.out, "bytes_resident"));
  }
  RemoveChain(path);
  EXPECT_EQ(resident.size(), 1u);
  EXPECT_GT(*resident.begin(), 0);
}

// ---- Report schemas ------------------------------------------------------

// The key paths of a report's JSON ("overload.items_shed",
// "stages[].memory.compactions"): Report::ToJson puts every member on its
// own line and opens and closes containers at line ends, so a line scan
// recovers the nesting.
std::set<std::string> JsonKeyPaths(const std::string& json) {
  std::set<std::string> paths;
  std::vector<std::string> open;  // enclosing members; "" = array element
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos) continue;
    if (line[first] == '}' || line[first] == ']') {
      if (!open.empty()) open.pop_back();
      continue;
    }
    std::string key;
    if (line[first] == '"') {
      const size_t close = line.find("\": ", first + 1);
      if (close != std::string::npos) {
        key = line.substr(first + 1, close - first - 1);
      }
    }
    std::string prefix;
    for (const std::string& name : open) {
      prefix += name.empty() ? "[]" : (prefix.empty() ? "" : ".") + name;
    }
    if (!key.empty()) {
      paths.insert(prefix.empty() ? key : prefix + "." + key);
    }
    const char last = line.back();
    if (last == '{' || last == '[') {
      if (open.size() > 0 || !key.empty() || first > 0) open.push_back(key);
    }
  }
  return paths;
}

std::set<std::string> Paths(std::initializer_list<const char*> names) {
  return std::set<std::string>(names.begin(), names.end());
}

// The overload / memory / events groups every serve-side report carries.
const std::set<std::string>& ServerGroupPaths() {
  static const std::set<std::string> paths = Paths(
      {"overload", "overload.items_submitted", "overload.batches_shed",
       "overload.items_shed", "memory", "memory.bytes_resident",
       "memory.pool_blocks", "memory.scratch_high_water",
       "memory.compactions", "events", "events.sequences_classified",
       "events.policy_halts", "events.idle_timeouts",
       "events.capacity_evictions", "events.rotation_classifications",
       "events.flush_classifications", "events.windows_started",
       "events.items_after_verdict"});
  return paths;
}

std::set<std::string> Union(std::set<std::string> a,
                            const std::set<std::string>& b) {
  a.insert(b.begin(), b.end());
  return a;
}

// Every path of `pinned` is present in `actual` (a report may gain keys).
void ExpectContainsAll(const std::set<std::string>& actual,
                       const std::set<std::string>& pinned,
                       const std::string& json) {
  for (const std::string& path : pinned) {
    EXPECT_EQ(actual.count(path), 1u) << "missing " << path << "\n" << json;
  }
}

TEST(CliSchema, JsonKeyPathsFollowNesting) {
  EXPECT_EQ(JsonKeyPaths("{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [\n      "
                         "{\n        \"d\": true\n      }\n    ],\n    "
                         "\"e\": [\n      1\n    ]\n  },\n  \"f\": 2\n}\n"),
            Paths({"a", "b", "b.c", "b.c[].d", "b.e", "f"}));
}

TEST(CliSchema, ServeJsonKeySetIsPinned) {
  const std::set<std::string> replay = Union(
      Paths({"dataset", "split", "items", "shards", "workers", "batch",
             "seconds", "items_per_sec", "serving_accuracy",
             "open_keys_after", "interrupted"}),
      ServerGroupPaths());
  CliResult sync = RunCli({"serve", "--episodes", "20", "--json"});
  ASSERT_EQ(sync.code, 0) << sync.err;
  EXPECT_EQ(JsonKeyPaths(sync.out), replay) << sync.out;

  CliResult workers =
      RunCli({"serve", "--episodes", "20", "--workers", "2", "--json"});
  ASSERT_EQ(workers.code, 0) << workers.err;
  EXPECT_EQ(JsonKeyPaths(workers.out),
            Union(replay, Paths({"overload_policy", "queue_depth"})))
      << workers.out;
}

TEST(CliSchema, SoakStageJsonKeysArePinned) {
  CliResult soak = RunCli({"soak", "--keys", "400", "--scales", "1",
                           "--warmup-cycles", "0", "--cycles", "1",
                           "--rss-band", "100", "--json"});
  ASSERT_EQ(soak.code, 0) << soak.err;
  ExpectContainsAll(
      JsonKeyPaths(soak.out),
      Paths({"keys", "shards", "workers", "batch", "rss_band",
             "rss_available", "flat", "stages", "stages[].target_keys",
             "stages[].open_keys_peak", "stages[].items", "stages[].seconds",
             "stages[].items_per_sec", "stages[].rss_steady_bytes",
             "stages[].rss_drift", "stages[].rss_flat",
             "stages[].rss_samples", "stages[].memory",
             "stages[].memory.bytes_resident", "stages[].memory.pool_blocks",
             "stages[].memory.scratch_high_water",
             "stages[].memory.compactions", "stages[].events",
             "stages[].events.sequences_classified",
             "stages[].events.idle_timeouts",
             "stages[].events.capacity_evictions",
             "stages[].events.rotation_classifications"}),
      soak.out);
}

// ---- One walk per result -------------------------------------------------

// The labels of a table-form report: every cell of a table row and every
// section title (a line that ends in ':').
std::set<std::string> TableLabels(const std::string& text) {
  std::set<std::string> labels;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.back() == ':') labels.insert(line.substr(0, line.size() - 1));
    if (line[0] != '|') continue;
    for (size_t begin = 1, end; (end = line.find('|', begin)) !=
                                std::string::npos;
         begin = end + 1) {
      const std::string cell = line.substr(begin, end - begin);
      const size_t first = cell.find_first_not_of(' ');
      if (first == std::string::npos) continue;
      labels.insert(cell.substr(first, cell.find_last_not_of(' ') - first + 1));
    }
  }
  return labels;
}

// The leaves among JSON key paths: the paths no other path extends.
std::set<std::string> LeafPaths(const std::set<std::string>& paths) {
  auto extended = [&paths](const std::string& prefix) {
    const auto next = paths.lower_bound(prefix);
    return next != paths.end() && next->compare(0, prefix.size(), prefix) == 0;
  };
  std::set<std::string> leaves;
  for (const std::string& path : paths) {
    if (!extended(path + ".") && !extended(path + "[]")) leaves.insert(path);
  }
  return leaves;
}

// Runs `args` with and without --json. Both forms come from one walk, so
// the table shows every leaf of the JSON: "a.b" as a row label, and
// "a[].b" as the label "b" in a section titled "a".
void ExpectBothFormsShowTheSameFields(std::vector<std::string> args) {
  const CliResult text = RunCli(args);
  args.push_back("--json");
  const CliResult json = RunCli(args);
  ASSERT_EQ(text.code, 0) << text.err;
  ASSERT_EQ(json.code, 0) << json.err;
  const std::set<std::string> labels = TableLabels(text.out);
  const std::set<std::string> leaves = LeafPaths(JsonKeyPaths(json.out));
  ASSERT_FALSE(leaves.empty()) << json.out;
  for (const std::string& leaf : leaves) {
    const size_t cut = leaf.rfind("[].");
    for (const std::string& label :
         cut == std::string::npos
             ? std::vector<std::string>{leaf}
             : std::vector<std::string>{leaf.substr(0, cut),
                                        leaf.substr(cut + 3)}) {
      EXPECT_EQ(labels.count(label), 1u)
          << "the table lacks '" << label << "' of " << leaf << "\n"
          << text.out;
    }
  }
}

TEST(CliSchema, LeafPathsSkipTheirParents) {
  EXPECT_EQ(LeafPaths(Paths({"a", "a-b", "a.b", "c", "c2", "c[].d", "e",
                              "ef"})),
            Paths({"a-b", "a.b", "c2", "c[].d", "e", "ef"}));
}

TEST(CliSchema, GenerateFormsShowTheSameFields) {
  ExpectBothFormsShowTheSameFields(
      {"generate", "--preset", "ustc", "--scale", "tiny", "--episodes", "30",
       "--seed", "7", "--out", "cli_test_schema_data"});
}

TEST(CliSchema, TrainFormsShowTheSameFields) {
  RunGoldenPipeline();  // ensures the dataset exists
  ExpectBothFormsShowTheSameFields(
      {"train", "--data", kGoldenDataDir, "--model", "cli_test_schema.kvm",
       "--epochs", "2", "--embed-dim", "12", "--state-dim", "16", "--blocks",
       "1", "--ffn-dim", "24", "--train-seed", "42"});
}

TEST(CliSchema, EvalFormsShowTheSameFields) {
  RunGoldenPipeline();
  ExpectBothFormsShowTheSameFields({"eval", "--model", kGoldenModel, "--data",
                                    kGoldenDataDir, "--report"});
}

TEST(CliSchema, SweepFormsShowTheSameFields) {
  ExpectBothFormsShowTheSameFields({"sweep", "--preset", "smoke"});
}

TEST(CliSchema, ServeFormsShowTheSameFields) {
  ExpectBothFormsShowTheSameFields({"serve", "--episodes", "20"});
  ExpectBothFormsShowTheSameFields(
      {"serve", "--episodes", "20", "--workers", "2"});
}

TEST(CliSchema, BenchFormsShowTheSameFields) {
  ExpectBothFormsShowTheSameFields(
      {"bench", "--episodes", "20", "--repeat", "1"});
}

TEST(CliSchema, CheckpointFormsShowTheSameFields) {
  RunGoldenPipeline();  // ensures the bundle exists
  ExpectBothFormsShowTheSameFields({"checkpoint", "--inspect", kGoldenModel});
}

TEST(CliSchema, SoakFormsShowTheSameFields) {
  ExpectBothFormsShowTheSameFields({"soak", "--keys", "400", "--scales", "1",
                                    "--warmup-cycles", "0", "--cycles", "1",
                                    "--rss-band", "100"});
}

// The table rules of cli/report.h on one small report.
TEST(CliReport, TableFormFollowsTheJsonTree) {
  Report inner;
  inner.Int("n", 3).Bool("ok", true);
  std::vector<Report> rows(2);
  rows[0].String("name", "a").Double("x", 0.5, 2);
  rows[1].String("name", "b").Double("x", 1.25, 2);
  std::vector<Report> wide(1);
  for (size_t i = 0; i <= Report::kMaxColumns; ++i) {
    wide[0].Int("f" + std::to_string(i), static_cast<int64_t>(i));
  }
  Report report;
  report.String("title", "t")
      .Object("inner", std::move(inner))
      .Ints("samples", {1, 2})
      .Objects("rows", std::move(rows), "row")
      .Breakdown("table only", std::move(wide), "view")
      .String("text", "line 1\nline 2\n");
  EXPECT_EQ(report.ToJson(),
            "{\n  \"title\": \"t\",\n  \"inner\": {\n    \"n\": 3,\n"
            "    \"ok\": true\n  },\n  \"samples\": [\n    1,\n    2\n  ],\n"
            "  \"rows\": [\n    {\n      \"name\": \"a\",\n      \"x\": "
            "0.50\n    },\n    {\n      \"name\": \"b\",\n      \"x\": "
            "1.25\n    }\n  ],\n  \"text\": \"line 1\\nline 2\\n\"\n}\n");
  const std::string text = report.ToText();
  EXPECT_NE(text.find("| inner.ok | true  |"), std::string::npos) << text;
  EXPECT_NE(text.find("| samples  | 1, 2  |"), std::string::npos) << text;
  EXPECT_NE(text.find("rows:\n| row | name | x    |"), std::string::npos)
      << text;
  EXPECT_NE(text.find("| 1   | b    | 1.25 |"), std::string::npos) << text;
  EXPECT_NE(text.find("table only:\n| stat | view 0 |"), std::string::npos)
      << text;
  EXPECT_NE(text.find("| f8   | 8      |"), std::string::npos) << text;
  EXPECT_NE(text.find("text:\nline 1\nline 2\n"), std::string::npos) << text;
}

// `serve --listen` in-process: the SIGINT handler is installed before the
// port file is written, so raising SIGINT once the file appears takes the
// real signal path (drain, flush, report, exit 130).
TEST(CliServe, ListenDrainsOnSigintAndReportsItsCounters) {
  const std::string port_file = "cli_test_listen.port";
  std::filesystem::remove(port_file);
  CliResult result;
  std::thread serve([&result, &port_file]() {
    result = RunCli({"serve", "--episodes", "20", "--shards", "2",
                     "--listen", "127.0.0.1:0", "--port-file", port_file,
                     "--json"});
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline &&
         !(std::filesystem::exists(port_file) &&
           std::filesystem::file_size(port_file) > 0)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(std::filesystem::file_size(port_file), 0u)
      << "serve --listen never wrote its port file";
  std::raise(SIGINT);
  serve.join();
  std::filesystem::remove(port_file);

  EXPECT_EQ(result.code, 130) << result.err;
  EXPECT_NE(result.err.find("listening on 127.0.0.1:"), std::string::npos)
      << result.err;
  ExpectContainsAll(
      JsonKeyPaths(result.out),
      Paths({"listen", "seconds", "items_processed", "flush_events",
             "interrupted", "overload", "overload.items_submitted",
             "overload.batches_shed", "overload.items_shed", "memory",
             "memory.bytes_resident", "memory.pool_blocks",
             "memory.scratch_high_water", "memory.compactions", "net",
             "net.connections_accepted", "net.connections_rejected",
             "net.connections_evicted_idle", "net.frames_received",
             "net.frames_malformed", "net.batches_ingested",
             "net.items_accepted", "net.items_shed", "net.errors_sent",
             "events", "events.sequences_classified",
             "events.flush_classifications"}),
      result.out);
  EXPECT_NE(result.out.find("\"interrupted\": true"), std::string::npos);
}

// `kvec loadgen` against an in-process `serve --listen`: both forms of
// its report show the same fields.
TEST(CliSchema, LoadgenFormsShowTheSameFields) {
  const std::string port_file = "cli_test_loadgen.port";
  std::filesystem::remove(port_file);
  CliResult serve;
  std::thread server([&serve, &port_file]() {
    serve = RunCli({"serve", "--episodes", "20", "--listen", "127.0.0.1:0",
                    "--port-file", port_file, "--json"});
  });
  std::string port;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (port.empty() && std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    std::getline(in, port);
    if (port.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (!port.empty()) {
    ExpectBothFormsShowTheSameFields({"loadgen", "--episodes", "20",
                                      "--connect", "127.0.0.1:" + port});
  }
  RequestServeInterrupt();
  server.join();
  std::filesystem::remove(port_file);
  ASSERT_FALSE(port.empty()) << "serve --listen never wrote its port file";
  EXPECT_EQ(serve.code, 130) << serve.err;
}

// ---- Flag ranges ---------------------------------------------------------

// Out-of-range serve flags are usage errors caught before the dataset is
// resolved: with an unreadable --data directory, a late check would exit
// 1 on the dataset instead (or abort in a server constructor).
TEST(CliServe, OutOfRangeFlagsAreUsageErrorsBeforeTheDataset) {
  const std::vector<std::vector<std::string>> replay_cases = {
      {"--max-open-keys", "0"},
      {"--idle-timeout", "0"},
      {"--max-window-items", "0"},
      {"--shards", "0"},
      {"--batch", "0"},
      {"--batch", "-5"},
      {"--max-open-keys", "4294967297"},
      {"--shards", "2147483648"},
      {"--split", "nope"},
  };
  const std::vector<std::vector<std::string>> listen_cases = {
      {"--listen", "127.0.0.1:0", "--shards", "0"},
      {"--listen", "nohost"},
      {"--listen", "127.0.0.1:0", "--max-connections", "0"},
  };
  auto expect_usage_error = [](const std::string& subcommand,
                               const std::vector<std::string>& flags) {
    std::vector<std::string> args = {subcommand, "--data",
                                     "cli_test_no_such_dir"};
    args.insert(args.end(), flags.begin(), flags.end());
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.code, 2) << subcommand << " " << flags[0] << " "
                              << flags[1] << "\n" << result.err;
    EXPECT_NE(result.err.find("kvec: --"), std::string::npos) << result.err;
  };
  for (const std::vector<std::string>& flags : replay_cases) {
    expect_usage_error("serve", flags);
    expect_usage_error("bench", flags);
  }
  for (const std::vector<std::string>& flags : listen_cases) {
    expect_usage_error("serve", flags);
  }
}

// The int flags of loadgen, soak and train go through the same range
// check as serve's, and eval and loadgen check --split before the dataset
// (or the model bundle) is read. Only rejected values run here: an
// accepted --connections, --workers or --shards starts that many threads.
TEST(CliFlags, OutOfRangeFlagsAreUsageErrorsBeforeAnyWork) {
  const std::vector<std::vector<std::string>> cases = {
      {"loadgen", "--connections", "4294967297"},
      {"loadgen", "--connections", "0"},
      {"loadgen", "--batch", "4294967297"},
      {"loadgen", "--batch", "0"},
      {"loadgen", "--timeout-ms", "2147483648"},
      {"loadgen", "--timeout-ms", "0"},
      {"loadgen", "--retries", "4294967296"},
      {"loadgen", "--retries", "-1"},
      {"loadgen", "--backoff-ms", "4294967296"},
      {"loadgen", "--backoff-ms", "-1"},
      {"loadgen", "--backoff-cap-ms", "4294967296"},
      {"loadgen", "--backoff-cap-ms", "5"},
      {"loadgen", "--split", "nope"},
      {"soak", "--shards", "4294967297"},
      {"soak", "--shards", "0"},
      {"soak", "--workers", "4294967297"},
      {"soak", "--workers", "-1"},
      {"soak", "--batch", "4294967297"},
      {"soak", "--batch", "0"},
      {"soak", "--warmup-cycles", "4294967296"},
      {"soak", "--warmup-cycles", "-1"},
      {"soak", "--cycles", "4294967297"},
      {"soak", "--cycles", "0"},
      {"train", "--epochs", "4294967298"},
      {"train", "--epochs", "-1"},
      {"train", "--embed-dim", "4294967297"},
      {"train", "--state-dim", "4294967297"},
      {"train", "--blocks", "4294967297"},
      {"train", "--ffn-dim", "4294967297"},
      {"train", "--train-seed", "-1"},
      {"eval", "--split", "nope"},
  };
  // Every flag the cases do not vary is valid, and the dataset directory
  // does not exist: a late check would exit 1 on the dataset instead.
  const std::map<std::string, std::vector<std::string>> base = {
      {"loadgen", {"--data", "cli_test_no_such_dir", "--connect",
                   "127.0.0.1:1"}},
      {"soak", {"--keys", "400"}},
      {"train", {"--data", "cli_test_no_such_dir", "--model",
                 "cli_test_no_such.kvm"}},
      {"eval", {"--data", "cli_test_no_such_dir", "--model",
                "cli_test_no_such.kvm"}},
  };
  for (const std::vector<std::string>& flags : cases) {
    std::vector<std::string> args = {flags[0]};
    const std::vector<std::string>& fixed = base.at(flags[0]);
    args.insert(args.end(), fixed.begin(), fixed.end());
    args.insert(args.end(), flags.begin() + 1, flags.end());
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.code, 2) << flags[0] << " " << flags[1] << " "
                              << flags[2] << "\n" << result.err;
    EXPECT_NE(result.err.find("kvec: --"), std::string::npos) << result.err;
  }
}

// --episodes overrides a preset's total, which is split 8:1:1: 1-9
// episodes cannot fill three splits and are a usage error in every
// subcommand that takes the flag, before any dataset is generated. 0 (the
// preset default) and 10 stay valid.
TEST(CliFlags, TooFewEpisodesAreUsageErrors) {
  const std::vector<std::vector<std::string>> commands = {
      {"generate", "--preset", "ustc", "--out", "cli_test_few_episodes"},
      {"serve", "--preset", "ustc"},
      {"bench", "--preset", "ustc"},
      {"train", "--preset", "ustc", "--model", "cli_test_few_episodes.kvm"},
      {"eval", "--preset", "ustc", "--model", "cli_test_no_such.kvm"},
      {"loadgen", "--preset", "ustc", "--connect", "127.0.0.1:1"},
      {"sweep", "--preset", "smoke"},
  };
  for (const std::vector<std::string>& command : commands) {
    for (const char* episodes : {"1", "6", "9"}) {
      std::vector<std::string> args = command;
      args.insert(args.end(), {"--episodes", episodes});
      const CliResult result = RunCli(args);
      EXPECT_EQ(result.code, 2) << command[0] << " --episodes " << episodes
                                << "\n" << result.err;
      EXPECT_NE(result.err.find("kvec: --episodes must be 0"),
                std::string::npos)
          << result.err;
    }
  }
  const CliResult ten =
      RunCli({"generate", "--preset", "ustc", "--episodes", "10", "--out",
              "cli_test_few_episodes"});
  EXPECT_EQ(ten.code, 0) << ten.err;
  std::filesystem::remove_all("cli_test_few_episodes");
}

// ---- kvec figure ---------------------------------------------------------

TEST(CliFigure, ListNamesEveryExperiment) {
  const CliResult result = RunCli({"figure", "--list"});
  EXPECT_EQ(result.code, 0) << result.err;
  ASSERT_EQ(Experiments().size(), 21u);
  for (const char* name :
       {"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "headline", "fig8", "fig9", "fig10", "fig11", "fig12",
        "ext-calibration", "ext-crossval", "ext-fusion",
        "ext-method-comparison", "ext-multihead", "ext-robustness",
        "ext-schedulers", "ext-selective-corr"}) {
    EXPECT_NE(FindExperiment(name), nullptr) << name;
    EXPECT_NE(result.out.find(std::string("| ") + name + " "),
              std::string::npos)
        << name;
  }
}

// Every experiment prints its header before it builds a dataset, so an
// empty stdout shows the usage error came first.
TEST(CliFigure, BadNameOrScaleIsAUsageErrorBeforeAnyWork) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"figure", "fig99"},
           {"figure"},
           {"figure", "fig3", "--scale", "huge"},
           {"figure", "headline", "--scale", "TINY"},
       }) {
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.code, 2) << args.back();
    EXPECT_EQ(result.err.rfind("kvec: ", 0), 0u) << result.err;
    EXPECT_TRUE(result.out.empty()) << result.out;
  }
}

// Tables I and II as text, byte for byte: a change here changes the
// reproduced numbers or their layout, and must be deliberate.
TEST(CliFigure, TablesReproduceTheirText) {
  const CliResult table1 = RunCli({"figure", "table1", "--scale", "tiny"});
  EXPECT_EQ(table1.code, 0) << table1.err;
  EXPECT_EQ(table1.out, R"(=== Table I: dataset statistics (scale=tiny) ===
| dataset                  | #keys | avg |Sk| | avg session len | #classes | paper avg |Sk| | paper session len |
|--------------------------|-------|----------|-----------------|----------|----------------|-------------------|
| USTC-TFC2016             | 300   | 12.5     | 5.4             | 9        | 31.2           | 8.3               |
| MovieLens-1M             | 300   | 22.7     | 1.6             | 2        | 163.5          | 1.7               |
| Traffic-FG               | 300   | 14.1     | 2.3             | 12       | 50.7           | 2.4               |
| Traffic-App              | 300   | 12.8     | 2.6             | 10       | 57.5           | 2.7               |
| Synthetic-Traffic(early) | 300   | 40.0     | 1.8             | 2        | 100.0          | 2.1               |
| Synthetic-Traffic(late)  | 300   | 40.0     | 1.8             | 2        | 100.0          | 2.1               |
)");
  const CliResult table2 = RunCli({"figure", "table2"});
  EXPECT_EQ(table2.code, 0) << table2.err;
  EXPECT_EQ(table2.out, R"(=== Table II: hyper-parameters of each method ===
| method         | hyperparameter  | sweep grid                       | description                  |
|----------------|-----------------|----------------------------------|------------------------------|
| KVEC           | alpha=0.1, beta | -0.02, 0, 0.002, 0.01, 0.05, 0.2 | earliness-accuracy trade off |
| SRN-EARLIEST   | lambda          | -0.02, 0, 0.002, 0.01, 0.05, 0.2 | earliness-accuracy trade off |
| SRN-Confidence | mu              | 0.5, 0.7, 0.8, 0.9, 0.95, 0.99   | halting confidence threshold |
| SRN-Fixed      | tau             | 1, 2, 4, 8, 16, 32               | halting time threshold       |
| EARLIEST       | lambda          | -0.02, 0, 0.002, 0.01, 0.05, 0.2 | earliness-accuracy trade off |
)");
}

}  // namespace
}  // namespace cli
}  // namespace kvec
