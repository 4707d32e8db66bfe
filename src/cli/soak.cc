#include "cli/soak.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/args.h"
#include "cli/report.h"
#include "cli/stats_report.h"
#include "core/config.h"
#include "core/model.h"
#include "core/sharded_stream_server.h"
#include "data/types.h"
#include "util/rng.h"

// Sanitizer instrumentation inflates and de-flattens RSS (shadow memory,
// quarantines, allocator redzones), so the default flatness band widens —
// the soak still runs end to end under ASan (the CI sanitize job does),
// it just stops pretending the 10% production band is meaningful there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KVEC_SOAK_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KVEC_SOAK_SANITIZED 1
#endif
#endif

namespace kvec {
namespace cli {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

#if defined(KVEC_SOAK_SANITIZED)
constexpr double kDefaultRssBand = 0.60;
#else
constexpr double kDefaultRssBand = 0.10;
#endif

// Each soak cycle makes this many full passes over the stage's key space:
// enough that every shard crosses a window-rotation boundary roughly once
// per cycle (the window is sized to ~2.2 passes below), so a cycle
// exercises rotation, idle/capacity eviction, and steady-state churn.
constexpr int kPassesPerCycle = 2;

int RuntimeError(const std::string& message, std::ostream& err) {
  err << "kvec: " << message << "\n";
  return kExitRuntime;
}

int UsageError(const ArgParser& parser, std::ostream& err) {
  err << "kvec: " << parser.error() << "\n" << parser.Usage();
  return kExitUsage;
}

// Process resident set in bytes from /proc/self/status (VmRSS line, kB).
// Returns -1 when unavailable (non-Linux); the harness then reports the
// pool gauges but skips the RSS flatness assertion.
int64_t ReadRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      int64_t kb = 0;
      if (fields >> kb) return kb * 1024;
      return -1;
    }
  }
  return -1;
}

// A small fixed spec: the soak measures the serving stack's memory
// behavior, not model quality, so the model is untrained and tiny — per-key
// cost is dominated by the same state the production path carries (fusion
// state, open-key entries, correlation sessions), just with small dims.
DatasetSpec SoakSpec() {
  DatasetSpec spec;
  spec.name = "soak-synthetic";
  spec.value_fields = {{"field_a", 32}, {"field_b", 32}};
  spec.session_field = 0;
  spec.num_classes = 4;
  // Keys beyond this vocabulary share the last membership embedding row
  // (InputEmbedding clamps), which is exactly what lets the soak open
  // hundreds of thousands of distinct keys against a small table.
  spec.max_keys_per_episode = 64;
  spec.max_sequence_length = 64;
  spec.max_episode_length = 4096;
  return spec;
}

// Drives the ECTL halt probability to ~0 so keys stay open until the
// server's bounds (idle timeout, capacity, rotation) close them — the soak
// must hold the open-key population at the target, not at wherever a
// random-init policy happens to halt. The only [1,1] parameters in the
// model are the policy head's bias and the baseline head's bias; pinning
// both to -25 makes sigmoid(w·h - 25) vanish for any bounded hidden state
// while leaving the classifier untouched.
void NeutralizeHalting(KvecModel* model) {
  std::vector<Tensor> params;
  model->CollectParameters(&params);
  for (Tensor& param : params) {
    if (param.rows() == 1 && param.cols() == 1) param.Set(0, 0, -25.0f);
  }
}

struct SoakOptions {
  int64_t keys = 100000;
  int shards = 4;
  int workers = 0;
  int batch = 512;
  int warmup_cycles = 2;
  int steady_cycles = 4;
  double churn = 0.25;
  double rss_band = kDefaultRssBand;
  double minutes = 0.0;
  bool checkpoint = true;
  // Incremental mode replaces the per-cycle full encode/restore with a
  // CheckpointIncremental / RestoreFromCheckpointChain round-trip, so the
  // soak also proves the delta chain holds RSS flat under churn.
  bool incremental = false;
  uint64_t seed = 42;
};

struct StageResult {
  int64_t target_keys = 0;
  int open_keys_peak = 0;
  int64_t items = 0;
  double seconds = 0.0;
  int64_t rss_steady = -1;  // median of post-warm-up samples; -1 unknown
  // Upward-trend measure over the post-warm-up samples: peak of the second
  // half relative to the median of the first half. Negative when RSS
  // settles downward (allocator trim, a pool released at a rotation) —
  // benign for a bounded-memory claim, so it must not trip the band the
  // way a symmetric (max-min)/min spread would.
  double rss_drift = 0.0;
  bool rss_flat = true;
  // The server's counters at the end of the stage, except the two pool
  // gauges (bytes_resident, pool_blocks): they are the last ones read
  // before a checkpoint restore.
  StreamServerStats stats;
  std::vector<int64_t> rss_samples;  // per-steady-cycle peak RSS, in order
};

// One soak stage: a fresh server scoped to `target_keys`, warm-up cycles
// to reach the plateau, then steady cycles whose per-cycle peak-RSS
// samples must show no upward trend beyond the band. Each cycle: kPassesPerCycle round-robin
// passes over the (churning) key window (the window rotation, which can
// release a shard pool, falls once per cycle), optional checkpoint encode
// + restore at peak population.
bool RunStage(const KvecModel& model, const SoakOptions& options,
              int64_t target_keys, bool extend_to_minutes,
              StageResult* result, std::string* error) {
  const int shards = options.shards;
  const int64_t per_shard = (target_keys + shards - 1) / shards;
  // The hash split is uneven (20,000 keys over 4 shards route as 5,116 /
  // 4,937 / 4,928 / 5,019), so capacity follows the busiest shard of the
  // first key window rather than the even split, which it never undercuts.
  std::vector<int64_t> routed(shards, 0);
  for (int64_t key = 0; key < target_keys; ++key) {
    ++routed[ShardedStreamServer::ShardOf(static_cast<int>(key), shards)];
  }
  const int64_t busiest = *std::max_element(routed.begin(), routed.end());

  ShardedStreamServerConfig config;
  config.num_shards = shards;
  config.worker_threads = options.workers;
  // Per-shard bounds sized from the stage target so all three close paths
  // fire every steady cycle: capacity 2% above the busiest shard, idle
  // eviction at 1.3 passes (active keys are touched every ~1.0 pass;
  // churn-retired ones stop and get swept mid-next-pass), and engine
  // rotation once per cycle (the window holds exactly one cycle's items).
  config.shard.max_open_keys = static_cast<int>(
      std::max<int64_t>(16, busiest + std::max<int64_t>(8, busiest / 50)));
  config.shard.idle_timeout = static_cast<int>(
      std::max<int64_t>(64, per_shard + (3 * per_shard) / 10));
  config.shard.max_window_items =
      static_cast<int>(std::max<int64_t>(256, kPassesPerCycle * per_shard));

  ShardedStreamServer server(model, config);
  Rng rng(options.seed ^ static_cast<uint64_t>(target_keys));
  const DatasetSpec& spec = model.config().spec;

  // Incremental mode round-trips through an on-disk delta chain; the chain
  // lives in the temp dir and is unlinked when the stage finishes. A short
  // rebase cadence keeps both the delta and the rebase branch hot.
  // kvec-lint: allow-next(env-knob) POSIX temp-dir convention, not kvec's
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string chain_base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/kvec_soak_" +
      std::to_string(static_cast<long>(::getpid())) + "_" +
      std::to_string(target_keys) + ".ckpt";
  constexpr int64_t kSoakRebaseEvery = 3;
  ShardedStreamServer::IncrementalCheckpointState chain_state;
  auto unlink_chain = [&chain_base]() {
    for (int64_t seq = 1;; ++seq) {
      if (std::remove(
              ShardedStreamServer::DeltaPath(chain_base, seq).c_str()) != 0) {
        break;
      }
    }
    std::remove(chain_base.c_str());
  };

  const int64_t churn_keys = std::max<int64_t>(
      0, static_cast<int64_t>(options.churn * static_cast<double>(target_keys)));
  int64_t key_base = 0;
  int64_t position = 0;
  StreamServerStats gauges;
  std::vector<int64_t> steady_rss;
  result->target_keys = target_keys;

  const auto start = std::chrono::steady_clock::now();
  const double deadline_seconds = options.minutes * 60.0;
  int cycle = 0;
  while (true) {
    const bool warmup = cycle < options.warmup_cycles;
    const bool within_planned =
        cycle < options.warmup_cycles + options.steady_cycles;
    if (!within_planned) {
      if (!extend_to_minutes || deadline_seconds <= 0.0) break;
      const double elapsed =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (elapsed >= deadline_seconds) break;
    }

    // Per-cycle PEAK RSS, sampled at every batch boundary: the peak is
    // phase-independent of where the engine sits in its rotation window
    // (every cycle contains a moment of maximal window fill), so it is the
    // sample a flatness band can be asserted on — an end-of-cycle point
    // sample would oscillate with rotation phase, not with leaks.
    int64_t cycle_rss_peak = -1;
    for (int pass = 0; pass < kPassesPerCycle; ++pass) {
      std::vector<Item> batch;
      batch.reserve(static_cast<size_t>(options.batch));
      for (int64_t offset = 0; offset < target_keys; ++offset) {
        Item item;
        item.key = static_cast<int>(key_base + offset);
        item.value.reserve(spec.value_fields.size());
        for (const ValueField& field : spec.value_fields) {
          item.value.push_back(rng.NextInt(field.vocab_size));
        }
        item.time = static_cast<double>(position++) * 1e-3;
        batch.push_back(std::move(item));
        if (static_cast<int>(batch.size()) == options.batch ||
            offset + 1 == target_keys) {
          server.ObserveBatch(batch);
          batch.clear();
          result->open_keys_peak =
              std::max(result->open_keys_peak, server.open_keys());
          cycle_rss_peak = std::max(cycle_rss_peak, ReadRssBytes());
        }
      }
      result->items += target_keys;
      // Steady-state churn, applied per pass so retirement happens INSIDE
      // the rotation window: the oldest churn share of the key window goes
      // quiet (idle sweep catches it at 1.3 passes) while the fresh share
      // pushes the shard over capacity (LRU eviction catches the rest) —
      // both close paths keep recycling pool nodes every cycle.
      if (!warmup) key_base += churn_keys / kPassesPerCycle;
    }

    // The pool gauges are read BEFORE the checkpoint round-trip: a
    // restore stages fresh shard pools that hold only the restored state.
    // The process-local counters survive the restore.
    {
      const StreamServerStats stats = server.stats();
      gauges.bytes_resident = stats.bytes_resident;
      gauges.pool_blocks = stats.pool_blocks;
    }

    if (options.checkpoint) {
      if (options.incremental) {
        if (!server.CheckpointIncremental(chain_base, kSoakRebaseEvery,
                                          &chain_state) ||
            !server.RestoreFromCheckpointChain(chain_base, &chain_state)) {
          *error = "soak incremental checkpoint round-trip failed at cycle " +
                   std::to_string(cycle);
          unlink_chain();
          return false;
        }
      } else {
        const std::string bytes = server.EncodeCheckpoint();
        if (!server.RestoreCheckpoint(bytes)) {
          *error = "soak checkpoint round-trip failed at cycle " +
                   std::to_string(cycle);
          return false;
        }
      }
      cycle_rss_peak = std::max(cycle_rss_peak, ReadRssBytes());
    }

    if (!warmup && cycle_rss_peak >= 0) steady_rss.push_back(cycle_rss_peak);
    ++cycle;
  }

  const auto stop = std::chrono::steady_clock::now();
  result->seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();
  if (options.incremental) unlink_chain();

  // The serving counters are serialized and the process-local ones are
  // kept, so both survive the per-cycle restores and read cumulatively
  // here; the pool gauges were captured pre-restore inside the loop.
  result->stats = server.stats();
  result->stats.bytes_resident = gauges.bytes_resident;
  result->stats.pool_blocks = gauges.pool_blocks;

  result->rss_samples = steady_rss;
  if (!steady_rss.empty()) {
    std::vector<int64_t> sorted = steady_rss;
    std::sort(sorted.begin(), sorted.end());
    result->rss_steady = sorted[sorted.size() / 2];
    // A leak trends UP: the late samples sit above the early ones. Compare
    // the second half's peak against the first half's median so monotone
    // growth fails the band while benign downward settling (glibc trim,
    // a pool released after the warm-up overshoot) does not.
    if (steady_rss.size() >= 2) {
      const size_t half = steady_rss.size() / 2;
      std::vector<int64_t> early(steady_rss.begin(),
                                 steady_rss.begin() + half);
      std::sort(early.begin(), early.end());
      const int64_t baseline = std::max<int64_t>(early[early.size() / 2], 1);
      const int64_t late_peak =
          *std::max_element(steady_rss.begin() + half, steady_rss.end());
      result->rss_drift = static_cast<double>(late_peak - baseline) /
                          static_cast<double>(baseline);
    }
    result->rss_flat = result->rss_drift <= options.rss_band;
  }
  return true;
}

Report StageReport(const StageResult& stage) {
  Report report;
  report.Int("target_keys", stage.target_keys)
      .Int("open_keys_peak", stage.open_keys_peak)
      .Int("items", stage.items)
      .Double("seconds", stage.seconds)
      .Double("items_per_sec",
              stage.seconds > 0 ? stage.items / stage.seconds : 0.0, 1)
      .Int("rss_steady_bytes", stage.rss_steady)
      .Double("rss_drift", stage.rss_drift, 4)
      .Bool("rss_flat", stage.rss_flat)
      .Ints("rss_samples", stage.rss_samples);
  AddStats(stage.stats, &report);
  return report;
}

// The memory-vs-open-keys curve in the shape bench/run_benchmarks.sh
// merges ({"context": ..., "benchmarks": {name: counters}}), so
// BENCH_PR9.json sits beside the google-benchmark-derived reports.
std::string CurveJson(const SoakOptions& options,
                      const std::vector<StageResult>& stages) {
  Report context;
  context.Int("keys", options.keys)
      .Int("shards", options.shards)
      .Int("workers", options.workers)
      .Int("batch", options.batch)
      .Double("rss_band", options.rss_band, 4)
      .Int("passes_per_cycle", kPassesPerCycle)
      .Double("churn", options.churn, 4);
  Report benchmarks;
  for (const StageResult& stage : stages) {
    Report point;
    point.Double("real_time_ns", stage.seconds * 1e9, 1)
        .Double("items_per_second",
                stage.seconds > 0 ? stage.items / stage.seconds : 0.0, 1)
        .Int("open_keys_peak", stage.open_keys_peak)
        .Int("rss_bytes", stage.rss_steady)
        .Double("rss_drift", stage.rss_drift, 4)
        .Int("pool_resident_bytes", stage.stats.bytes_resident)
        .Int("pool_blocks", stage.stats.pool_blocks)
        .Int("scratch_high_water", stage.stats.scratch_high_water)
        .Int("compactions", stage.stats.compactions);
    benchmarks.Object(
        "SOAK_MemoryVsOpenKeys/" + std::to_string(stage.target_keys),
        std::move(point));
  }
  Report curve;
  curve.Object("context", std::move(context))
      .Object("benchmarks", std::move(benchmarks));
  return curve.ToJson();
}

}  // namespace

int RunSoakCommand(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  ArgParser parser("kvec soak");
  int64_t* keys =
      parser.AddInt("keys", 100000,
                    "peak open-key population of the final stage",
                    IntAtLeast(1));
  int64_t* shards =
      parser.AddInt("shards", 4, "serving shards", IntAtLeast(1));
  int64_t* workers = parser.AddInt(
      "workers", 0,
      "shard-owned worker threads (0 = synchronous ingest; N>0 must equal "
      "--shards)",
      IntAtLeast(0));
  int64_t* batch = parser.AddInt("batch", 512, "ObserveBatch microbatch size",
                                 IntAtLeast(1));
  int64_t* warmup = parser.AddInt(
      "warmup-cycles", 2, "cycles per stage excluded from the flatness band",
      IntAtLeast(0));
  int64_t* cycles = parser.AddInt(
      "cycles", 4, "measured steady-state cycles per stage", IntAtLeast(1));
  double* churn = parser.AddDouble(
      "churn", 0.25,
      "fraction of the key window replaced per steady cycle (drives "
      "eviction + pool recycling)");
  double* rss_band = parser.AddDouble(
      "rss-band", kDefaultRssBand,
      "max allowed post-warm-up RSS drift, (max-min)/min; exceeded = exit 1 "
      "(default widens under sanitizers)");
  double minutes_default = 0.0;
  // Only the default of --minutes: a long soak reuses CI's command line.
  // kvec-lint: allow-next(env-knob) default of --minutes, which wins
  if (const char* env = std::getenv("KVEC_SOAK_MINUTES")) {
    minutes_default = std::atof(env);
  }
  double* minutes = parser.AddDouble(
      "minutes", minutes_default,
      "stretch the final stage's steady phase to at least this many "
      "wall-clock minutes (default from KVEC_SOAK_MINUTES; 0 = planned "
      "cycles only)");
  std::string* scales_text = parser.AddString(
      "scales", "0.25,0.5,1",
      "comma-separated fractions of --keys; one soak stage (and one curve "
      "point) per scale, ascending");
  bool* checkpoint = parser.AddBool(
      "checkpoint", true,
      "encode + restore a full serving checkpoint at peak population every "
      "cycle");
  std::string* checkpoint_mode = parser.AddString(
      "checkpoint-mode", "full",
      "per-cycle checkpoint round-trip: full (in-memory encode/restore) or "
      "incremental (on-disk delta chain via CheckpointIncremental + "
      "RestoreFromCheckpointChain)");
  int64_t* seed = parser.AddInt("seed", 42, "value-stream RNG seed");
  std::string* curve = parser.AddString(
      "curve", "", "write the memory-vs-open-keys curve (bench-report JSON) "
                   "to this file");
  bool* json = parser.AddBool("json", false, "emit JSON instead of a table");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }

  if (*churn < 0 || *churn > 1 || *rss_band <= 0 || *minutes < 0) {
    err << "kvec: soak flags out of range (0 <= churn <= 1, rss-band > 0, "
           "minutes >= 0)\n";
    return kExitUsage;
  }
  if (*workers != 0 && *workers != *shards) {
    err << "kvec: --workers must be 0 or equal --shards (one owned worker "
           "per shard), got --workers "
        << *workers << " --shards " << *shards << "\n";
    return kExitUsage;
  }
  std::vector<double> scales;
  for (const std::string& text : SplitCommaList(*scales_text)) {
    const double scale = std::atof(text.c_str());
    if (scale <= 0 || scale > 1) {
      err << "kvec: --scales entries must be in (0, 1], got '" << text
          << "'\n";
      return kExitUsage;
    }
    scales.push_back(scale);
  }
  if (scales.empty()) scales.push_back(1.0);

  SoakOptions options;
  options.keys = *keys;
  options.shards = static_cast<int>(*shards);
  options.workers = static_cast<int>(*workers);
  options.batch = static_cast<int>(*batch);
  options.warmup_cycles = static_cast<int>(*warmup);
  options.steady_cycles = static_cast<int>(*cycles);
  options.churn = *churn;
  options.rss_band = *rss_band;
  options.minutes = *minutes;
  options.checkpoint = *checkpoint;
  if (*checkpoint_mode == "incremental") {
    options.incremental = true;
  } else if (*checkpoint_mode != "full") {
    err << "kvec: --checkpoint-mode must be full|incremental, got '"
        << *checkpoint_mode << "'\n";
    return kExitUsage;
  }
  options.seed = static_cast<uint64_t>(*seed);

  KvecConfig model_config = KvecConfig::ForSpec(SoakSpec());
  model_config.embed_dim = 12;
  model_config.state_dim = 16;
  model_config.num_blocks = 1;
  model_config.ffn_hidden_dim = 24;
  KvecModel model(model_config);
  NeutralizeHalting(&model);

  std::vector<StageResult> stages;
  bool flat = true;
  bool rss_available = true;
  for (size_t i = 0; i < scales.size(); ++i) {
    StageResult stage;
    const int64_t target = std::max<int64_t>(
        options.shards,
        static_cast<int64_t>(std::llround(scales[i] * options.keys)));
    std::string error;
    if (!RunStage(model, options, target,
                  /*extend_to_minutes=*/i + 1 == scales.size(), &stage,
                  &error)) {
      return RuntimeError(error, err);
    }
    flat = flat && stage.rss_flat;
    rss_available = rss_available && stage.rss_steady >= 0;
    stages.push_back(stage);
  }

  if (!curve->empty()) {
    std::ofstream file(*curve);
    file << CurveJson(options, stages);
    if (!file) {
      return RuntimeError("cannot write curve file '" + *curve + "'", err);
    }
  }

  std::vector<Report> stage_reports;
  for (const StageResult& stage : stages) {
    stage_reports.push_back(StageReport(stage));
  }
  Report report;
  report.Int("keys", options.keys)
      .Int("shards", options.shards)
      .Int("workers", options.workers)
      .Int("batch", options.batch)
      .Double("rss_band", options.rss_band, 4)
      .Bool("rss_available", rss_available)
      .Bool("flat", flat)
      .Objects("stages", std::move(stage_reports), "stage");
  out << report.Render(*json);

  if (!flat) {
    return RuntimeError(
        "post-warm-up RSS drifted outside the flatness band (see table / "
        "--json; widen --rss-band only with cause)",
        err);
  }
  return kExitOk;
}

}  // namespace cli
}  // namespace kvec
