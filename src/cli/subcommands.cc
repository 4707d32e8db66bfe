#include "cli/subcommands.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "cli/args.h"
#include "cli/model_io.h"
#include "cli/report.h"
#include "cli/soak.h"
#include "cli/stats_report.h"
#include "core/model.h"
#include "core/sharded_stream_server.h"
#include "core/stream_server.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/presets.h"
#include "exp/cache.h"
#include "exp/figures.h"
#include "exp/method.h"
#include "exp/sweep.h"
#include "metrics/metrics.h"
#include "net/loadgen.h"
#include "net/tcp_ingest_server.h"
#include "util/bounded_queue.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/table.h"

namespace kvec {
namespace cli {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
// Graceful SIGINT shutdown (128 + SIGINT), the shell convention.
constexpr int kExitInterrupted = 130;

// Set by the SIGINT action while `kvec serve` replays (and by
// RequestServeInterrupt from tests); the replay loops poll it at batch
// boundaries. std::atomic<bool> is lock-free on every target we build, so
// the store is async-signal-safe.
std::atomic<bool> g_serve_interrupted{false};

void HandleServeSigint(int) { g_serve_interrupted.store(true); }

// ---- Shared dataset flags ------------------------------------------------

struct DatasetFlags {
  std::string* preset = nullptr;
  std::string* scale = nullptr;
  int64_t* seed = nullptr;
  int64_t* episodes = nullptr;
  std::string* data = nullptr;
};

DatasetFlags AddDatasetFlags(ArgParser* parser,
                             const std::string& default_preset) {
  DatasetFlags flags;
  flags.preset = parser->AddString(
      "preset", default_preset,
      "dataset preset (ustc, movielens, traffic-fg, traffic-app, "
      "synthetic-early, synthetic-late)");
  flags.scale = parser->AddString("scale", "tiny",
                                  "experiment scale: tiny|small|full");
  flags.seed = parser->AddInt("seed", 7, "dataset generation seed");
  flags.episodes = parser->AddInt(
      "episodes", 0, "override total episode count (0 = preset default)",
      IntAtLeast(0));
  flags.data = parser->AddString(
      "data", "", "load a dataset directory (kvec generate --out) instead "
                  "of generating from --preset");
  return flags;
}

bool ResolveDataset(const DatasetFlags& flags, Dataset* dataset,
                    std::string* error) {
  if (!flags.data->empty()) {
    return LoadDatasetDir(*flags.data, dataset, error);
  }
  PresetId preset;
  if (!ParsePresetId(*flags.preset, &preset)) {
    *error = "unknown preset '" + *flags.preset +
             "' (see kvec generate --list)";
    return false;
  }
  ExperimentScale scale;
  if (!ParseScale(*flags.scale, &scale)) {
    *error = "--scale must be tiny|small|full, got '" + *flags.scale + "'";
    return false;
  }
  std::unique_ptr<EpisodeGenerator> generator = MakeGenerator(preset, scale);
  SplitCounts counts = *flags.episodes > 0
                           ? SplitCounts::FromTotal(
                                 static_cast<int>(*flags.episodes))
                           : PresetSplitCounts(preset, scale);
  *dataset = GenerateDataset(*generator, counts,
                             static_cast<uint64_t>(*flags.seed));
  return true;
}

const std::vector<TangledSequence>* SplitOf(const Dataset& dataset,
                                            const std::string& name) {
  if (name == "train") return &dataset.train;
  if (name == "validation") return &dataset.validation;
  if (name == "test") return &dataset.test;
  return nullptr;
}

// --split names one of a dataset's three splits; checked before the
// dataset is resolved, so a typo is a usage error rather than a late one.
bool CheckSplit(const std::string& split, std::ostream& err) {
  if (SplitOf(Dataset(), split) != nullptr) return true;
  err << "kvec: --split must be train|validation|test, got '" << split
      << "'\n";
  return false;
}

// --episodes overrides a preset's total episode count, which is split
// 8:1:1 and so needs at least SplitCounts::kMinTotalEpisodes; 0 keeps the
// preset's own count. Checked before the dataset is resolved.
bool CheckEpisodes(int64_t episodes, std::ostream& err) {
  if (episodes == 0 || episodes >= SplitCounts::kMinTotalEpisodes) return true;
  err << "kvec: --episodes must be 0 (the preset default) or at least "
      << SplitCounts::kMinTotalEpisodes << ", got " << episodes << "\n";
  return false;
}

int UsageError(ArgParser& parser, std::ostream& err) {
  err << "kvec: " << parser.error() << "\n" << parser.Usage();
  return kExitUsage;
}

int RuntimeError(const std::string& message, std::ostream& err) {
  err << "kvec: " << message << "\n";
  return kExitRuntime;
}

Report SummaryReport(const EvaluationSummary& summary) {
  Report report;
  report.Double("earliness", summary.earliness)
      .Double("accuracy", summary.accuracy)
      .Double("macro_precision", summary.macro_precision)
      .Double("macro_recall", summary.macro_recall)
      .Double("macro_f1", summary.macro_f1)
      .Double("harmonic_mean", summary.harmonic_mean)
      .Int("num_sequences", summary.num_sequences);
  return report;
}

// A dataset is servable/evaluable by a model when every embedding lookup
// the items can produce stays inside the model's tables: same field count
// and class count, and no dataset vocabulary wider than the model's (the
// lookups KVEC_CHECK-abort on out-of-range ids, so this guard is what
// turns a mid-run abort into a clean exit-1 diagnostic). Key/position/
// time indices are clamped by the embedding layer and need no check.
bool SpecCompatible(const DatasetSpec& model_spec,
                    const DatasetSpec& data_spec, std::string* why) {
  if (data_spec.num_classes != model_spec.num_classes) {
    *why = "class counts differ";
    return false;
  }
  if (data_spec.num_value_fields() != model_spec.num_value_fields()) {
    *why = "value-field counts differ";
    return false;
  }
  for (int field = 0; field < data_spec.num_value_fields(); ++field) {
    if (data_spec.value_fields[field].vocab_size >
        model_spec.value_fields[field].vocab_size) {
      *why = "dataset vocabulary '" + data_spec.value_fields[field].name +
             "' is wider than the model's";
      return false;
    }
  }
  return true;
}

// Splits "HOST:PORT" for --listen/--connect. Port 0 is legal for --listen
// (kernel-chosen ephemeral port, reported via --port-file).
bool ParseHostPort(const std::string& text, std::string* host,
                   uint16_t* port, std::string* error) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    *error = "expected HOST:PORT, got '" + text + "'";
    return false;
  }
  *host = text.substr(0, colon);
  int64_t value = 0;
  for (size_t i = colon + 1; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      *error = "port must be numeric in '" + text + "'";
      return false;
    }
    value = value * 10 + (text[i] - '0');
    if (value > 65535) {
      *error = "port out of range in '" + text + "'";
      return false;
    }
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

// ---- kvec generate -------------------------------------------------------

int RunGenerate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  ArgParser parser("kvec generate");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* out_dir =
      parser.AddString("out", "", "output directory for the CSV dataset");
  bool* list = parser.AddBool("list", false, "list all presets and exit");
  bool* json = parser.AddBool("json", false, "emit JSON instead of a table");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*dataset_flags.episodes, err)) return kExitUsage;

  if (*list) {
    Table table({"preset", "alias", "classes", "value fields", "episodes "
                 "(tiny/small/full)"});
    for (const PresetInfo& info : AllPresets()) {
      std::unique_ptr<EpisodeGenerator> generator =
          MakeGenerator(info.id, ExperimentScale::kTiny);
      const DatasetSpec& spec = generator->spec();
      std::ostringstream episodes;
      for (ExperimentScale scale :
           {ExperimentScale::kTiny, ExperimentScale::kSmall,
            ExperimentScale::kFull}) {
        SplitCounts counts = PresetSplitCounts(info.id, scale);
        if (scale != ExperimentScale::kTiny) episodes << "/";
        episodes << (counts.train + counts.validation + counts.test);
      }
      table.AddRow({info.canonical, info.alias,
                    std::to_string(spec.num_classes),
                    std::to_string(spec.num_value_fields()),
                    episodes.str()});
    }
    out << table.ToText();
    return kExitOk;
  }

  if (out_dir->empty()) {
    err << "kvec: generate requires --out <dir> (or --list)\n"
        << parser.Usage();
    return kExitUsage;
  }

  Dataset dataset;
  std::string error;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }
  if (!SaveDatasetDir(*out_dir, dataset, &error)) {
    return RuntimeError(error, err);
  }

  auto split_report = [](const std::vector<TangledSequence>& episodes) {
    int64_t items = 0;
    for (const TangledSequence& episode : episodes) {
      items += static_cast<int64_t>(episode.items.size());
    }
    Report split;
    split.Int("episodes", static_cast<int64_t>(episodes.size()))
        .Int("items", items);
    return split;
  };
  Report splits;
  splits.Object("train", split_report(dataset.train))
      .Object("validation", split_report(dataset.validation))
      .Object("test", split_report(dataset.test));
  Report report;
  report.String("dataset", dataset.spec.name)
      .String("out", *out_dir)
      .Int("num_classes", dataset.spec.num_classes)
      .Int("value_fields", dataset.spec.num_value_fields())
      .Object("splits", std::move(splits));
  out << report.Render(*json);
  return kExitOk;
}

// ---- kvec train ----------------------------------------------------------

int RunTrain(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ArgParser parser("kvec train");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* model_path =
      parser.AddString("model", "", "output path of the model bundle");
  int64_t* epochs = parser.AddInt(
      "epochs", 0, "training epochs (0 = config default)", IntAtLeast(0));
  int64_t* embed_dim =
      parser.AddInt("embed-dim", 0, "item embedding width", IntAtLeast(0));
  int64_t* state_dim =
      parser.AddInt("state-dim", 0, "fusion state width", IntAtLeast(0));
  int64_t* blocks =
      parser.AddInt("blocks", 0, "attention blocks", IntAtLeast(0));
  int64_t* ffn_dim =
      parser.AddInt("ffn-dim", 0, "FFN hidden width", IntAtLeast(0));
  double* lr = parser.AddDouble("lr", 0.0, "learning rate");
  double* alpha = parser.AddDouble("alpha", -1.0,
                                   "REINFORCE surrogate weight l2");
  double* beta = parser.AddDouble(
      "beta", 0.0, "earliness pressure l3 (larger = earlier halts)");
  int64_t* train_seed = parser.AddInt(
      "train-seed", 0, "model init/training seed (0 = config default)",
      IntRange{0});
  bool* validate = parser.AddBool(
      "validate", true, "early-stopping model selection on the validation "
      "split");
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*dataset_flags.episodes, err)) return kExitUsage;
  if (model_path->empty()) {
    err << "kvec: train requires --model <path>\n" << parser.Usage();
    return kExitUsage;
  }

  Dataset dataset;
  std::string error;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }

  KvecConfig config = KvecConfig::ForSpec(dataset.spec);
  if (*epochs > 0) config.epochs = static_cast<int>(*epochs);
  if (*embed_dim > 0) config.embed_dim = static_cast<int>(*embed_dim);
  if (*state_dim > 0) config.state_dim = static_cast<int>(*state_dim);
  if (*blocks > 0) config.num_blocks = static_cast<int>(*blocks);
  if (*ffn_dim > 0) config.ffn_hidden_dim = static_cast<int>(*ffn_dim);
  if (*lr > 0) {
    config.learning_rate = static_cast<float>(*lr);
    config.baseline_learning_rate = static_cast<float>(*lr);
  }
  if (*alpha >= 0) config.alpha = static_cast<float>(*alpha);
  if (parser.Provided("beta")) config.beta = static_cast<float>(*beta);
  if (*train_seed > 0) config.seed = static_cast<uint64_t>(*train_seed);

  KvecModel model(config);
  KvecTrainer trainer(&model);
  const bool with_validation = *validate && !dataset.validation.empty();
  int best_epoch = -1;
  std::vector<TrainEpochStats> history =
      with_validation
          ? trainer.TrainWithValidation(dataset.train, dataset.validation,
                                        &best_epoch)
          : trainer.Train(dataset.train);
  EvaluationResult result = trainer.Evaluate(dataset.test);

  if (!SaveModelBundle(*model_path, &model)) {
    return RuntimeError("cannot write model bundle '" + *model_path + "'",
                        err);
  }

  std::vector<Report> epochs_report;
  for (const TrainEpochStats& stats : history) {
    Report epoch;
    epoch.Double("total_loss", stats.total_loss)
        .Double("classification_loss", stats.classification_loss)
        .Double("policy_loss", stats.policy_loss)
        .Double("earliness_loss", stats.earliness_loss)
        .Double("baseline_loss", stats.baseline_loss)
        .Double("train_accuracy", stats.train_accuracy)
        .Double("train_earliness", stats.train_earliness);
    epochs_report.push_back(std::move(epoch));
  }
  Report report;
  report.String("dataset", dataset.spec.name)
      .String("model", *model_path)
      .Int("parameters", model.ParameterCount())
      .Int("epochs", static_cast<int64_t>(history.size()))
      .Int("best_epoch", best_epoch)
      .Objects("history", std::move(epochs_report), "epoch")
      .Object("test", SummaryReport(result.summary));
  out << report.Render(*json);
  return kExitOk;
}

// ---- kvec eval -----------------------------------------------------------

int RunEval(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  ArgParser parser("kvec eval");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* model_path =
      parser.AddString("model", "", "model bundle from kvec train");
  std::string* split = parser.AddString(
      "split", "test", "which split to evaluate: train|validation|test");
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  bool* class_report = parser.AddBool(
      "report", false, "append the per-class classification report");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*dataset_flags.episodes, err)) return kExitUsage;
  if (model_path->empty()) {
    err << "kvec: eval requires --model <path>\n" << parser.Usage();
    return kExitUsage;
  }
  if (!CheckSplit(*split, err)) return kExitUsage;

  std::string error;
  std::unique_ptr<KvecModel> model = LoadModelBundle(*model_path, &error);
  if (model == nullptr) return RuntimeError(error, err);

  Dataset dataset;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }
  const std::vector<TangledSequence>* episodes = SplitOf(dataset, *split);
  std::string why;
  if (!SpecCompatible(model->config().spec, dataset.spec, &why)) {
    return RuntimeError(
        "dataset '" + dataset.spec.name + "' does not match the model's "
        "spec ('" + model->config().spec.name + "'): " + why,
        err);
  }

  KvecTrainer trainer(model.get());
  EvaluationResult result = trainer.Evaluate(*episodes);
  Report model_report;
  model_report.String("path", *model_path)
      .Int("parameters", model->ParameterCount())
      .Int("embed_dim", model->config().embed_dim)
      .Int("state_dim", model->config().state_dim)
      .Int("num_blocks", model->config().num_blocks);
  Report report;
  report.String("dataset", dataset.spec.name)
      .String("split", *split)
      .Int("episodes", static_cast<int64_t>(episodes->size()))
      .Object("model", std::move(model_report))
      .Object("summary", SummaryReport(result.summary));
  // The report rides inside the document so stdout stays one valid JSON
  // value (`... --json --report | jq .` must keep working).
  if (*class_report) {
    report.String("report", ClassificationReport(result.records,
                                                 dataset.spec.num_classes));
  }
  out << report.Render(*json);
  return kExitOk;
}

// ---- kvec sweep ----------------------------------------------------------

MethodSpec* FindMethod(std::vector<MethodSpec>* methods,
                       const std::string& name) {
  std::string needle = name;
  std::transform(needle.begin(), needle.end(), needle.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (MethodSpec& method : *methods) {
    std::string have = method.name;
    std::transform(have.begin(), have.end(), have.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (have == needle) return &method;
  }
  return nullptr;
}

// Evenly subsamples `grid` down to `points` values (endpoints kept).
std::vector<double> SubsampleGrid(const std::vector<double>& grid,
                                  int points) {
  if (points <= 0 || points >= static_cast<int>(grid.size())) return grid;
  std::vector<double> out;
  if (points == 1) {
    out.push_back(grid[grid.size() / 2]);
    return out;
  }
  for (int i = 0; i < points; ++i) {
    size_t index = static_cast<size_t>(
        std::lround(static_cast<double>(i) * (grid.size() - 1) /
                    (points - 1)));
    out.push_back(grid[index]);
  }
  return out;
}

int RunSweep(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ArgParser parser("kvec sweep");
  std::string* profile = parser.AddString(
      "preset", "paper",
      "sweep profile: smoke (CI-sized end-to-end), paper (full method set "
      "and grids), or a dataset preset name");
  std::string* dataset_name = parser.AddString(
      "dataset", "ustc", "dataset preset for the paper/smoke profiles");
  std::string* scale_text =
      parser.AddString("scale", "tiny", "experiment scale: tiny|small|full");
  int64_t* seed = parser.AddInt("seed", 7, "dataset generation seed");
  int64_t* episodes = parser.AddInt(
      "episodes", 0, "override total episode count (0 = profile default)",
      IntAtLeast(0));
  std::string* methods_text = parser.AddString(
      "methods", "",
      "comma list of methods (kvec, earliest, srn-earliest, srn-fixed, "
      "srn-confidence, prefix-ects, indicator); empty = profile default");
  int64_t* max_grid_points = parser.AddInt(
      "max-grid-points", 0,
      "subsample each method's hyper grid to at most N points (0 = full)",
      IntAtLeast(0));
  int64_t* epochs = parser.AddInt(
      "epochs", 0, "override training epochs per grid point", IntAtLeast(0));
  std::string* cache_dir = parser.AddString(
      "cache", "", "sweep-cache directory (reuses finished method sweeps)");
  std::string* out_path =
      parser.AddString("out", "", "also write the table to this file");
  bool* csv = parser.AddBool("csv", false, "emit CSV instead of a table");
  bool* json = parser.AddBool("json", false, "emit JSON instead of a table");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*episodes, err)) return kExitUsage;

  // Profile resolution. "smoke" shrinks everything so a cold checkout can
  // prove train→eval→table end-to-end in seconds (the CI docs job runs
  // exactly `kvec sweep --preset smoke`); "paper" is the full Figure-3–7
  // harness; a dataset preset name behaves like paper on that dataset.
  std::string dataset_text = *dataset_name;
  std::vector<std::string> method_names;
  int grid_points = static_cast<int>(*max_grid_points);
  int64_t total_episodes = *episodes;
  const bool smoke = *profile == "smoke";
  if (smoke) {
    method_names = {"kvec", "prefix-ects", "indicator"};
    if (grid_points == 0) grid_points = 2;
    if (total_episodes == 0) total_episodes = 30;
  } else if (*profile != "paper") {
    PresetId ignored;
    if (!ParsePresetId(*profile, &ignored)) {
      err << "kvec: --preset must be smoke, paper, or a dataset preset, "
             "got '" << *profile << "'\n";
      return kExitUsage;
    }
    dataset_text = *profile;
  }
  if (!methods_text->empty()) method_names = SplitCommaList(*methods_text);

  PresetId preset;
  if (!ParsePresetId(dataset_text, &preset)) {
    err << "kvec: unknown dataset preset '" << dataset_text << "'\n";
    return kExitUsage;
  }
  ExperimentScale scale;
  if (!ParseScale(*scale_text, &scale)) {
    err << "kvec: --scale must be tiny|small|full, got '" << *scale_text
        << "'\n";
    return kExitUsage;
  }

  std::unique_ptr<EpisodeGenerator> generator = MakeGenerator(preset, scale);
  SplitCounts counts =
      total_episodes > 0
          ? SplitCounts::FromTotal(static_cast<int>(total_episodes))
          : PresetSplitCounts(preset, scale);
  Dataset dataset = GenerateDataset(*generator, counts,
                                    static_cast<uint64_t>(*seed));

  MethodRunOptions options = MethodRunOptions::ForScale(scale);
  if (smoke) {
    // CI-sized: two epochs of a one-block model per grid point.
    options.epochs = 2;
    options.embed_dim = 12;
    options.state_dim = 16;
    options.num_blocks = 1;
    options.ffn_hidden_dim = 24;
  }
  if (*epochs > 0) options.epochs = static_cast<int>(*epochs);
  options.seed = static_cast<uint64_t>(*seed);

  std::vector<MethodSpec> all = AllMethodsExtended();
  std::vector<MethodSpec> selected;
  if (method_names.empty()) {
    // paper profile: the five methods of Figures 3–7, KVEC first.
    for (const MethodSpec& method : AllMethods()) selected.push_back(method);
  } else {
    // CLI aliases match the lowercased method names except the two
    // classical references.
    std::map<std::string, std::string> aliases = {
        {"prefix-ects", "Prefix-ECTS"}, {"indicator", "Indicator"}};
    for (const std::string& name : method_names) {
      auto alias = aliases.find(name);
      MethodSpec* method =
          FindMethod(&all, alias != aliases.end() ? alias->second : name);
      if (method == nullptr) {
        err << "kvec: unknown method '" << name << "'\n";
        return kExitUsage;
      }
      selected.push_back(*method);
    }
  }

  const SweepCache cache(*cache_dir);
  std::vector<SweepPoint> points;
  for (MethodSpec method : selected) {
    method.grid = SubsampleGrid(method.grid, grid_points);
    std::vector<SweepPoint> method_points = cache.LoadOrCompute(
        SweepCacheKey(preset, scale, static_cast<uint64_t>(*seed),
                      static_cast<int>(total_episodes), options, method),
        [&]() { return RunMethodSweep(method, dataset, options); });
    points.insert(points.end(), method_points.begin(), method_points.end());
  }

  std::vector<Report> point_reports;
  for (const SweepPoint& point : points) {
    Report element;
    element.String("method", point.method);
    for (const SweepMetric& metric : SweepMetrics()) {
      element.Double(metric.key, point.*metric.value);
    }
    point_reports.push_back(std::move(element));
  }
  Report report;
  report.String("dataset", dataset.spec.name)
      .String("scale", ScaleName(scale))
      .String("profile", *profile)
      .Objects("points", std::move(point_reports), "point");
  const std::string csv_text = SweepToTable(points).ToCsv();
  const std::string rendered =
      *csv && !*json ? csv_text : report.Render(*json);
  out << rendered;
  if (!out_path->empty()) {
    std::string error;
    if (!WriteTextFile(*out_path, *csv || *json ? rendered : csv_text,
                       &error)) {
      return RuntimeError(error, err);
    }
  }
  return kExitOk;
}

// ---- kvec figure ---------------------------------------------------------

int RunFigure(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ArgParser parser("kvec figure NAME");
  std::string* scale_text =
      parser.AddString("scale", "tiny", "experiment scale: tiny|small|full");
  std::string* cache_dir = parser.AddString(
      "cache", "", "sweep-cache directory, shared with kvec sweep (empty = "
                   "no cache)");
  bool* list = parser.AddBool("list", false, "list the experiments and exit");
  // NAME is the one positional argument; it comes first.
  std::string name;
  std::vector<std::string> flags = args;
  if (!flags.empty() && flags[0].compare(0, 1, "-") != 0) {
    name = flags[0];
    flags.erase(flags.begin());
  }
  if (!parser.Parse(flags)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (*list) {
    Table table({"name", "reproduces"});
    for (const Experiment& experiment : Experiments()) {
      table.AddRow({experiment.name, experiment.title});
    }
    out << table.ToText();
    return kExitOk;
  }
  const Experiment* experiment = FindExperiment(name);
  if (experiment == nullptr) {
    err << "kvec: "
        << (name.empty() ? "figure needs a NAME"
                         : "unknown figure '" + name + "'")
        << " (see kvec figure --list)\n";
    return kExitUsage;
  }
  ExperimentScale scale;
  if (!ParseScale(*scale_text, &scale)) {
    err << "kvec: --scale must be tiny|small|full, got '" << *scale_text
        << "'\n";
    return kExitUsage;
  }
  experiment->run(scale, SweepCache(*cache_dir), out);
  return kExitOk;
}

// ---- kvec serve / kvec bench --------------------------------------------

// All episodes of a split interleaved round-robin with globally unique
// keys — a router serving many tenants at once rather than one episode at
// a time. `truth` receives global key -> true label.
std::vector<Item> InterleaveEpisodes(
    const std::vector<TangledSequence>& episodes, int key_stride,
    std::map<int, int>* truth) {
  std::vector<Item> stream;
  size_t longest = 0;
  int64_t total = 0;
  for (const TangledSequence& episode : episodes) {
    longest = std::max(longest, episode.items.size());
    total += static_cast<int64_t>(episode.items.size());
  }
  stream.reserve(total);
  for (size_t position = 0; position < longest; ++position) {
    int offset = 0;
    for (const TangledSequence& episode : episodes) {
      if (position < episode.items.size()) {
        Item item = episode.items[position];
        const int global_key = item.key + offset;
        (*truth)[global_key] = episode.labels.at(item.key);
        item.key = global_key;
        stream.push_back(std::move(item));
      }
      offset += key_stride;
    }
  }
  return stream;
}

struct ServeOutcome {
  int64_t items = 0;
  int64_t correct = 0;
  int64_t labelled = 0;
  int64_t flush_events = 0;
  double seconds = 0.0;
  StreamServerStats stats;
  int open_keys_after = 0;
  bool interrupted = false;
  // One view per shard, for the SIGINT report.
  std::vector<StreamServerStats> per_shard;
  // --listen only: the bound HOST:PORT and the TCP front end's counters.
  std::string listen;
  net::TcpIngestServerStats net;
};

// Thread-safe verdict-accuracy accumulator: the shard workers deliver
// Submit-path events concurrently through the on_events sink.
struct EventRecorder {
  const std::map<int, int>* truth = nullptr;
  Mutex mutex;
  int64_t correct KVEC_GUARDED_BY(mutex) = 0;
  int64_t labelled KVEC_GUARDED_BY(mutex) = 0;

  void Record(const std::vector<StreamEvent>& events) KVEC_EXCLUDES(mutex) {
    int64_t batch_correct = 0;
    int64_t batch_labelled = 0;
    for (const StreamEvent& event : events) {
      auto it = truth->find(event.key);
      if (it != truth->end()) {
        ++batch_labelled;
        if (event.predicted_label == it->second) ++batch_correct;
      }
    }
    MutexLock lock(mutex);
    correct += batch_correct;
    labelled += batch_labelled;
  }
};

// How a feed ended. A replay that SIGINT cut short is not flushed, so its
// keys stay open for --save-checkpoint; the TCP front end's stream ends
// with SIGINT, so it is.
enum class FeedEnd { kEnded, kCutShort, kFailed };
// Feeds the server its stream; kFailed sets *error.
using Feed = std::function<FeedEnd(std::string* error)>;

// Invoked at batch boundaries with the cumulative offered item count;
// false (with *error set) aborts the replay.
using ReplayTick = std::function<bool(int64_t fed, std::string* error)>;

// Replays `stream` in microbatches of `batch` items: ObserveBatch,
// recording the events it returns, or with `submit` (workers mode) a
// fire-and-forget Submit, whose events reach the recorder through the
// on_events sink. Shared by serve and bench so the two subcommands cannot
// drift apart in semantics. Polls the SIGINT flag at batch boundaries.
Feed ReplayFeed(ShardedStreamServer* server, EventRecorder* recorder,
                bool submit, const std::vector<Item>& stream, int batch,
                const ReplayTick& tick) {
  return [=, &stream](std::string* error) {
    const size_t step = static_cast<size_t>(batch);
    int64_t offered = 0;
    for (size_t begin = 0; begin < stream.size(); begin += step) {
      if (g_serve_interrupted.load()) return FeedEnd::kCutShort;
      (void)KVEC_FAULT_POINT("serve.batch");
      const size_t end = std::min(stream.size(), begin + step);
      std::vector<Item> items(stream.begin() + begin, stream.begin() + end);
      if (submit) {
        server->Submit(items);
      } else {
        recorder->Record(server->ObserveBatch(items));
      }
      offered += static_cast<int64_t>(end - begin);
      // In workers mode the periodic checkpoint runs as a shard control
      // task, so it is safe to take while the workers drain their queues.
      if (tick && !tick(offered, error)) return FeedEnd::kFailed;
    }
    return g_serve_interrupted.load() ? FeedEnd::kCutShort : FeedEnd::kEnded;
  };
}

// Serves over TCP until SIGINT, then stops accepting and drains the
// connections (buffered requests are still answered). The dataset only
// supplies the model and its hello-shape here; the stream itself arrives
// over the wire.
Feed ListenFeed(ShardedStreamServer* server,
                const net::TcpIngestServerConfig& config,
                const std::string& port_file, std::ostream& err,
                ServeOutcome* outcome) {
  return [=, &err](std::string* error) {
    net::TcpIngestServer tcp(server, config);
    if (!tcp.Start(error)) return FeedEnd::kFailed;
    outcome->listen = config.host + ":" + std::to_string(tcp.port());
    // The listen line goes to stderr so --json stdout stays pure JSON;
    // scripts should use --port-file rather than parsing this.
    err << "kvec: listening on " << outcome->listen << "\n";
    if (!port_file.empty()) {
      std::ofstream file(port_file);
      file << tcp.port() << "\n";
      if (!file) {
        *error = "cannot write port file '" + port_file + "'";
        return FeedEnd::kFailed;
      }
    }
    while (!g_serve_interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    tcp.Shutdown();
    outcome->net = tcp.stats();
    return FeedEnd::kEnded;
  };
}

// The serving-state files of one run. `load` names a chain: a full base
// plus any consecutive deltas (a lone full checkpoint is a chain of length
// zero). With --checkpoint-every, `chain` is the state of the delta chain
// written at `save`; otherwise it is null and `save` gets a full snapshot.
struct CheckpointPlan {
  std::string load;
  std::string save;
  int64_t rebase_every = 0;
  ShardedStreamServer::IncrementalCheckpointState* chain = nullptr;
};

// The one serve sequence: load → feed → drain → flush → save. Only the
// feed differs between a local replay and the TCP front end. Throughput
// counts *processed* items (offered minus shed), from the items_processed
// delta so a --load-checkpoint baseline is excluded. False with *error
// set when the run must fail.
bool ServeOnce(ShardedStreamServer& server, const CheckpointPlan& plan,
               const Feed& feed, bool flush, EventRecorder* recorder,
               ServeOutcome* outcome, std::string* error) {
  if (!plan.load.empty()) {
    // Loading the path a chain is written to resumes that chain in place
    // instead of rebasing.
    const bool resume = plan.chain != nullptr && plan.load == plan.save;
    if (!server.RestoreFromCheckpointChain(plan.load,
                                           resume ? plan.chain : nullptr)) {
      *error = "cannot restore checkpoint '" + plan.load + "'";
      return false;
    }
  }
  const int64_t processed_before = server.stats().items_processed;
  const auto start = std::chrono::steady_clock::now();
  const FeedEnd end = feed(error);
  if (end == FeedEnd::kFailed) return false;
  // Submitted batches may still sit in the shard queues; the clock stops
  // only once they are served.
  server.Drain();
  outcome->interrupted = g_serve_interrupted.load();
  if (flush && end == FeedEnd::kEnded) {
    const std::vector<StreamEvent> events = server.Flush();
    outcome->flush_events = static_cast<int64_t>(events.size());
    recorder->Record(events);
  }
  outcome->seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  outcome->stats = server.stats();
  outcome->items = outcome->stats.items_processed - processed_before;
  outcome->open_keys_after = server.open_keys();
  {
    MutexLock lock(recorder->mutex);
    outcome->correct = recorder->correct;
    outcome->labelled = recorder->labelled;
  }
  for (int s = 0; s < server.num_shards(); ++s) {
    outcome->per_shard.push_back(server.shard_stats(s));
  }
  if (plan.save.empty()) return true;
  // A final incremental write puts the flush results on the chain; a plain
  // save would orphan the chain's fingerprints.
  const bool saved =
      plan.chain != nullptr
          ? server.CheckpointIncremental(plan.save, plan.rebase_every,
                                         plan.chain)
          : server.SaveCheckpoint(plan.save);
  if (!saved) *error = "cannot write checkpoint '" + plan.save + "'";
  return saved;
}

// Restores the previous SIGINT disposition on every exit path (including
// the RuntimeError early returns inside the replay loop).
struct SigintScope {
  explicit SigintScope(bool install) : active(install) {
    if (active) {
      g_serve_interrupted.store(false);
      previous = std::signal(SIGINT, HandleServeSigint);
    }
  }
  ~SigintScope() {
    if (active) std::signal(SIGINT, previous);
  }
  bool active;
  void (*previous)(int) = SIG_DFL;
};

double ItemsPerSec(const ServeOutcome& outcome) {
  return outcome.seconds > 0 ? outcome.items / outcome.seconds : 0.0;
}

int RunServeOrBench(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err, bool bench) {
  ArgParser parser(bench ? "kvec bench" : "kvec serve");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* model_path = parser.AddString(
      "model", "", "model bundle from kvec train (empty = train a throwaway "
                   "model on the fly)");
  std::string* split = parser.AddString(
      "split", "test", "which split to replay: train|validation|test");
  int64_t* shards = parser.AddInt(
      "shards", 1, "key-hash shards of the serving state (the shard count "
      "of a checkpoint must match it)",
      IntAtLeast(1));
  int64_t* workers = parser.AddInt(
      "workers", 0,
      "shard-owned worker threads (0 = synchronous ingest; N>0 = one worker "
      "per shard, implies --shards N)",
      IntAtLeast(0));
  int64_t* queue_depth = parser.AddInt(
      "queue-depth", 256,
      "per-shard bounded task-queue capacity, in batches (workers mode)",
      IntAtLeast(1));
  std::string* overload_policy_text = parser.AddString(
      "overload-policy", "block",
      "full-queue behavior in workers mode: block|shed-newest|shed-oldest");
  int64_t* batch = parser.AddInt(
      "batch", 64, "microbatch size for ObserveBatch (1 = item at a time)",
      IntAtLeast(1));
  int64_t* max_window =
      parser.AddInt("max-window-items", 4096,
                    "engine rebuild period in stream items", IntAtLeast(1));
  int64_t* idle_timeout = parser.AddInt(
      "idle-timeout", 512, "evict keys idle for this many stream positions",
      IntAtLeast(1));
  int64_t* max_open_keys = parser.AddInt(
      "max-open-keys", 1024, "open-key capacity per shard", IntAtLeast(1));
  bool* flush = parser.AddBool(
      "flush", true, "force-classify still-open keys at end of stream");
  std::string* load_checkpoint = parser.AddString(
      "load-checkpoint", "", "restore serving state before the replay");
  std::string* save_checkpoint = parser.AddString(
      "save-checkpoint", "", "snapshot serving state after the replay");
  int64_t* checkpoint_every =
      bench ? nullptr
            : parser.AddInt(
                  "checkpoint-every", 0,
                  "write an incremental checkpoint (delta chain next to "
                  "--save-checkpoint) every N replayed items (0 = off)");
  int64_t* rebase_every =
      bench ? nullptr
            : parser.AddInt(
                  "rebase-every", 8,
                  "fold the delta chain into a fresh full base after this "
                  "many deltas (0 = never rebase)");
  int64_t* repeat =
      bench ? parser.AddInt("repeat", 3, "measured repetitions", IntAtLeast(1))
            : nullptr;
  // The TCP front end is a serve-only mode (bench measures local replay).
  std::string* listen =
      bench ? nullptr
            : parser.AddString(
                  "listen", "",
                  "serve over TCP on HOST:PORT instead of replaying locally "
                  "(port 0 = kernel-chosen, see --port-file); SIGINT drains "
                  "and exits 130");
  std::string* port_file =
      bench ? nullptr
            : parser.AddString("port-file", "",
                               "write the bound TCP port to this file once "
                               "listening (for scripts using --listen ...:0)");
  int64_t* max_connections =
      bench ? nullptr
            : parser.AddInt("max-connections", 64,
                            "TCP connection cap; excess connections get an "
                            "OVERLOADED error frame",
                            IntAtLeast(1));
  int64_t* max_frame_bytes =
      bench ? nullptr
            : parser.AddInt("max-frame-bytes", net::kDefaultMaxFrameBytes,
                            "reject frames with larger payloads as MALFORMED");
  int64_t* net_idle_timeout =
      bench ? nullptr
            : parser.AddInt("net-idle-timeout-ms", 30000,
                            "evict connections that complete no frame for "
                            "this long",
                            IntAtLeast(1));
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*dataset_flags.episodes, err)) return kExitUsage;

  // Every flag is checked here, before the dataset is resolved (and a
  // throwaway model trained), so a bad value is a usage error rather than
  // a check failure in a server constructor.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  if (!ParseOverloadPolicy(*overload_policy_text, &overload_policy)) {
    err << "kvec: --overload-policy must be block|shed-newest|shed-oldest, "
           "got '"
        << *overload_policy_text << "'\n";
    return kExitUsage;
  }
  if (*workers > 0) {
    // The worker model is one owned thread per shard: --workers N alone
    // means N shards; an explicit conflicting --shards is an error, not a
    // silent override.
    if (!parser.Provided("shards")) {
      *shards = *workers;
    } else if (*shards != *workers) {
      err << "kvec: --workers must equal --shards (one owned worker per "
             "shard), got --workers "
          << *workers << " --shards " << *shards << "\n";
      return kExitUsage;
    }
  }
  const int64_t ckpt_every =
      checkpoint_every != nullptr ? *checkpoint_every : 0;
  const int64_t ckpt_rebase = rebase_every != nullptr ? *rebase_every : 0;
  if (ckpt_every < 0 || ckpt_rebase < 0) {
    err << "kvec: --checkpoint-every and --rebase-every must be >= 0\n";
    return kExitUsage;
  }
  if (ckpt_every > 0 && save_checkpoint->empty()) {
    err << "kvec: --checkpoint-every needs --save-checkpoint as the base "
           "path of the delta chain\n";
    return kExitUsage;
  }
  if (!CheckSplit(*split, err)) return kExitUsage;
  const bool listening = listen != nullptr && !listen->empty();
  net::TcpIngestServerConfig net_config;
  std::string error;
  if (listening) {
    if (ckpt_every > 0) {
      err << "kvec: --checkpoint-every applies to local replay, not "
             "--listen\n";
      return kExitUsage;
    }
    if (!ParseHostPort(*listen, &net_config.host, &net_config.port,
                       &error)) {
      err << "kvec: --listen: " << error << "\n";
      return kExitUsage;
    }
    if (*max_frame_bytes <= 0 || *max_frame_bytes > (1LL << 31)) {
      err << "kvec: --max-frame-bytes must be in (0, 2^31], got "
          << *max_frame_bytes << "\n";
      return kExitUsage;
    }
    net_config.max_connections = static_cast<int>(*max_connections);
    net_config.max_frame_bytes = static_cast<uint32_t>(*max_frame_bytes);
    net_config.idle_timeout_ms = static_cast<int>(*net_idle_timeout);
  }

  Dataset dataset;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }

  std::unique_ptr<KvecModel> model;
  if (!model_path->empty()) {
    model = LoadModelBundle(*model_path, &error);
    if (model == nullptr) return RuntimeError(error, err);
    std::string why;
    if (!SpecCompatible(model->config().spec, dataset.spec, &why)) {
      return RuntimeError("dataset does not match the model's spec: " + why,
                          err);
    }
  } else {
    // Serving demos should work from a cold start: train a small throwaway
    // model so the verdict stream is meaningful.
    KvecConfig config = KvecConfig::ForSpec(dataset.spec);
    config.embed_dim = 16;
    config.state_dim = 24;
    config.num_blocks = 1;
    config.ffn_hidden_dim = 32;
    config.epochs = 4;
    model = std::make_unique<KvecModel>(config);
    KvecTrainer trainer(model.get());
    trainer.Train(dataset.train);
  }

  std::map<int, int> truth;
  std::vector<Item> stream = InterleaveEpisodes(
      *SplitOf(dataset, *split), dataset.spec.max_keys_per_episode, &truth);
  net_config.num_value_fields = model->config().spec.num_value_fields();
  net_config.num_classes = model->config().spec.num_classes;

  ShardedStreamServerConfig sharded_config;
  sharded_config.num_shards = static_cast<int>(*shards);
  sharded_config.worker_threads = static_cast<int>(*workers);
  sharded_config.queue_depth = static_cast<int>(*queue_depth);
  sharded_config.overload_policy = overload_policy;
  sharded_config.shard.max_window_items = static_cast<int>(*max_window);
  sharded_config.shard.idle_timeout = static_cast<int>(*idle_timeout);
  sharded_config.shard.max_open_keys = static_cast<int>(*max_open_keys);
  const int batch_size = static_cast<int>(*batch);

  const int runs = bench ? static_cast<int>(*repeat) : 1;
  // serve handles SIGINT gracefully (drain, per-shard report, checkpoint,
  // exit 130); bench keeps the default disposition so a Ctrl-C kills it.
  SigintScope sigint_scope(!bench);
  std::vector<ServeOutcome> outcomes;
  for (int run = 0; run < runs; ++run) {
    ServeOutcome outcome;
    EventRecorder recorder;
    recorder.truth = &truth;
    CheckpointPlan plan{*load_checkpoint, *save_checkpoint, ckpt_rebase};
    ShardedStreamServerConfig config = sharded_config;
    if (*workers > 0) {
      config.on_events = [&recorder](int /*shard*/,
                                     const std::vector<StreamEvent>& events) {
        recorder.Record(events);
      };
    }
    ShardedStreamServer server(*model, config);
    ShardedStreamServer::IncrementalCheckpointState chain;
    ReplayTick tick;
    if (ckpt_every > 0) {
      plan.chain = &chain;
      tick = [&server, &plan, ckpt_every, next = ckpt_every](
                 int64_t fed, std::string* tick_error) mutable {
        if (fed < next) return true;
        while (next <= fed) next += ckpt_every;
        if (server.CheckpointIncremental(plan.save, plan.rebase_every,
                                         plan.chain)) {
          return true;
        }
        *tick_error = "cannot write incremental checkpoint chain at '" +
                      plan.save + "'";
        return false;
      };
    }
    const Feed feed =
        listening ? ListenFeed(&server, net_config, *port_file, err, &outcome)
                  : ReplayFeed(&server, &recorder, *workers > 0, stream,
                               batch_size, tick);
    if (!ServeOnce(server, plan, feed, *flush, &recorder, &outcome, &error)) {
      return RuntimeError(error, err);
    }
    const bool interrupted = outcome.interrupted;
    outcomes.push_back(std::move(outcome));
    if (interrupted) break;
  }

  // bench reports the best repetition (least scheduler noise); serve has
  // exactly one.
  const ServeOutcome* best = &outcomes.front();
  for (const ServeOutcome& outcome : outcomes) {
    if (outcome.seconds < best->seconds) best = &outcome;
  }
  const double accuracy =
      best->labelled > 0
          ? static_cast<double>(best->correct) / best->labelled
          : 0.0;

  Report report;
  if (listening) {
    report.String("listen", best->listen)
        .Double("seconds", best->seconds)
        .Int("items_processed", best->items)
        .Int("flush_events", best->flush_events);
  } else {
    report.String("dataset", dataset.spec.name)
        .String("split", *split)
        .Int("items", best->items)
        .Int("shards", *shards)
        .Int("workers", *workers)
        .Int("batch", *batch)
        .Double("seconds", best->seconds)
        .Double("items_per_sec", ItemsPerSec(*best), 1)
        .Double("serving_accuracy", accuracy)
        .Int("open_keys_after", best->open_keys_after);
  }
  report.Bool("interrupted", best->interrupted);
  AddStats(best->stats, &report);
  if (listening) {
    AddStats(best->net, &report);
  } else if (*workers > 0) {
    report.String("overload_policy", OverloadPolicyName(overload_policy))
        .Int("queue_depth", *queue_depth);
  }
  if (bench) {
    std::vector<double> rates;
    for (const ServeOutcome& outcome : outcomes) {
      rates.push_back(ItemsPerSec(outcome));
    }
    report.Int("repetitions", runs).Doubles("items_per_sec_all", rates, 1);
  }
  // After SIGINT, one column per shard, so an operator can see which shard
  // was hot (or shedding) when the process was asked to stop.
  if (best->interrupted) {
    std::vector<Report> shard_reports(best->per_shard.size());
    for (size_t s = 0; s < best->per_shard.size(); ++s) {
      AddStats(best->per_shard[s], &shard_reports[s]);
    }
    report.Breakdown("interrupted: drained shard queues, final per-shard stats",
                     std::move(shard_reports), "shard");
  }
  out << report.Render(*json);
  return best->interrupted ? kExitInterrupted : kExitOk;
}

// ---- kvec loadgen --------------------------------------------------------

int RunLoadgenCommand(const std::vector<std::string>& args, std::ostream& out,
                      std::ostream& err) {
  ArgParser parser("kvec loadgen");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* split = parser.AddString(
      "split", "test", "which split to replay: train|validation|test");
  std::string* connect = parser.AddString(
      "connect", "", "server HOST:PORT to drive (kvec serve --listen)");
  int64_t* connections = parser.AddInt(
      "connections", 1, "concurrent client connections (one thread each)",
      IntAtLeast(1));
  int64_t* batch =
      parser.AddInt("batch", 64, "items per ingest frame", IntAtLeast(1));
  double* rate = parser.AddDouble(
      "rate", 0.0,
      "microbatches/sec per connection (0 = as fast as acks return)");
  int64_t* timeout_ms = parser.AddInt(
      "timeout-ms", 2000, "per-request deadline (connect and round trip)",
      IntAtLeast(1));
  int64_t* retries = parser.AddInt(
      "retries", 5, "retry budget per batch beyond the first attempt",
      IntAtLeast(0));
  int64_t* backoff_ms = parser.AddInt(
      "backoff-ms", 10,
      "initial retry backoff (doubles per attempt, jittered)", IntAtLeast(0));
  int64_t* backoff_cap_ms =
      parser.AddInt("backoff-cap-ms", 1000,
                    "exponential backoff growth stops here", IntAtLeast(0));
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (!CheckEpisodes(*dataset_flags.episodes, err)) return kExitUsage;
  if (connect->empty()) {
    err << "kvec: --connect HOST:PORT is required\n" << parser.Usage();
    return kExitUsage;
  }
  std::string host;
  uint16_t port = 0;
  std::string error;
  if (!ParseHostPort(*connect, &host, &port, &error) || port == 0) {
    err << "kvec: --connect: "
        << (port == 0 && error.empty() ? "port must be nonzero" : error)
        << "\n";
    return kExitUsage;
  }
  if (*backoff_cap_ms < *backoff_ms || *rate < 0) {
    err << "kvec: --backoff-cap-ms must be >= --backoff-ms and --rate >= "
           "0\n";
    return kExitUsage;
  }
  if (!CheckSplit(*split, err)) return kExitUsage;

  Dataset dataset;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }
  std::map<int, int> truth;  // unused: verdicts surface on the server side
  const std::vector<Item> stream =
      InterleaveEpisodes(*SplitOf(dataset, *split),
                         dataset.spec.max_keys_per_episode, &truth);

  net::LoadgenConfig config;
  config.client.host = host;
  config.client.port = port;
  config.client.connect_timeout_ms = static_cast<int>(*timeout_ms);
  config.client.request_timeout_ms = static_cast<int>(*timeout_ms);
  config.connections = static_cast<int>(*connections);
  config.batch_size = static_cast<int>(*batch);
  config.rate = *rate;
  config.retries = static_cast<int>(*retries);
  config.backoff_ms = static_cast<int>(*backoff_ms);
  config.backoff_cap_ms = static_cast<int>(*backoff_cap_ms);
  config.seed = static_cast<uint64_t>(*dataset_flags.seed);
  config.num_value_fields = dataset.spec.num_value_fields();
  config.num_classes = dataset.spec.num_classes;

  net::LoadgenReport report;
  if (!net::RunLoadgen(config, stream, &report, &error)) {
    return RuntimeError(error, err);
  }

  Report latency;
  latency.Int("count", report.latency.count)
      .Int("min", report.latency.min_us)
      .Double("mean", report.latency.mean_us, 1)
      .Int("p50", report.latency.p50_us)
      .Int("p90", report.latency.p90_us)
      .Int("p99", report.latency.p99_us)
      .Int("p999", report.latency.p999_us)
      .Int("max", report.latency.max_us);
  Report result;
  result.String("connect", *connect)
      .Int("connections", *connections)
      .Int("batch", *batch)
      .Int("batches_sent", report.batches_sent)
      .Int("batches_failed", report.batches_failed)
      .Int("items_acked", report.items_acked)
      .Int("items_shed", report.items_shed)
      .Int("retries", report.retries)
      .Int("overloaded_replies", report.overloaded_replies)
      .Int("reconnects", report.reconnects)
      .Int("elapsed_ms", report.elapsed_ms)
      .Double("batches_per_sec", report.batches_per_sec, 1)
      .Double("items_per_sec", report.items_per_sec, 1)
      .Object("latency_us", std::move(latency));
  out << result.Render(*json);
  // "It ran" is not success if nothing was delivered: a server that
  // rejected or dropped every batch should fail scripts loudly.
  if (report.batches_sent == 0 && report.batches_failed > 0) {
    return kExitRuntime;
  }
  return kExitOk;
}

// ---- kvec checkpoint -----------------------------------------------------

const char* SectionName(int32_t id) {
  switch (id) {
    case kCheckpointSectionStreamServer:
      return "stream_server";
    case kCheckpointSectionShardManifest:
      return "shard_manifest";
    case kCheckpointSectionShard:
      return "shard";
    case kCheckpointSectionDeltaManifest:
      return "delta_manifest";
    case kCheckpointSectionShardDelta:
      return "shard_delta";
    case kCheckpointSectionModelConfig:
      return "model_config";
    case kCheckpointSectionModelParams:
      return "model_params";
    default:
      return "unknown";
  }
}

int RunCheckpoint(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  ArgParser parser("kvec checkpoint");
  std::string* file = parser.AddString(
      "inspect", "", "checkpoint container to describe (model bundle from "
                     "kvec train, or serving state from kvec serve)");
  bool* json = parser.AddBool("json", false, "emit JSON instead of a table");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (file->empty()) {
    err << "kvec: checkpoint requires --inspect <path>\n" << parser.Usage();
    return kExitUsage;
  }

  Checkpoint checkpoint;
  if (!CheckpointLoad(*file, &checkpoint)) {
    return RuntimeError("'" + *file +
                            "' is not a readable checkpoint container "
                            "(bad magic, version, or framing)",
                        err);
  }

  // If a model-config section parses, describe the model too.
  KvecConfig config;
  bool have_config = false;
  if (const CheckpointSection* section =
          checkpoint.Find(kCheckpointSectionModelConfig)) {
    BinaryReader reader(section->payload);
    have_config = ReadKvecConfig(&reader, &config);
  }

  std::vector<Report> sections;
  for (const CheckpointSection& section : checkpoint.sections) {
    Report element;
    element.Int("id", section.id)
        .String("name", SectionName(section.id))
        .Int("bytes", static_cast<int64_t>(section.payload.size()));
    sections.push_back(std::move(element));
  }
  Report report;
  report.String("file", *file)
      .Int("format_version", checkpoint.version)
      .Objects("sections", std::move(sections), "section");
  if (have_config) {
    Report model;
    model.String("dataset", config.spec.name)
        .Int("num_classes", config.spec.num_classes)
        .Int("embed_dim", config.embed_dim)
        .Int("state_dim", config.state_dim)
        .Int("num_blocks", config.num_blocks)
        .Int("ffn_hidden_dim", config.ffn_hidden_dim);
    report.Object("model", std::move(model));
  }
  out << report.Render(*json);
  return kExitOk;
}

std::string GlobalUsage() {
  std::ostringstream out;
  out << "kvec — early classification of tangled key-value streams\n"
      << "usage: kvec <subcommand> [flags]\n\nsubcommands:\n";
  size_t width = 0;
  for (const SubcommandInfo& info : Subcommands()) {
    width = std::max(width, std::string(info.name).size());
  }
  for (const SubcommandInfo& info : Subcommands()) {
    out << "  " << info.name
        << std::string(width - std::string(info.name).size() + 2, ' ')
        << info.summary << "\n";
  }
  out << "\nrun 'kvec <subcommand> --help' for that subcommand's flags;\n"
      << "see docs/REPRODUCING.md for the end-to-end walkthrough.\n";
  return out.str();
}

}  // namespace

void RequestServeInterrupt() { g_serve_interrupted.store(true); }

const std::vector<SubcommandInfo>& Subcommands() {
  static const std::vector<SubcommandInfo> subcommands = {
      {"generate", "synthesize a dataset preset into a CSV directory"},
      {"train", "train a KVEC model and save a self-describing bundle"},
      {"eval", "evaluate a model bundle on a split (tables or JSON)"},
      {"sweep", "earliness/accuracy sweeps across methods"},
      {"figure", "reproduce one of the paper's tables, figures or "
                 "extensions"},
      {"serve", "replay a stream through the bounded/sharded serving stack"},
      {"loadgen", "drive a kvec serve --listen endpoint over TCP with "
                  "retry/backoff and latency percentiles"},
      {"bench", "end-to-end serving throughput measurement"},
      {"soak", "bounded-memory soak: RSS-flatness assertion and the "
               "memory-vs-open-keys curve"},
      {"checkpoint", "inspect model bundles and serving checkpoints"},
  };
  return subcommands;
}

int RunKvecCli(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "-h" ||
      args[0] == "help") {
    err << GlobalUsage();
    return args.empty() ? kExitUsage : kExitOk;
  }
  const std::string& subcommand = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  if (subcommand == "generate") return RunGenerate(rest, out, err);
  if (subcommand == "train") return RunTrain(rest, out, err);
  if (subcommand == "eval") return RunEval(rest, out, err);
  if (subcommand == "sweep") return RunSweep(rest, out, err);
  if (subcommand == "figure") return RunFigure(rest, out, err);
  if (subcommand == "serve") {
    return RunServeOrBench(rest, out, err, /*bench=*/false);
  }
  if (subcommand == "loadgen") return RunLoadgenCommand(rest, out, err);
  if (subcommand == "bench") {
    return RunServeOrBench(rest, out, err, /*bench=*/true);
  }
  if (subcommand == "soak") return RunSoakCommand(rest, out, err);
  if (subcommand == "checkpoint") return RunCheckpoint(rest, out, err);
  err << "kvec: unknown subcommand '" << subcommand << "'\n\n"
      << GlobalUsage();
  return kExitUsage;
}

int KvecMain(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? argc - 1 : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return RunKvecCli(args, std::cout, std::cerr);
}

}  // namespace cli
}  // namespace kvec
