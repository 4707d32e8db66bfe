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
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <type_traits>

#include "cli/args.h"
#include "cli/json_writer.h"
#include "cli/model_io.h"
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
      "episodes", 0, "override total episode count (0 = preset default)");
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

int UsageError(ArgParser& parser, std::ostream& err) {
  err << "kvec: " << parser.error() << "\n" << parser.Usage();
  return kExitUsage;
}

int RuntimeError(const std::string& message, std::ostream& err) {
  err << "kvec: " << message << "\n";
  return kExitRuntime;
}

void EmitSummaryFields(const EvaluationSummary& summary, JsonWriter* json) {
  json->Key("earliness").Double(summary.earliness);
  json->Key("accuracy").Double(summary.accuracy);
  json->Key("macro_precision").Double(summary.macro_precision);
  json->Key("macro_recall").Double(summary.macro_recall);
  json->Key("macro_f1").Double(summary.macro_f1);
  json->Key("harmonic_mean").Double(summary.harmonic_mean);
  json->Key("num_sequences").Int(summary.num_sequences);
}

Table SummaryTable(const EvaluationSummary& summary) {
  Table table({"metric", "value"});
  table.AddRow({"earliness", Table::FormatDouble(summary.earliness)});
  table.AddRow({"accuracy", Table::FormatDouble(summary.accuracy)});
  table.AddRow(
      {"macro_precision", Table::FormatDouble(summary.macro_precision)});
  table.AddRow({"macro_recall", Table::FormatDouble(summary.macro_recall)});
  table.AddRow({"macro_f1", Table::FormatDouble(summary.macro_f1)});
  table.AddRow(
      {"harmonic_mean", Table::FormatDouble(summary.harmonic_mean)});
  table.AddRow({"sequences", std::to_string(summary.num_sequences)});
  return table;
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
  bool* json = parser.AddBool("json", false, "emit a JSON summary");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }

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

  auto items_of = [](const std::vector<TangledSequence>& episodes) {
    int64_t items = 0;
    for (const TangledSequence& episode : episodes) {
      items += static_cast<int64_t>(episode.items.size());
    }
    return items;
  };
  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("dataset").String(dataset.spec.name);
    writer.Key("out").String(*out_dir);
    writer.Key("num_classes").Int(dataset.spec.num_classes);
    writer.Key("value_fields").Int(dataset.spec.num_value_fields());
    writer.Key("splits").BeginObject();
    writer.Key("train").BeginObject();
    writer.Key("episodes").Int(static_cast<int64_t>(dataset.train.size()));
    writer.Key("items").Int(items_of(dataset.train));
    writer.EndObject();
    writer.Key("validation").BeginObject();
    writer.Key("episodes")
        .Int(static_cast<int64_t>(dataset.validation.size()));
    writer.Key("items").Int(items_of(dataset.validation));
    writer.EndObject();
    writer.Key("test").BeginObject();
    writer.Key("episodes").Int(static_cast<int64_t>(dataset.test.size()));
    writer.Key("items").Int(items_of(dataset.test));
    writer.EndObject();
    writer.EndObject();
    writer.EndObject();
    out << writer.str();
  } else {
    out << "wrote " << dataset.spec.name << " to " << *out_dir << ": "
        << dataset.train.size() << " train / " << dataset.validation.size()
        << " validation / " << dataset.test.size() << " test episodes ("
        << items_of(dataset.train) + items_of(dataset.validation) +
               items_of(dataset.test)
        << " items)\n";
  }
  return kExitOk;
}

// ---- kvec train ----------------------------------------------------------

int RunTrain(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ArgParser parser("kvec train");
  DatasetFlags dataset_flags = AddDatasetFlags(&parser, "ustc");
  std::string* model_path =
      parser.AddString("model", "", "output path of the model bundle");
  int64_t* epochs = parser.AddInt("epochs", 0, "training epochs (0 = config "
                                  "default)");
  int64_t* embed_dim = parser.AddInt("embed-dim", 0, "item embedding width");
  int64_t* state_dim = parser.AddInt("state-dim", 0, "fusion state width");
  int64_t* blocks = parser.AddInt("blocks", 0, "attention blocks");
  int64_t* ffn_dim = parser.AddInt("ffn-dim", 0, "FFN hidden width");
  double* lr = parser.AddDouble("lr", 0.0, "learning rate");
  double* alpha = parser.AddDouble("alpha", -1.0,
                                   "REINFORCE surrogate weight l2");
  double* beta = parser.AddDouble(
      "beta", 0.0, "earliness pressure l3 (larger = earlier halts)");
  int64_t* train_seed =
      parser.AddInt("train-seed", 0, "model init/training seed (0 = config "
                    "default)");
  bool* validate = parser.AddBool(
      "validate", true, "early-stopping model selection on the validation "
      "split");
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
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

  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("dataset").String(dataset.spec.name);
    writer.Key("model").String(*model_path);
    writer.Key("parameters").Int(model.ParameterCount());
    writer.Key("epochs").Int(static_cast<int64_t>(history.size()));
    writer.Key("best_epoch").Int(best_epoch);
    writer.Key("history").BeginArray();
    for (const TrainEpochStats& stats : history) {
      writer.BeginObject();
      writer.Key("total_loss").Double(stats.total_loss);
      writer.Key("classification_loss").Double(stats.classification_loss);
      writer.Key("policy_loss").Double(stats.policy_loss);
      writer.Key("earliness_loss").Double(stats.earliness_loss);
      writer.Key("baseline_loss").Double(stats.baseline_loss);
      writer.Key("train_accuracy").Double(stats.train_accuracy);
      writer.Key("train_earliness").Double(stats.train_earliness);
      writer.EndObject();
    }
    writer.EndArray();
    writer.Key("test").BeginObject();
    EmitSummaryFields(result.summary, &writer);
    writer.EndObject();
    writer.EndObject();
    out << writer.str();
  } else {
    Table epochs_table({"epoch", "loss", "l1", "l2", "l3", "baseline",
                        "train_acc", "train_earliness"});
    for (size_t i = 0; i < history.size(); ++i) {
      const TrainEpochStats& stats = history[i];
      epochs_table.AddRow({std::to_string(i + 1),
                           Table::FormatDouble(stats.total_loss),
                           Table::FormatDouble(stats.classification_loss),
                           Table::FormatDouble(stats.policy_loss),
                           Table::FormatDouble(stats.earliness_loss),
                           Table::FormatDouble(stats.baseline_loss),
                           Table::FormatDouble(stats.train_accuracy),
                           Table::FormatDouble(stats.train_earliness)});
    }
    out << epochs_table.ToText();
    if (best_epoch >= 0) {
      out << "selected epoch " << best_epoch + 1
          << " by validation harmonic mean\n";
    }
    out << "\ntest split:\n" << SummaryTable(result.summary).ToText();
    out << "\nmodel bundle (" << model.ParameterCount()
        << " parameters) written to " << *model_path << "\n";
  }
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
  bool* report = parser.AddBool(
      "report", false, "append the per-class classification report");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
  if (model_path->empty()) {
    err << "kvec: eval requires --model <path>\n" << parser.Usage();
    return kExitUsage;
  }

  std::string error;
  std::unique_ptr<KvecModel> model = LoadModelBundle(*model_path, &error);
  if (model == nullptr) return RuntimeError(error, err);

  Dataset dataset;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }
  const std::vector<TangledSequence>* episodes = SplitOf(dataset, *split);
  if (episodes == nullptr) {
    err << "kvec: --split must be train|validation|test, got '" << *split
        << "'\n";
    return kExitUsage;
  }
  std::string why;
  if (!SpecCompatible(model->config().spec, dataset.spec, &why)) {
    return RuntimeError(
        "dataset '" + dataset.spec.name + "' does not match the model's "
        "spec ('" + model->config().spec.name + "'): " + why,
        err);
  }

  KvecTrainer trainer(model.get());
  EvaluationResult result = trainer.Evaluate(*episodes);
  const std::string report_text =
      *report ? ClassificationReport(result.records, dataset.spec.num_classes)
              : std::string();

  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("dataset").String(dataset.spec.name);
    writer.Key("split").String(*split);
    writer.Key("episodes").Int(static_cast<int64_t>(episodes->size()));
    writer.Key("model").BeginObject();
    writer.Key("path").String(*model_path);
    writer.Key("parameters").Int(model->ParameterCount());
    writer.Key("embed_dim").Int(model->config().embed_dim);
    writer.Key("state_dim").Int(model->config().state_dim);
    writer.Key("num_blocks").Int(model->config().num_blocks);
    writer.EndObject();
    writer.Key("summary").BeginObject();
    EmitSummaryFields(result.summary, &writer);
    writer.EndObject();
    // The report rides inside the document so stdout stays one valid JSON
    // value (`... --json --report | jq .` must keep working).
    if (*report) writer.Key("report").String(report_text);
    writer.EndObject();
    out << writer.str();
  } else {
    out << dataset.spec.name << " / " << *split << " split ("
        << episodes->size() << " episodes):\n"
        << SummaryTable(result.summary).ToText();
    if (*report) out << "\n" << report_text;
  }
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
      "episodes", 0, "override total episode count (0 = profile default)");
  std::string* methods_text = parser.AddString(
      "methods", "",
      "comma list of methods (kvec, earliest, srn-earliest, srn-fixed, "
      "srn-confidence, prefix-ects, indicator); empty = profile default");
  int64_t* max_grid_points = parser.AddInt(
      "max-grid-points", 0,
      "subsample each method's hyper grid to at most N points (0 = full)");
  int64_t* epochs =
      parser.AddInt("epochs", 0, "override training epochs per grid point");
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

  Table table = SweepToTable(points);
  std::string rendered;
  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("dataset").String(dataset.spec.name);
    writer.Key("scale").String(ScaleName(scale));
    writer.Key("profile").String(*profile);
    writer.Key("points").BeginArray();
    for (const SweepPoint& point : points) {
      writer.BeginObject();
      writer.Key("method").String(point.method);
      writer.Key("hyper").Double(point.hyper);
      writer.Key("earliness").Double(point.earliness);
      writer.Key("accuracy").Double(point.accuracy);
      writer.Key("precision").Double(point.precision);
      writer.Key("recall").Double(point.recall);
      writer.Key("f1").Double(point.f1);
      writer.Key("harmonic_mean").Double(point.harmonic_mean);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
    rendered = writer.str();
  } else if (*csv) {
    rendered = table.ToCsv();
  } else {
    rendered = table.ToText();
  }
  out << rendered;
  if (!out_path->empty()) {
    std::string error;
    if (!WriteTextFile(*out_path, *csv || *json ? rendered : table.ToCsv(),
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
  // One view per shard (a plain StreamServer is its own single shard) for
  // the SIGINT report.
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
template <typename Server>
Feed ReplayFeed(Server* server, EventRecorder* recorder, bool submit,
                const std::vector<Item>& stream, int batch,
                const ReplayTick& tick) {
  return [=, &stream](std::string* error) {
    const size_t step = static_cast<size_t>(batch);
    int64_t offered = 0;
    for (size_t begin = 0; begin < stream.size(); begin += step) {
      if (g_serve_interrupted.load()) return FeedEnd::kCutShort;
      (void)KVEC_FAULT_POINT("serve.batch");
      const size_t end = std::min(stream.size(), begin + step);
      std::vector<Item> items(stream.begin() + begin, stream.begin() + end);
      if constexpr (std::is_same_v<Server, ShardedStreamServer>) {
        if (submit) {
          server->Submit(items);
        } else {
          recorder->Record(server->ObserveBatch(items));
        }
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

// The serving-state files of one run. With --checkpoint-every, `chain` is
// the delta chain's state (sharded servers only); otherwise it is null and
// both files are plain snapshots.
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
template <typename Server>
bool ServeOnce(Server& server, const CheckpointPlan& plan, const Feed& feed,
               bool flush, EventRecorder* recorder, ServeOutcome* outcome,
               std::string* error) {
  constexpr bool kSharded = std::is_same_v<Server, ShardedStreamServer>;
  if (!plan.load.empty()) {
    bool loaded = false;
    if constexpr (kSharded) {
      // The load path of a delta chain is its head; loading the path we
      // save to resumes the chain in place instead of rebasing.
      loaded = plan.chain != nullptr
                   ? server.RestoreFromCheckpointChain(
                         plan.load,
                         plan.load == plan.save ? plan.chain : nullptr)
                   : server.LoadCheckpoint(plan.load);
    } else {
      loaded = server.LoadCheckpoint(plan.load);
    }
    if (!loaded) {
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
  if constexpr (kSharded) server.Drain();
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
  if constexpr (kSharded) {
    for (int s = 0; s < server.num_shards(); ++s) {
      outcome->per_shard.push_back(server.shard_stats(s));
    }
  } else {
    outcome->per_shard = {outcome->stats};
  }
  if (plan.save.empty()) return true;
  // A final incremental write puts the flush results on the chain; a plain
  // save would orphan the chain's fingerprints.
  bool saved = false;
  if constexpr (kSharded) {
    saved = plan.chain != nullptr
                ? server.CheckpointIncremental(plan.save, plan.rebase_every,
                                               plan.chain)
                : server.SaveCheckpoint(plan.save);
  } else {
    saved = server.SaveCheckpoint(plan.save);
  }
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

// An int flag must lie in [min, INT_MAX], so that its static_cast<int> is
// exact.
bool CheckIntFlag(const char* name, int64_t value, int64_t min,
                  std::ostream& err) {
  constexpr int64_t kMax = std::numeric_limits<int>::max();
  if (value >= min && value <= kMax) return true;
  err << "kvec: --" << name << " must be in [" << min << ", " << kMax
      << "], got " << value << "\n";
  return false;
}

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
      "shards", 1, "serve through a ShardedStreamServer with N shards");
  int64_t* workers = parser.AddInt(
      "workers", 0,
      "shard-owned worker threads (0 = synchronous ingest; N>0 = one worker "
      "per shard, implies --shards N)");
  int64_t* queue_depth = parser.AddInt(
      "queue-depth", 256,
      "per-shard bounded task-queue capacity, in batches (workers mode)");
  std::string* overload_policy_text = parser.AddString(
      "overload-policy", "block",
      "full-queue behavior in workers mode: block|shed-newest|shed-oldest");
  int64_t* batch = parser.AddInt(
      "batch", 64, "microbatch size for ObserveBatch (1 = item at a time)");
  int64_t* max_window = parser.AddInt(
      "max-window-items", 4096, "engine rebuild period in stream items");
  int64_t* idle_timeout = parser.AddInt(
      "idle-timeout", 512, "evict keys idle for this many stream positions");
  int64_t* max_open_keys =
      parser.AddInt("max-open-keys", 1024, "open-key capacity per shard");
  int64_t* compaction_interval = parser.AddInt(
      "compaction-check-interval", 4096,
      "per-shard items between pool-fragmentation checks (<=0 disables "
      "automatic compaction)");
  double* compaction_threshold = parser.AddDouble(
      "compaction-threshold", 2.0,
      "compact a shard pool when resident/live bytes exceed this ratio");
  int64_t* compaction_min_bytes = parser.AddInt(
      "compaction-min-bytes", 4 << 20,
      "never compact pools smaller than this many resident bytes");
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
      bench ? parser.AddInt("repeat", 3, "measured repetitions") : nullptr;
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
                            "OVERLOADED error frame");
  int64_t* max_frame_bytes =
      bench ? nullptr
            : parser.AddInt("max-frame-bytes", net::kDefaultMaxFrameBytes,
                            "reject frames with larger payloads as MALFORMED");
  int64_t* net_idle_timeout =
      bench ? nullptr
            : parser.AddInt("net-idle-timeout-ms", 30000,
                            "evict connections that complete no frame for "
                            "this long");
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }

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
  if (!CheckIntFlag("workers", *workers, 0, err) ||
      !CheckIntFlag("shards", *shards, 1, err) ||
      !CheckIntFlag("queue-depth", *queue_depth, 1, err) ||
      !CheckIntFlag("batch", *batch, 1, err) ||
      !CheckIntFlag("max-window-items", *max_window, 1, err) ||
      !CheckIntFlag("idle-timeout", *idle_timeout, 1, err) ||
      !CheckIntFlag("max-open-keys", *max_open_keys, 1, err) ||
      !CheckIntFlag("compaction-check-interval", *compaction_interval,
                    std::numeric_limits<int>::min(), err)) {
    return kExitUsage;
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
  if (SplitOf(Dataset(), *split) == nullptr) {
    err << "kvec: --split must be train|validation|test, got '" << *split
        << "'\n";
    return kExitUsage;
  }
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
    if (!CheckIntFlag("max-connections", *max_connections, 1, err) ||
        !CheckIntFlag("net-idle-timeout-ms", *net_idle_timeout, 1, err)) {
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
  sharded_config.shard.compaction_check_interval =
      static_cast<int>(*compaction_interval);
  sharded_config.shard.compaction_fragmentation_threshold =
      *compaction_threshold;
  sharded_config.shard.compaction_min_bytes = *compaction_min_bytes;
  const bool sharded =
      *shards > 1 || *workers > 0 || ckpt_every > 0 || listening;
  const int batch_size = static_cast<int>(*batch);

  const int runs = bench ? std::max<int>(1, static_cast<int>(*repeat)) : 1;
  // serve handles SIGINT gracefully (drain, per-shard report, checkpoint,
  // exit 130); bench keeps the default disposition so a Ctrl-C kills it.
  SigintScope sigint_scope(!bench);
  std::vector<ServeOutcome> outcomes;
  for (int run = 0; run < runs; ++run) {
    ServeOutcome outcome;
    EventRecorder recorder;
    recorder.truth = &truth;
    CheckpointPlan plan{*load_checkpoint, *save_checkpoint, ckpt_rebase};
    bool ok = false;
    if (sharded) {
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
      ok = ServeOnce(server, plan, feed, *flush, &recorder, &outcome, &error);
    } else {
      StreamServer server(*model, sharded_config.shard);
      ok = ServeOnce(server, plan,
                     ReplayFeed(&server, &recorder, /*submit=*/false, stream,
                                batch_size, nullptr),
                     *flush, &recorder, &outcome, &error);
    }
    if (!ok) return RuntimeError(error, err);
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

  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    if (listening) {
      writer.Key("listen").String(best->listen);
      writer.Key("seconds").Double(best->seconds);
      writer.Key("items_processed").Int(best->items);
      writer.Key("flush_events").Int(best->flush_events);
    } else {
      writer.Key("dataset").String(dataset.spec.name);
      writer.Key("split").String(*split);
      writer.Key("items").Int(best->items);
      writer.Key("shards").Int(*shards);
      writer.Key("workers").Int(*workers);
      writer.Key("batch").Int(*batch);
      writer.Key("seconds").Double(best->seconds);
      writer.Key("items_per_sec").Double(ItemsPerSec(*best), 1);
      writer.Key("serving_accuracy").Double(accuracy);
      writer.Key("open_keys_after").Int(best->open_keys_after);
    }
    writer.Key("interrupted").Bool(best->interrupted);
    EmitStatsJson(best->stats, &writer);
    if (listening) {
      EmitStatsJson(best->net, &writer);
    } else if (*workers > 0) {
      writer.Key("overload_policy").String(OverloadPolicyName(overload_policy));
      writer.Key("queue_depth").Int(*queue_depth);
    }
    if (bench) {
      writer.Key("repetitions").Int(runs);
      writer.Key("items_per_sec_all").BeginArray();
      for (const ServeOutcome& outcome : outcomes) {
        writer.Double(ItemsPerSec(outcome), 1);
      }
      writer.EndArray();
    }
    writer.EndObject();
    out << writer.str();
  } else {
    Table table({"stat", "value"});
    table.AddRow({"seconds", Table::FormatDouble(best->seconds)});
    if (listening) {
      out << best->listen << ", " << *shards
          << " shard(s), drained connections:\n";
      table.AddRow({"items processed", std::to_string(best->items)});
      table.AddRow({"flush events", std::to_string(best->flush_events)});
    } else {
      out << dataset.spec.name << " / " << *split << " split, " << *shards
          << " shard(s), ";
      if (*workers > 0) {
        out << *workers << " worker(s), queue depth " << *queue_depth << ", "
            << OverloadPolicyName(overload_policy) << " policy, ";
      }
      out << "batch " << *batch << ":\n";
      table.AddRow({"items", std::to_string(best->items)});
      table.AddRow({"items/sec", Table::FormatDouble(ItemsPerSec(*best), 1)});
      table.AddRow({"serving accuracy", Table::FormatDouble(accuracy)});
      table.AddRow(
          {"open keys after", std::to_string(best->open_keys_after)});
    }
    AddStatsRows(best->stats, &table);
    if (listening) AddStatsRows(best->net, &table);
    out << table.ToText();
    // The SIGINT report: one column per shard so an operator can see which
    // shard was hot (or shedding) when the process was asked to stop.
    if (best->interrupted) {
      std::vector<std::string> names;
      for (size_t s = 0; s < best->per_shard.size(); ++s) {
        names.push_back("shard " + std::to_string(s));
      }
      out << "interrupted: drained shard queues, final per-shard stats:\n"
          << StatsColumns(names, best->per_shard).ToText();
    }
    if (bench && runs > 1) {
      out << "best of " << runs << " repetitions\n";
    }
  }
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
      "connections", 1, "concurrent client connections (one thread each)");
  int64_t* batch =
      parser.AddInt("batch", 64, "items per ingest frame");
  double* rate = parser.AddDouble(
      "rate", 0.0,
      "microbatches/sec per connection (0 = as fast as acks return)");
  int64_t* timeout_ms = parser.AddInt(
      "timeout-ms", 2000, "per-request deadline (connect and round trip)");
  int64_t* retries = parser.AddInt(
      "retries", 5, "retry budget per batch beyond the first attempt");
  int64_t* backoff_ms = parser.AddInt(
      "backoff-ms", 10, "initial retry backoff (doubles per attempt, "
                        "jittered)");
  int64_t* backoff_cap_ms = parser.AddInt(
      "backoff-cap-ms", 1000, "exponential backoff growth stops here");
  bool* json = parser.AddBool("json", false, "emit JSON instead of tables");
  if (!parser.Parse(args)) return UsageError(parser, err);
  if (parser.help_requested()) {
    err << parser.Usage();
    return kExitOk;
  }
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
  if (*connections <= 0 || *batch <= 0 || *timeout_ms <= 0 ||
      *retries < 0 || *backoff_ms < 0 || *backoff_cap_ms < *backoff_ms ||
      *rate < 0) {
    err << "kvec: loadgen flags out of range (connections/batch/timeout-ms "
           "> 0, retries/backoff-ms >= 0, backoff-cap-ms >= backoff-ms, "
           "rate >= 0)\n";
    return kExitUsage;
  }

  Dataset dataset;
  if (!ResolveDataset(dataset_flags, &dataset, &error)) {
    return RuntimeError(error, err);
  }
  const std::vector<TangledSequence>* episodes = SplitOf(dataset, *split);
  if (episodes == nullptr) {
    err << "kvec: --split must be train|validation|test, got '" << *split
        << "'\n";
    return kExitUsage;
  }
  std::map<int, int> truth;  // unused: verdicts surface on the server side
  const std::vector<Item> stream = InterleaveEpisodes(
      *episodes, dataset.spec.max_keys_per_episode, &truth);

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

  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("connect").String(*connect);
    writer.Key("connections").Int(*connections);
    writer.Key("batch").Int(*batch);
    writer.Key("batches_sent").Int(report.batches_sent);
    writer.Key("batches_failed").Int(report.batches_failed);
    writer.Key("items_acked").Int(report.items_acked);
    writer.Key("items_shed").Int(report.items_shed);
    writer.Key("retries").Int(report.retries);
    writer.Key("overloaded_replies").Int(report.overloaded_replies);
    writer.Key("reconnects").Int(report.reconnects);
    writer.Key("elapsed_ms").Int(report.elapsed_ms);
    writer.Key("batches_per_sec").Double(report.batches_per_sec, 1);
    writer.Key("items_per_sec").Double(report.items_per_sec, 1);
    writer.Key("latency_us").BeginObject();
    writer.Key("count").Int(report.latency.count);
    writer.Key("min").Int(report.latency.min_us);
    writer.Key("mean").Double(report.latency.mean_us, 1);
    writer.Key("p50").Int(report.latency.p50_us);
    writer.Key("p90").Int(report.latency.p90_us);
    writer.Key("p99").Int(report.latency.p99_us);
    writer.Key("p999").Int(report.latency.p999_us);
    writer.Key("max").Int(report.latency.max_us);
    writer.EndObject();
    writer.EndObject();
    out << writer.str();
  } else {
    out << *connect << ", " << *connections << " connection(s), batch "
        << *batch << ":\n";
    Table table({"stat", "value"});
    table.AddRow({"batches sent", std::to_string(report.batches_sent)});
    table.AddRow({"batches failed", std::to_string(report.batches_failed)});
    table.AddRow({"items acked", std::to_string(report.items_acked)});
    table.AddRow({"items shed", std::to_string(report.items_shed)});
    table.AddRow({"retries", std::to_string(report.retries)});
    table.AddRow(
        {"overloaded replies", std::to_string(report.overloaded_replies)});
    table.AddRow({"reconnects", std::to_string(report.reconnects)});
    table.AddRow({"elapsed ms", std::to_string(report.elapsed_ms)});
    table.AddRow(
        {"batches/sec", Table::FormatDouble(report.batches_per_sec, 1)});
    table.AddRow({"items/sec", Table::FormatDouble(report.items_per_sec, 1)});
    table.AddRow({"latency p50 us", std::to_string(report.latency.p50_us)});
    table.AddRow({"latency p99 us", std::to_string(report.latency.p99_us)});
    table.AddRow(
        {"latency p999 us", std::to_string(report.latency.p999_us)});
    table.AddRow({"latency max us", std::to_string(report.latency.max_us)});
    out << table.ToText();
  }
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

  if (*json) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("file").String(*file);
    writer.Key("format_version").Int(checkpoint.version);
    writer.Key("sections").BeginArray();
    for (const CheckpointSection& section : checkpoint.sections) {
      writer.BeginObject();
      writer.Key("id").Int(section.id);
      writer.Key("name").String(SectionName(section.id));
      writer.Key("bytes").Int(static_cast<int64_t>(section.payload.size()));
      writer.EndObject();
    }
    writer.EndArray();
    if (have_config) {
      writer.Key("model").BeginObject();
      writer.Key("dataset").String(config.spec.name);
      writer.Key("num_classes").Int(config.spec.num_classes);
      writer.Key("embed_dim").Int(config.embed_dim);
      writer.Key("state_dim").Int(config.state_dim);
      writer.Key("num_blocks").Int(config.num_blocks);
      writer.Key("ffn_hidden_dim").Int(config.ffn_hidden_dim);
      writer.EndObject();
    }
    writer.EndObject();
    out << writer.str();
  } else {
    out << *file << ": checkpoint container, format version "
        << checkpoint.version << "\n";
    Table table({"section", "id", "bytes"});
    for (const CheckpointSection& section : checkpoint.sections) {
      table.AddRow({SectionName(section.id), std::to_string(section.id),
                    std::to_string(section.payload.size())});
    }
    out << table.ToText();
    if (have_config) {
      out << "model: " << config.spec.name << ", "
          << config.spec.num_classes << " classes, embed_dim "
          << config.embed_dim << ", state_dim " << config.state_dim << ", "
          << config.num_blocks << " block(s)\n";
    }
  }
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
