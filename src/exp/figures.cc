#include "exp/figures.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/model.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/perturb.h"
#include "data/stats.h"
#include "data/traffic_generator.h"
#include "exp/cv.h"
#include "exp/method.h"
#include "exp/sweep.h"
#include "metrics/calibration.h"
#include "util/table.h"

namespace kvec {
namespace {

// The seeds of the curve sweeps behind Figs. 3–7 and the headline; the
// model seed is MethodRunOptions' default (7).
constexpr uint64_t kCurveDatasetSeed = 20240411;

std::string Percent(double share) {
  return Table::FormatDouble(100 * share, 1);
}

std::string ScaleSuffix(ExperimentScale scale) {
  return std::string("(scale=") + ScaleName(scale) + ") ===\n";
}

// ---- Curves: Figs. 3–7 and the headline ----------------------------------

const std::vector<PresetId>& CurveDatasets() {
  static const std::vector<PresetId> datasets = {
      PresetId::kUstcTfc2016, PresetId::kMovieLens1M, PresetId::kTrafficFg,
      PresetId::kTrafficApp};
  return datasets;
}

// All five methods' sweeps on one curve dataset, KVEC first. Each method's
// sweep is loaded from or stored to `cache`; the dataset is generated only
// on a miss.
std::vector<SweepPoint> CurveSweep(PresetId id, ExperimentScale scale,
                                   const SweepCache& cache) {
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  std::optional<Dataset> dataset;
  std::vector<SweepPoint> all;
  for (const MethodSpec& method : AllMethods()) {
    std::vector<SweepPoint> points = cache.LoadOrCompute(
        SweepCacheKey(id, scale, kCurveDatasetSeed, /*episodes=*/0, options,
                      method),
        [&]() {
          if (!dataset) {
            dataset = MakePresetDataset(id, scale, kCurveDatasetSeed);
          }
          return RunMethodSweep(method, *dataset, options);
        });
    all.insert(all.end(), points.begin(), points.end());
  }
  return all;
}

// One of Figs. 3–7: `metric` vs earliness for every method on the four
// real-dataset stand-ins.
Experiment CurveFigure(const char* name, const char* title,
                       const char* figure, const char* metric_name,
                       double SweepPoint::*metric) {
  return {name, title,
          [=](ExperimentScale scale, const SweepCache& cache,
              std::ostream& out) {
            out << "=== " << figure << ": " << metric_name
                << " vs earliness " << ScaleSuffix(scale);
            for (PresetId id : CurveDatasets()) {
              std::vector<SweepPoint> points = CurveSweep(id, scale, cache);
              out << "\n--- dataset: " << PresetName(id) << " ---\n";
              Table table({"method", "hyper", "earliness(%)", metric_name});
              for (const SweepPoint& point : points) {
                table.AddRow({point.method,
                              Table::FormatDouble(point.hyper, 4),
                              Table::FormatDouble(100.0 * point.earliness, 2),
                              Table::FormatDouble(point.*metric, 4)});
              }
              out << table.ToText();
            }
          }};
}

// The abstract's headline (§V-B): accuracy gains vs SRN-EARLIEST and HM
// gains vs the best other baseline, interpolated onto a shared earliness
// grid from the curve sweeps. Absolute numbers depend on the simulated
// datasets; the sign and rough magnitude are the reproduction target.
void Headline(ExperimentScale scale, const SweepCache& cache,
              std::ostream& out) {
  out << "=== Headline: KVEC vs best baseline at equal earliness "
      << ScaleSuffix(scale);
  Table table({"dataset", "max acc gain vs SRN-EAR early(%)",
               "avg acc gain vs SRN-EAR(%)", "max hm gain vs best",
               "avg hm gain vs best"});
  for (PresetId id : CurveDatasets()) {
    std::vector<SweepPoint> sweep = CurveSweep(id, scale, cache);
    std::vector<SweepPoint> kvec = PointsOfMethod(sweep, "KVEC");
    std::vector<SweepPoint> srn_earliest =
        PointsOfMethod(sweep, "SRN-EARLIEST");
    if (kvec.empty() || srn_earliest.empty()) continue;
    std::vector<std::vector<SweepPoint>> baselines;
    for (const char* name :
         {"SRN-EARLIEST", "SRN-Confidence", "SRN-Fixed", "EARLIEST"}) {
      std::vector<SweepPoint> points = PointsOfMethod(sweep, name);
      if (!points.empty()) baselines.push_back(std::move(points));
    }

    // Shared earliness grid: the early regime plus the rest of the curve.
    const std::vector<double> grid = {0.02, 0.04, 0.06, 0.08, 0.12,
                                      0.20, 0.30, 0.50, 0.80};
    double max_acc_gain_early = -1.0, acc_gain_sum = 0.0;
    double max_hm_gain = -1.0, hm_gain_sum = 0.0;
    for (double earliness : grid) {
      // Accuracy: vs SRN-EARLIEST (the paper's §V-B comparison).
      const double acc_gain =
          InterpolateMetric(kvec, earliness, &SweepPoint::accuracy) -
          InterpolateMetric(srn_earliest, earliness, &SweepPoint::accuracy);
      // HM: vs the best of the other methods (the paper's Fig. 7 text).
      double best_hm = 0.0;
      for (const auto& baseline : baselines) {
        best_hm = std::max(best_hm,
                           InterpolateMetric(baseline, earliness,
                                             &SweepPoint::harmonic_mean));
      }
      const double hm_gain =
          InterpolateMetric(kvec, earliness, &SweepPoint::harmonic_mean) -
          best_hm;
      acc_gain_sum += acc_gain;
      hm_gain_sum += hm_gain;
      if (earliness <= 0.08) {
        max_acc_gain_early = std::max(max_acc_gain_early, acc_gain);
      }
      max_hm_gain = std::max(max_hm_gain, hm_gain);
    }
    const double n = static_cast<double>(grid.size());
    table.AddRow({PresetName(id),
                  Table::FormatDouble(100 * max_acc_gain_early, 1),
                  Table::FormatDouble(100 * acc_gain_sum / n, 1),
                  Table::FormatDouble(max_hm_gain, 3),
                  Table::FormatDouble(hm_gain_sum / n, 3)});
  }
  out << table.ToText()
      << "\npaper (real datasets): accuracy gains vs SRN-EARLIEST of "
         "4.7/17.5/6.4% (traffic) and 7.8% (MovieLens); HM gains vs the "
         "best baseline of 2.9-14.0%.\n";
}

// ---- Tables I and II -------------------------------------------------------

// Table I: per-dataset statistics next to the paper's. Absolute key counts
// and lengths are scaled down; the shape (relative lengths, class counts)
// is the reproduction target.
void Table1(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Table I: dataset statistics " << ScaleSuffix(scale);
  Table table({"dataset", "#keys", "avg |Sk|", "avg session len", "#classes",
               "paper avg |Sk|", "paper session len"});
  struct RowSpec {
    PresetId id;
    double paper_length;
    double paper_session;
  };
  const RowSpec rows[] = {
      {PresetId::kUstcTfc2016, 31.2, 8.3},
      {PresetId::kMovieLens1M, 163.5, 1.7},
      {PresetId::kTrafficFg, 50.7, 2.4},
      {PresetId::kTrafficApp, 57.5, 2.7},
      {PresetId::kSyntheticEarly, 100.0, 2.1},
      {PresetId::kSyntheticLate, 100.0, 2.1},
  };
  for (const RowSpec& row : rows) {
    Dataset dataset = MakePresetDataset(row.id, scale, /*seed=*/1);
    DatasetStats stats = ComputeDatasetStats(dataset);
    table.AddRow({PresetName(row.id), std::to_string(stats.num_keys),
                  Table::FormatDouble(stats.avg_sequence_length, 1),
                  Table::FormatDouble(stats.avg_session_length, 1),
                  std::to_string(stats.num_classes),
                  Table::FormatDouble(row.paper_length, 1),
                  Table::FormatDouble(row.paper_session, 1)});
  }
  out << table.ToText();
}

// Table II: each method's trade-off hyper-parameter and the grid swept.
void Table2(ExperimentScale, const SweepCache&, std::ostream& out) {
  out << "=== Table II: hyper-parameters of each method ===\n";
  Table table({"method", "hyperparameter", "sweep grid", "description"});
  for (const MethodSpec& method : AllMethods()) {
    std::ostringstream grid;
    for (size_t i = 0; i < method.grid.size(); ++i) {
      if (i > 0) grid << ", ";
      grid << method.grid[i];
    }
    std::string description;
    if (method.hyper_name == "beta" || method.hyper_name == "lambda") {
      description = "earliness-accuracy trade off";
    } else if (method.hyper_name == "tau") {
      description = "halting time threshold";
    } else {
      description = "halting confidence threshold";
    }
    table.AddRow({method.name,
                  method.name == "KVEC" ? "alpha=0.1, beta" : method.hyper_name,
                  grid.str(), description});
  }
  out << table.ToText();
}

// ---- KVEC studies: Figs. 8–12 and the extensions --------------------------

// One KVEC variant of an ablation: its row label and its config change.
struct Variant {
  std::string label;
  std::function<void(KvecConfig*)> apply;
};

// Trains one KVEC per (variant, beta) and tabulates earliness, accuracy
// and HM: the layout of Fig. 9 and the ablation extensions.
Table VariantTable(const std::string& variant_column, const Dataset& dataset,
                   const MethodRunOptions& options,
                   const std::vector<Variant>& variants,
                   const std::vector<double>& betas) {
  Table table({variant_column, "beta", "earliness(%)", "accuracy(%)", "hm"});
  for (const Variant& variant : variants) {
    for (double beta : betas) {
      KvecConfig config = KvecConfigFor(dataset, options);
      config.beta = static_cast<float>(beta);
      variant.apply(&config);
      const EvaluationSummary summary =
          TrainAndEvaluateKvec(dataset, config).summary;
      table.AddRow({variant.label, Table::FormatDouble(beta, 3),
                    Percent(summary.earliness), Percent(summary.accuracy),
                    Table::FormatDouble(summary.harmonic_mean, 3)});
    }
  }
  return table;
}

// The Traffic-FG stand-in with `concurrency` flows per episode (Fig. 12's
// K). Flow lengths follow the preset's tiny scale, and its small scale at
// every larger one.
Dataset TrafficFgAtConcurrency(ExperimentScale scale, int concurrency,
                               uint64_t seed) {
  TrafficGeneratorConfig config;
  config.name = "Traffic-FG";
  config.num_classes = 12;
  config.avg_flow_length =
      50.7 * (scale == ExperimentScale::kTiny ? 0.4 : 0.7) * 0.7;
  config.min_flow_length = 8;
  config.burst_continue_prob = 0.58;
  config.concurrency = concurrency;
  config.classes_per_episode = 2;
  config.profile_seed = 1801;
  TrafficGenerator generator(config);
  return GenerateDataset(
      generator, PresetSplitCounts(PresetId::kTrafficFg, scale), seed);
}

// Fig. 8: alpha moves accuracy but barely earliness (beta frozen at 1e-4);
// beta trades accuracy against earliness (alpha frozen at 0.1).
void Fig8(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Figure 8: hyper-parameter sensitivity on Traffic-FG "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, scale, /*seed=*/20240408);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  auto sweep = [&](const char* column, const std::vector<double>& values,
                   bool vary_alpha) {
    Table table({column, "accuracy(%)", "earliness(%)"});
    for (double value : values) {
      KvecConfig config = KvecConfigFor(dataset, options);
      config.alpha = vary_alpha ? static_cast<float>(value) : 0.1f;
      config.beta = vary_alpha ? 1e-4f : static_cast<float>(value);
      const EvaluationSummary summary =
          TrainAndEvaluateKvec(dataset, config).summary;
      table.AddRow({Table::FormatDouble(value, 4), Percent(summary.accuracy),
                    Percent(summary.earliness)});
    }
    out << table.ToText();
  };
  out << "\n--- (a) effect of alpha (beta = 1e-4) ---\n";
  sweep("alpha", {0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0}, /*vary_alpha=*/true);
  out << "\n--- (b) effect of beta (alpha = 0.1) ---\n";
  sweep("beta", {-5e-2, -1e-2, 0.0, 1e-4, 5e-3, 5e-2, 2e-1, 5e-1},
        /*vary_alpha=*/false);
}

// Fig. 9: KVEC without each of its correlation and embedding parts.
void Fig9(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Figure 9: ablation study on Traffic-FG " << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, scale, /*seed=*/20240409);
  const std::vector<Variant> variants = {
      {"KVEC (ours)", [](KvecConfig*) {}},
      {"w/o Key Correlation",
       [](KvecConfig* c) { c->correlation.use_key_correlation = false; }},
      {"w/o Value Correlation",
       [](KvecConfig* c) { c->correlation.use_value_correlation = false; }},
      {"w/o Time-related Embed.",
       [](KvecConfig* c) { c->use_time_embeddings = false; }},
      {"w/o Membership Embed.",
       [](KvecConfig* c) { c->use_membership_embedding = false; }},
  };
  out << VariantTable("variant", dataset, MethodRunOptions::ForScale(scale),
                      variants, {0.0, 5e-3, 5e-2})
             .ToText();
}

// Fig. 10: internal (same-key) vs external (cross-key) attention by
// earliness bucket. External attention should dominate early and decay as
// a key's own items arrive.
void Fig10(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Figure 10: internal/external attention vs earliness on "
         "Traffic-FG "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, scale, /*seed=*/20240410);
  KvecModel model(KvecConfigFor(dataset, MethodRunOptions::ForScale(scale)));
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);

  const std::vector<double> edges = {0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.01};
  struct Bucket {
    double internal = 0.0, external = 0.0;
    int count = 0, correct = 0;
  };
  std::vector<Bucket> buckets(edges.size());
  for (const TangledSequence& episode : dataset.test) {
    const EvaluationResult result = trainer.Evaluate({episode});
    const std::vector<AttentionPoint> points =
        ReadAttention(model, episode, result.records);
    for (size_t i = 0; i < points.size(); ++i) {
      const AttentionPoint& point = points[i];
      size_t bucket = 0;
      while (bucket + 1 < edges.size() && point.earliness > edges[bucket]) {
        ++bucket;
      }
      buckets[bucket].internal += point.internal_score;
      buckets[bucket].external += point.external_score;
      buckets[bucket].count += 1;
      const PredictionRecord& record = result.records[i];
      if (record.true_label == record.predicted_label) {
        buckets[bucket].correct += 1;
      }
    }
  }

  Table table({"earliness bucket (<=%)", "#seqs", "internal attn",
               "external attn", "accuracy(%)"});
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].count == 0) continue;
    table.AddRow(
        {Table::FormatDouble(100 * edges[b], 0),
         std::to_string(buckets[b].count),
         Table::FormatDouble(buckets[b].internal / buckets[b].count, 3),
         Table::FormatDouble(buckets[b].external / buckets[b].count, 3),
         Table::FormatDouble(100.0 * buckets[b].correct / buckets[b].count,
                             1)});
  }
  out << table.ToText();
}

// Share of `positions` (each in [0, 1]) per earliness decile.
std::vector<double> DecileHistogram(const std::vector<double>& positions) {
  std::vector<double> histogram(10, 0.0);
  for (double p : positions) {
    histogram[std::min(9, static_cast<int>(p * 10.0))] += 1.0;
  }
  for (double& v : histogram) v /= std::max<size_t>(1, positions.size());
  return histogram;
}

// KVEC's relative halting positions on the test split, from the beta with
// the best validation score. The score is accuracy − 0.1·earliness, i.e.
// "halt as early as possible without losing accuracy", the regime in which
// halting positions say something about the planted stop signal (plain HM
// would prefer degenerate first-item halting on the late-stop subdataset).
// The grid includes a halting-discouraging negative beta, which the
// late-stop subdataset needs.
std::vector<double> BestHaltPositions(const Dataset& dataset,
                                      const MethodRunOptions& options,
                                      bool value_correlation) {
  double best_score = -1.0;
  std::vector<double> best_positions;
  for (float beta : {-2e-2f, 5e-3f, 2e-2f, 5e-2f, 9e-2f, 1.2e-1f}) {
    KvecConfig config = KvecConfigFor(dataset, options);
    config.beta = beta;
    config.correlation.use_value_correlation = value_correlation;
    KvecModel model(config);
    KvecTrainer trainer(&model);
    trainer.Train(dataset.train);
    const EvaluationSummary validation =
        trainer.Evaluate(dataset.validation).summary;
    const double score = validation.accuracy - 0.1 * validation.earliness;
    if (score <= best_score) continue;
    best_score = score;
    best_positions.clear();
    const EvaluationResult result = trainer.Evaluate(dataset.test);
    for (const PredictionRecord& record : result.records) {
      best_positions.push_back(static_cast<double>(record.observed_items) /
                               record.sequence_length);
    }
  }
  return best_positions;
}

// Fig. 11: ground-truth stop positions vs KVEC's halts, with and without
// value correlation, on the early- and late-stop subdatasets.
void Fig11(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Figure 11: halting-position distributions on "
         "Synthetic-Traffic "
      << ScaleSuffix(scale);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  for (PresetId id : {PresetId::kSyntheticEarly, PresetId::kSyntheticLate}) {
    const Dataset dataset = MakePresetDataset(id, scale, /*seed=*/20240411);
    std::vector<double> truth;
    for (const TangledSequence& episode : dataset.test) {
      for (const auto& [key, position] : episode.true_halt_positions) {
        truth.push_back(static_cast<double>(position) /
                        episode.KeyLength(key));
      }
    }
    const std::vector<double> truth_hist = DecileHistogram(truth);
    const std::vector<double> kvec_hist = DecileHistogram(
        BestHaltPositions(dataset, options, /*value_correlation=*/true));
    const std::vector<double> ablated_hist = DecileHistogram(
        BestHaltPositions(dataset, options, /*value_correlation=*/false));

    out << "\n--- "
        << (id == PresetId::kSyntheticEarly ? "(a) early-stop subdataset"
                                            : "(b) late-stop subdataset")
        << " ---\n";
    Table table({"earliness decile", "true halts", "KVEC",
                 "KVEC w/o value corr"});
    for (int b = 0; b < 10; ++b) {
      table.AddRow({std::to_string(b * 10) + "-" +
                        std::to_string((b + 1) * 10) + "%",
                    Table::FormatDouble(truth_hist[b], 3),
                    Table::FormatDouble(kvec_hist[b], 3),
                    Table::FormatDouble(ablated_hist[b], 3)});
    }
    out << table.ToText();
  }
}

// Fig. 12: accuracy and HM as the number of concurrent sequences K grows.
void Fig12(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Figure 12: effect of concurrency K on Traffic-FG "
      << ScaleSuffix(scale);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  Table table({"K", "earliness(%)", "accuracy(%)", "hm"});
  for (int concurrency = 1; concurrency <= 5; ++concurrency) {
    const Dataset dataset =
        TrafficFgAtConcurrency(scale, concurrency, /*seed=*/20240412);
    KvecConfig config = KvecConfigFor(dataset, options);
    config.beta = 5e-3f;
    const EvaluationSummary summary =
        TrainAndEvaluateKvec(dataset, config).summary;
    table.AddRow({std::to_string(concurrency), Percent(summary.earliness),
                  Percent(summary.accuracy),
                  Table::FormatDouble(summary.harmonic_mean, 3)});
  }
  out << table.ToText();
}

// Whether each method's max-softmax is a trustworthy probability (the
// assumption behind SRN-Confidence's halting rule), at one mid-grid point
// per method, with KVEC's reliability table.
void ExtCalibration(ExperimentScale scale, const SweepCache&,
                    std::ostream& out) {
  out << "=== Extension: confidence calibration on USTC-TFC2016 "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, scale, /*seed=*/20240615);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  Table table({"method", "hyper", "accuracy(%)", "ECE", "MCE"});
  for (const MethodSpec& method : AllMethodsExtended()) {
    const double hyper = method.grid[method.grid.size() / 2];
    EvaluationResult result = method.run(dataset, hyper, options);
    table.AddRow(
        {method.name, Table::FormatDouble(hyper, 3),
         Percent(result.summary.accuracy),
         Table::FormatDouble(ExpectedCalibrationError(result.records), 4),
         Table::FormatDouble(MaximumCalibrationError(result.records), 4)});
    if (method.name == "KVEC") {
      out << "\n--- KVEC reliability table ---\n"
          << CalibrationReport(result.records) << "\n";
    }
  }
  out << table.ToText();
}

// Five-fold cross-validation of KVEC (the paper's protocol, §V-A.4): the
// fold-to-fold spread the single-split figures carry.
void ExtCrossval(ExperimentScale scale, const SweepCache&,
                 std::ostream& out) {
  const int folds = 5;
  out << "=== Extension: " << folds
      << "-fold cross-validation of KVEC on USTC-TFC2016 "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, scale, /*seed=*/20240610);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  Table table({"beta", "metric", "mean", "std"});
  for (double beta : {0.0, 5e-3, 5e-2}) {
    CrossValidationSummary cv =
        CrossValidate(KvecMethod(), beta, dataset, folds, options);
    auto row = [&](const char* name, double mean, double stddev) {
      table.AddRow({Table::FormatDouble(beta, 3), name,
                    Table::FormatDouble(mean, 4),
                    Table::FormatDouble(stddev, 4)});
    };
    row("earliness", cv.mean.earliness, cv.stddev.earliness);
    row("accuracy", cv.mean.accuracy, cv.stddev.accuracy);
    row("macro_f1", cv.mean.macro_f1, cv.stddev.macro_f1);
    row("harmonic_mean", cv.mean.harmonic_mean, cv.stddev.harmonic_mean);
  }
  out << table.ToText();
}

// The paper's LSTM-gate fusion (§IV-B) against parameter-free fusion,
// which it says aggregates noise.
void ExtFusion(ExperimentScale scale, const SweepCache&, std::ostream& out) {
  out << "=== Extension: embedding-fusion ablation on USTC-TFC2016 "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, scale, /*seed=*/20240614);
  auto fusion = [](KvecConfig::FusionKind kind) {
    return [kind](KvecConfig* c) { c->fusion = kind; };
  };
  const std::vector<Variant> variants = {
      {"LSTM gates (paper)", fusion(KvecConfig::FusionKind::kLstm)},
      {"mean", fusion(KvecConfig::FusionKind::kMean)},
      {"sum", fusion(KvecConfig::FusionKind::kSum)},
      {"last item", fusion(KvecConfig::FusionKind::kLast)},
  };
  out << VariantTable("fusion", dataset, MethodRunOptions::ForScale(scale),
                      variants, {0.0, 5e-3, 5e-2})
             .ToText();
}

// The paper's five methods plus the two classical Related-Work families it
// argues against but does not evaluate.
void ExtMethodComparison(ExperimentScale scale, const SweepCache&,
                         std::ostream& out) {
  out << "=== Extension: 7-method comparison on USTC-TFC2016 "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, scale, /*seed=*/20240611);
  const MethodRunOptions options = MethodRunOptions::ForScale(scale);
  Table table(
      {"method", "hyper", "earliness(%)", "accuracy(%)", "f1", "hm"});
  for (const MethodSpec& method : AllMethodsExtended()) {
    for (double hyper : method.grid) {
      const EvaluationSummary summary =
          method.run(dataset, hyper, options).summary;
      table.AddRow({method.name, Table::FormatDouble(hyper, 3),
                    Percent(summary.earliness), Percent(summary.accuracy),
                    Table::FormatDouble(summary.macro_f1, 3),
                    Table::FormatDouble(summary.harmonic_mean, 3)});
    }
  }
  out << table.ToText();
}

// The paper's single-head attention against 2 and 4 heads of the same
// width (with a learned output projection).
void ExtMultihead(ExperimentScale scale, const SweepCache&,
                  std::ostream& out) {
  out << "=== Extension: attention heads on USTC-TFC2016 "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kUstcTfc2016, scale, /*seed=*/20240617);
  std::vector<Variant> variants;
  for (int heads : {1, 2, 4}) {
    variants.push_back({std::to_string(heads), [heads](KvecConfig* c) {
                          // Divisible by every head count tested.
                          c->embed_dim = (c->embed_dim / 4) * 4;
                          c->num_heads = heads;
                        }});
  }
  out << VariantTable("heads", dataset, MethodRunOptions::ForScale(scale),
                      variants, {5e-3, 5e-2})
             .ToText();
}

// One KVEC trained on clean Traffic-FG, evaluated on test splits with
// dropped items, corrupted session fields, truncation and local reordering.
void ExtRobustness(ExperimentScale scale, const SweepCache&,
                   std::ostream& out) {
  out << "=== Extension: robustness of KVEC to stream faults on Traffic-FG "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kTrafficFg, scale, /*seed=*/20240613);
  KvecConfig config =
      KvecConfigFor(dataset, MethodRunOptions::ForScale(scale));
  config.beta = 5e-3f;
  KvecModel model(config);
  KvecTrainer trainer(&model);
  trainer.Train(dataset.train);

  const int session_field = dataset.spec.session_field;
  const int session_vocab =
      dataset.spec.value_fields[session_field].vocab_size;
  using Transform =
      std::function<TangledSequence(const TangledSequence&, Rng&)>;
  const std::vector<std::pair<std::string, Transform>> scenarios = {
      {"clean", [](const TangledSequence& e, Rng&) { return e; }},
      {"drop 10%",
       [](const TangledSequence& e, Rng& r) { return DropItems(e, 0.1, r); }},
      {"drop 30%",
       [](const TangledSequence& e, Rng& r) { return DropItems(e, 0.3, r); }},
      {"corrupt session 10%",
       [&](const TangledSequence& e, Rng& r) {
         return CorruptValues(e, session_field, session_vocab, 0.1, r);
       }},
      {"corrupt session 30%",
       [&](const TangledSequence& e, Rng& r) {
         return CorruptValues(e, session_field, session_vocab, 0.3, r);
       }},
      {"truncate to 8",
       [](const TangledSequence& e, Rng&) {
         return TruncateSequences(e, 8);
       }},
      {"jitter +-3",
       [](const TangledSequence& e, Rng& r) { return JitterOrder(e, 3, r); }},
  };

  Table table({"fault", "earliness(%)", "accuracy(%)", "f1", "hm"});
  for (const auto& [name, transform] : scenarios) {
    Rng rng(20240613);
    const std::vector<TangledSequence> perturbed =
        PerturbAll(dataset.test, [&](const TangledSequence& episode) {
          return transform(episode, rng);
        });
    const EvaluationSummary summary = trainer.Evaluate(perturbed).summary;
    table.AddRow({name, Percent(summary.earliness),
                  Percent(summary.accuracy),
                  Table::FormatDouble(summary.macro_f1, 3),
                  Table::FormatDouble(summary.harmonic_mean, 3)});
  }
  out << table.ToText();
}

// The paper's constant learning rate against cosine and warmup+cosine
// decay on Traffic-App.
void ExtSchedulers(ExperimentScale scale, const SweepCache&,
                   std::ostream& out) {
  out << "=== Extension: learning-rate schedules on Traffic-App "
      << ScaleSuffix(scale);
  const Dataset dataset =
      MakePresetDataset(PresetId::kTrafficApp, scale, /*seed=*/20240616);
  auto schedule = [](KvecConfig::LrSchedule kind) {
    return [kind](KvecConfig* c) {
      c->lr_schedule = kind;
      c->min_learning_rate = c->learning_rate * 0.05f;
    };
  };
  const std::vector<Variant> variants = {
      {"constant (paper)", schedule(KvecConfig::LrSchedule::kConstant)},
      {"cosine", schedule(KvecConfig::LrSchedule::kCosine)},
      {"warmup+cosine", schedule(KvecConfig::LrSchedule::kWarmupCosine)},
  };
  out << VariantTable("schedule", dataset, MethodRunOptions::ForScale(scale),
                      variants, {5e-3, 5e-2})
             .ToText();
}

// Selective value correlation (§V-E RQ3): cap the cross-key value-correlated
// items per row at K = 6 concurrent flows, where Fig. 12 shows
// inter-sequence noise hurting late accuracy.
void ExtSelectiveCorr(ExperimentScale scale, const SweepCache&,
                      std::ostream& out) {
  out << "=== Extension: selective value correlation on Traffic-FG, high "
         "concurrency "
      << ScaleSuffix(scale);
  const Dataset dataset =
      TrafficFgAtConcurrency(scale, /*concurrency=*/6, /*seed=*/20240612);
  std::vector<Variant> variants;
  for (int cap : {0, 2, 4, 8, 16}) {  // 0 = unlimited (the paper)
    variants.push_back(
        {cap == 0 ? "unlimited" : Table::FormatDouble(cap, 0),
         [cap](KvecConfig* c) {
           c->correlation.max_value_correlations = cap;
         }});
  }
  out << VariantTable("max_value_corr", dataset,
                      MethodRunOptions::ForScale(scale), variants,
                      {0.0, 5e-3, 5e-2})
             .ToText();
}

}  // namespace

const std::vector<Experiment>& Experiments() {
  static const std::vector<Experiment> experiments = {
      {"table1", "Table I: dataset statistics", Table1},
      {"table2", "Table II: each method's trade-off hyper-parameter", Table2},
      CurveFigure("fig3", "Fig. 3: accuracy vs earliness", "Figure 3",
                  "accuracy", &SweepPoint::accuracy),
      CurveFigure("fig4", "Fig. 4: macro precision vs earliness", "Figure 4",
                  "precision", &SweepPoint::precision),
      CurveFigure("fig5", "Fig. 5: macro recall vs earliness", "Figure 5",
                  "recall", &SweepPoint::recall),
      CurveFigure("fig6", "Fig. 6: macro F1 vs earliness", "Figure 6", "f1",
                  &SweepPoint::f1),
      CurveFigure("fig7", "Fig. 7: harmonic mean vs earliness", "Figure 7",
                  "hm", &SweepPoint::harmonic_mean),
      {"headline", "abstract and Sec. V-B: accuracy and HM gains at equal "
                   "earliness", Headline},
      {"fig8", "Fig. 8: alpha and beta sensitivity (Traffic-FG)", Fig8},
      {"fig9", "Fig. 9: ablation study (Traffic-FG)", Fig9},
      {"fig10", "Fig. 10: internal vs external attention (Traffic-FG)",
       Fig10},
      {"fig11", "Fig. 11: halting-position distributions (Synthetic-Traffic)",
       Fig11},
      {"fig12", "Fig. 12: effect of concurrency K (Traffic-FG)", Fig12},
      {"ext-calibration", "extension: confidence calibration (USTC-TFC2016)",
       ExtCalibration},
      {"ext-crossval",
       "extension: 5-fold cross-validation of KVEC (Sec. V-A.4)",
       ExtCrossval},
      {"ext-fusion", "extension: embedding-fusion ablation (Sec. IV-B)",
       ExtFusion},
      {"ext-method-comparison",
       "extension: the five methods plus two classical references",
       ExtMethodComparison},
      {"ext-multihead", "extension: attention heads in the encoder",
       ExtMultihead},
      {"ext-robustness", "extension: robustness to stream faults (Traffic-FG)",
       ExtRobustness},
      {"ext-schedulers", "extension: learning-rate schedules (Traffic-App)",
       ExtSchedulers},
      {"ext-selective-corr",
       "extension: selective value correlation (Sec. V-E RQ3)",
       ExtSelectiveCorr},
  };
  return experiments;
}

const Experiment* FindExperiment(const std::string& name) {
  for (const Experiment& experiment : Experiments()) {
    if (experiment.name == name) return &experiment;
  }
  return nullptr;
}

}  // namespace kvec
