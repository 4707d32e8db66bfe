#include "cli/model_io.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>

#include "core/input_embedding.h"
#include "data/io.h"

namespace kvec {
namespace cli {
namespace {

// Bumped when the config wire layout changes; readers reject unknown
// versions instead of misparsing.
constexpr int32_t kConfigVersion = 1;

void WriteSpec(const DatasetSpec& spec, BinaryWriter* writer) {
  writer->WriteString(spec.name);
  writer->WriteInt32(static_cast<int32_t>(spec.value_fields.size()));
  for (const ValueField& field : spec.value_fields) {
    writer->WriteString(field.name);
    writer->WriteInt32(field.vocab_size);
  }
  writer->WriteInt32(spec.session_field);
  writer->WriteInt32(spec.num_classes);
  writer->WriteInt32(spec.max_keys_per_episode);
  writer->WriteInt32(spec.max_sequence_length);
  writer->WriteInt32(spec.max_episode_length);
  writer->WriteFloat(static_cast<float>(spec.target_avg_length));
  writer->WriteFloat(static_cast<float>(spec.target_avg_session_length));
}

bool ReadSpec(BinaryReader* reader, DatasetSpec* spec) {
  DatasetSpec out;
  out.name = reader->ReadString();
  const int32_t num_fields = reader->ReadCount(1);
  if (!reader->ok()) return false;
  out.value_fields.resize(num_fields);
  for (ValueField& field : out.value_fields) {
    field.name = reader->ReadString();
    field.vocab_size = reader->ReadInt32();
  }
  out.session_field = reader->ReadInt32();
  out.num_classes = reader->ReadInt32();
  out.max_keys_per_episode = reader->ReadInt32();
  out.max_sequence_length = reader->ReadInt32();
  out.max_episode_length = reader->ReadInt32();
  out.target_avg_length = reader->ReadFloat();
  out.target_avg_session_length = reader->ReadFloat();
  if (!reader->ok()) return false;
  *spec = std::move(out);
  return true;
}

std::string Lower(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

// Caps on the spec-driven sizes a config/spec may request: every one of
// these sizes an embedding table (× embed_dim floats), so a corrupt or
// hand-authored artifact must not be able to demand absurd allocations.
constexpr int kMaxSpecDimension = 1 << 24;

bool SpecSane(const DatasetSpec& spec) {
  if (spec.num_classes <= 0 || spec.num_classes > kMaxSpecDimension ||
      spec.value_fields.empty() ||
      spec.max_keys_per_episode <= 0 ||
      spec.max_keys_per_episode > kMaxSpecDimension ||
      spec.max_sequence_length <= 0 ||
      spec.max_sequence_length > kMaxSpecDimension ||
      spec.max_episode_length <= 0 ||
      spec.max_episode_length > kMaxSpecDimension) {
    return false;
  }
  if (spec.session_field < 0 ||
      spec.session_field >= static_cast<int>(spec.value_fields.size())) {
    return false;
  }
  for (const ValueField& field : spec.value_fields) {
    if (field.vocab_size <= 0 || field.vocab_size > kMaxSpecDimension) {
      return false;
    }
  }
  return true;
}

// Items and labels must stay inside the spec's ranges: the embedding
// lookups and the loss/metrics KVEC_CHECK (abort) on out-of-range token
// ids (ItemFitsEmbedding, which the TCP front end runs too) and class
// labels, and `kvec serve`'s episode interleaving relies on
// keys < max_keys_per_episode for globally unique key offsets — so the
// loader rejects such data up front and keeps the fail-closed contract.
bool EpisodesMatchSpec(const std::vector<TangledSequence>& episodes,
                       const DatasetSpec& spec, const char* file,
                       std::string* error) {
  for (const TangledSequence& episode : episodes) {
    for (const auto& [key, label] : episode.labels) {
      if (key < 0 || key >= spec.max_keys_per_episode) {
        *error = std::string(file) +
                 ": key out of the spec's max_keys_per_episode range";
        return false;
      }
      if (label < 0 || label >= spec.num_classes) {
        *error = std::string(file) + ": label out of the spec's class range";
        return false;
      }
    }
    for (const Item& item : episode.items) {
      if (item.key < 0 || item.key >= spec.max_keys_per_episode) {
        *error = std::string(file) +
                 ": item key out of the spec's max_keys_per_episode range";
        return false;
      }
      if (!ItemFitsEmbedding(item, spec, /*membership_embedding=*/false)) {
        *error = std::string(file) + ": item values do not match the spec: "
                                     "wrong arity or a token out of its "
                                     "field's vocabulary";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool WriteTextFile(const std::string& path, const std::string& content,
                   std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << content;
  if (!out) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

void WriteKvecConfig(const KvecConfig& config, BinaryWriter* writer) {
  writer->WriteInt32(kConfigVersion);
  writer->WriteInt32(config.embed_dim);
  writer->WriteInt32(config.state_dim);
  writer->WriteInt32(config.num_blocks);
  writer->WriteInt32(config.num_heads);
  writer->WriteInt32(config.ffn_hidden_dim);
  writer->WriteFloat(config.dropout);
  writer->WriteInt32(config.baseline_hidden_dim);
  WriteSpec(config.spec, writer);
  writer->WriteInt32(config.use_membership_embedding ? 1 : 0);
  writer->WriteInt32(config.use_time_embeddings ? 1 : 0);
  writer->WriteInt32(config.correlation.use_key_correlation ? 1 : 0);
  writer->WriteInt32(config.correlation.use_value_correlation ? 1 : 0);
  writer->WriteInt32(config.correlation.value_correlation_window);
  writer->WriteInt32(config.correlation.session_field);
  writer->WriteInt32(config.correlation.max_value_correlations);
  writer->WriteInt32(static_cast<int32_t>(config.fusion));
  writer->WriteFloat(config.alpha);
  writer->WriteFloat(config.beta);
  writer->WriteFloat(config.learning_rate);
  writer->WriteFloat(config.baseline_learning_rate);
  writer->WriteInt32(config.epochs);
  writer->WriteFloat(config.grad_clip);
  writer->WriteInt64(static_cast<int64_t>(config.seed));
  writer->WriteInt32(static_cast<int32_t>(config.lr_schedule));
  writer->WriteInt32(config.warmup_epochs);
  writer->WriteFloat(config.min_learning_rate);
}

bool ReadKvecConfig(BinaryReader* reader, KvecConfig* config) {
  if (reader->ReadInt32() != kConfigVersion || !reader->ok()) return false;
  KvecConfig out;
  out.embed_dim = reader->ReadInt32();
  out.state_dim = reader->ReadInt32();
  out.num_blocks = reader->ReadInt32();
  out.num_heads = reader->ReadInt32();
  out.ffn_hidden_dim = reader->ReadInt32();
  out.dropout = reader->ReadFloat();
  out.baseline_hidden_dim = reader->ReadInt32();
  if (!ReadSpec(reader, &out.spec)) return false;
  out.use_membership_embedding = reader->ReadInt32() != 0;
  out.use_time_embeddings = reader->ReadInt32() != 0;
  out.correlation.use_key_correlation = reader->ReadInt32() != 0;
  out.correlation.use_value_correlation = reader->ReadInt32() != 0;
  out.correlation.value_correlation_window = reader->ReadInt32();
  out.correlation.session_field = reader->ReadInt32();
  out.correlation.max_value_correlations = reader->ReadInt32();
  int32_t fusion = reader->ReadInt32();
  if (fusion < 0 || fusion > static_cast<int32_t>(KvecConfig::FusionKind::kLast)) {
    return false;
  }
  out.fusion = static_cast<KvecConfig::FusionKind>(fusion);
  out.alpha = reader->ReadFloat();
  out.beta = reader->ReadFloat();
  out.learning_rate = reader->ReadFloat();
  out.baseline_learning_rate = reader->ReadFloat();
  out.epochs = reader->ReadInt32();
  out.grad_clip = reader->ReadFloat();
  out.seed = static_cast<uint64_t>(reader->ReadInt64());
  int32_t schedule = reader->ReadInt32();
  if (schedule < 0 ||
      schedule > static_cast<int32_t>(KvecConfig::LrSchedule::kWarmupCosine)) {
    return false;
  }
  out.lr_schedule = static_cast<KvecConfig::LrSchedule>(schedule);
  out.warmup_epochs = reader->ReadInt32();
  out.min_learning_rate = reader->ReadFloat();
  if (!reader->ok()) return false;
  // Structural sanity so a parseable-but-absurd config cannot drive huge
  // allocations when the model is constructed from it — the model dims and
  // every spec-driven embedding-table size (vocabularies, key/position/
  // time ranges).
  if (out.embed_dim <= 0 || out.embed_dim > 1 << 16 || out.state_dim <= 0 ||
      out.state_dim > 1 << 16 || out.num_blocks <= 0 || out.num_blocks > 256 ||
      out.num_heads <= 0 || out.embed_dim % out.num_heads != 0 ||
      out.ffn_hidden_dim <= 0 || out.ffn_hidden_dim > 1 << 16 ||
      out.baseline_hidden_dim <= 0 || out.baseline_hidden_dim > 1 << 16 ||
      !SpecSane(out.spec)) {
    return false;
  }
  *config = std::move(out);
  return true;
}

bool SaveModelBundle(const std::string& path, KvecModel* model) {
  Checkpoint checkpoint;
  CheckpointSection config_section;
  config_section.id = kCheckpointSectionModelConfig;
  BinaryWriter config_writer;
  WriteKvecConfig(model->config(), &config_writer);
  config_section.payload = config_writer.buffer();
  checkpoint.sections.push_back(std::move(config_section));

  CheckpointSection params_section;
  params_section.id = kCheckpointSectionModelParams;
  BinaryWriter params_writer;
  model->SaveParameters(&params_writer);
  params_section.payload = params_writer.buffer();
  checkpoint.sections.push_back(std::move(params_section));

  return CheckpointSave(path, checkpoint);
}

std::unique_ptr<KvecModel> LoadModelBundle(const std::string& path,
                                           std::string* error) {
  auto fail = [error](const std::string& why) -> std::unique_ptr<KvecModel> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  Checkpoint checkpoint;
  if (!CheckpointLoad(path, &checkpoint)) {
    return fail("cannot read model bundle '" + path + "'");
  }
  const CheckpointSection* config_section =
      checkpoint.Find(kCheckpointSectionModelConfig);
  const CheckpointSection* params_section =
      checkpoint.Find(kCheckpointSectionModelParams);
  if (config_section == nullptr || params_section == nullptr) {
    return fail("model bundle '" + path + "' is missing a section");
  }
  BinaryReader config_reader(config_section->payload);
  KvecConfig config;
  if (!ReadKvecConfig(&config_reader, &config)) {
    return fail("model bundle '" + path + "' has a corrupt config section");
  }
  auto model = std::make_unique<KvecModel>(config);
  BinaryReader params_reader(params_section->payload);
  if (!model->LoadParameters(&params_reader)) {
    return fail("model bundle '" + path +
                "' has parameters that do not match its config");
  }
  return model;
}

Table SpecToTable(const DatasetSpec& spec) {
  Table table({"key", "value", "aux"});
  table.AddRow({"name", spec.name, ""});
  table.AddRow({"session_field", std::to_string(spec.session_field), ""});
  table.AddRow({"num_classes", std::to_string(spec.num_classes), ""});
  table.AddRow(
      {"max_keys_per_episode", std::to_string(spec.max_keys_per_episode), ""});
  table.AddRow(
      {"max_sequence_length", std::to_string(spec.max_sequence_length), ""});
  table.AddRow(
      {"max_episode_length", std::to_string(spec.max_episode_length), ""});
  table.AddRow({"target_avg_length",
                Table::FormatDouble(spec.target_avg_length, 4), ""});
  table.AddRow({"target_avg_session_length",
                Table::FormatDouble(spec.target_avg_session_length, 4), ""});
  for (const ValueField& field : spec.value_fields) {
    table.AddRow({"value_field", field.name,
                  std::to_string(field.vocab_size)});
  }
  return table;
}

bool SpecFromTable(const Table& table, DatasetSpec* spec) {
  if (table.columns().size() != 3) return false;
  DatasetSpec out;
  for (const std::vector<std::string>& row : table.rows()) {
    if (row.size() != 3) return false;
    const std::string& key = row[0];
    const std::string& value = row[1];
    if (key == "name") {
      out.name = value;
    } else if (key == "session_field") {
      if (!ParseIntField(value, &out.session_field)) return false;
    } else if (key == "num_classes") {
      if (!ParseIntField(value, &out.num_classes)) return false;
    } else if (key == "max_keys_per_episode") {
      if (!ParseIntField(value, &out.max_keys_per_episode)) return false;
    } else if (key == "max_sequence_length") {
      if (!ParseIntField(value, &out.max_sequence_length)) return false;
    } else if (key == "max_episode_length") {
      if (!ParseIntField(value, &out.max_episode_length)) return false;
    } else if (key == "target_avg_length") {
      if (!ParseDoubleField(value, &out.target_avg_length)) return false;
    } else if (key == "target_avg_session_length") {
      if (!ParseDoubleField(value, &out.target_avg_session_length)) {
        return false;
      }
    } else if (key == "value_field") {
      ValueField field;
      field.name = value;
      if (!ParseIntField(row[2], &field.vocab_size)) return false;
      out.value_fields.push_back(std::move(field));
    } else {
      return false;  // unknown key: stale layout or typo, fail loudly
    }
  }
  if (!SpecSane(out)) return false;
  *spec = std::move(out);
  return true;
}

bool SaveDatasetDir(const std::string& dir, const Dataset& dataset,
                    std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create directory '" + dir + "'";
    return false;
  }
  const int fields = dataset.spec.num_value_fields();
  std::string write_error;
  if (!WriteTextFile(dir + "/spec.csv", SpecToTable(dataset.spec).ToCsv(),
                     &write_error) ||
      !SaveTangledSequences(dataset.train, fields, dir + "/train.csv") ||
      !SaveTangledSequences(dataset.validation, fields,
                            dir + "/validation.csv") ||
      !SaveTangledSequences(dataset.test, fields, dir + "/test.csv")) {
    if (error != nullptr) *error = "cannot write dataset files under '" + dir + "'";
    return false;
  }
  return true;
}

bool LoadDatasetDir(const std::string& dir, Dataset* dataset,
                    std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string spec_csv;
  if (!ReadFileBytes(dir + "/spec.csv", &spec_csv)) {
    return fail("cannot read '" + dir + "/spec.csv'");
  }
  Table spec_table({"key", "value", "aux"});
  if (!Table::FromCsv(spec_csv, &spec_table)) {
    return fail("'" + dir + "/spec.csv' is not a valid CSV table");
  }
  Dataset out;
  if (!SpecFromTable(spec_table, &out.spec)) {
    return fail("'" + dir + "/spec.csv' does not describe a DatasetSpec");
  }
  struct Split {
    const char* file;
    std::vector<TangledSequence>* episodes;
  };
  Split splits[] = {{"train.csv", &out.train},
                    {"validation.csv", &out.validation},
                    {"test.csv", &out.test}};
  for (const Split& split : splits) {
    if (!LoadTangledSequences(dir + "/" + split.file, split.episodes)) {
      return fail("cannot parse '" + dir + "/" + split.file + "'");
    }
    std::string mismatch;
    if (!EpisodesMatchSpec(*split.episodes, out.spec, split.file,
                           &mismatch)) {
      return fail("'" + dir + "': " + mismatch);
    }
  }
  *dataset = std::move(out);
  return true;
}

const std::vector<PresetInfo>& AllPresets() {
  static const std::vector<PresetInfo> presets = {
      {PresetId::kUstcTfc2016, "USTC-TFC2016", "ustc"},
      {PresetId::kMovieLens1M, "MovieLens-1M", "movielens"},
      {PresetId::kTrafficFg, "Traffic-FG", "traffic-fg"},
      {PresetId::kTrafficApp, "Traffic-App", "traffic-app"},
      {PresetId::kSyntheticEarly, "Synthetic-Traffic(early)",
       "synthetic-early"},
      {PresetId::kSyntheticLate, "Synthetic-Traffic(late)", "synthetic-late"},
  };
  return presets;
}

bool ParsePresetId(const std::string& text, PresetId* id) {
  const std::string needle = Lower(text);
  for (const PresetInfo& preset : AllPresets()) {
    if (needle == Lower(preset.canonical) || needle == preset.alias) {
      *id = preset.id;
      return true;
    }
  }
  return false;
}

}  // namespace cli
}  // namespace kvec
