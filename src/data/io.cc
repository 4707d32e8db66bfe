#include "data/io.h"

#include <fstream>
#include <sstream>
#include <string>

#include "util/check.h"

namespace kvec {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(current);
  return fields;
}

}  // namespace

bool ParseIntField(const std::string& text, int* out) {
  try {
    size_t consumed = 0;
    int value = std::stoi(text, &consumed);
    if (consumed != text.size()) return false;
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

bool ParseDoubleField(const std::string& text, double* out) {
  try {
    size_t consumed = 0;
    double value = std::stod(text, &consumed);
    if (consumed != text.size()) return false;
    *out = value;
    return true;
  } catch (...) {
    return false;
  }
}

std::string TangledSequencesToCsv(const std::vector<TangledSequence>& episodes,
                                  int num_value_fields) {
  std::ostringstream out;
  out << "episode,key,time,label";
  for (int v = 0; v < num_value_fields; ++v) out << ",v" << v;
  out << ",true_halt\n";
  for (size_t e = 0; e < episodes.size(); ++e) {
    const TangledSequence& episode = episodes[e];
    for (const Item& item : episode.items) {
      KVEC_CHECK_EQ(static_cast<int>(item.value.size()), num_value_fields);
      out << e << "," << item.key << "," << item.time << ","
          << episode.labels.at(item.key);
      for (int value : item.value) out << "," << value;
      out << "," << episode.TrueHaltPosition(item.key) << "\n";
    }
  }
  return out.str();
}

bool TangledSequencesFromCsv(const std::string& csv,
                             std::vector<TangledSequence>* episodes) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) return false;
  std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 5 || header[0] != "episode" || header[1] != "key" ||
      header[2] != "time" || header[3] != "label") {
    return false;
  }
  bool has_true_halt = header.back() == "true_halt";
  const int num_value_fields =
      static_cast<int>(header.size()) - 4 - (has_true_halt ? 1 : 0);
  if (num_value_fields < 1) return false;

  std::vector<TangledSequence> parsed;
  int current_episode = -1;
  double last_time = 0.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (static_cast<int>(fields.size()) !=
        4 + num_value_fields + (has_true_halt ? 1 : 0)) {
      return false;
    }
    int episode_id = 0, key = 0, label = 0;
    double time = 0.0;
    if (!ParseIntField(fields[0], &episode_id) ||
        !ParseIntField(fields[1], &key) ||
        !ParseDoubleField(fields[2], &time) ||
        !ParseIntField(fields[3], &label)) {
      return false;
    }
    if (episode_id != current_episode) {
      if (episode_id != current_episode + 1) return false;  // contiguous
      parsed.emplace_back();
      current_episode = episode_id;
      last_time = time;
    }
    if (time < last_time) return false;  // time-ordered within episode
    last_time = time;

    Item item;
    item.key = key;
    item.time = time;
    item.value.resize(num_value_fields);
    for (int v = 0; v < num_value_fields; ++v) {
      if (!ParseIntField(fields[4 + v], &item.value[v])) return false;
    }
    TangledSequence& episode = parsed.back();
    auto [it, inserted] = episode.labels.emplace(key, label);
    if (!inserted && it->second != label) return false;  // inconsistent
    if (has_true_halt) {
      int truth = 0;
      if (!ParseIntField(fields.back(), &truth)) return false;
      if (truth > 0) episode.true_halt_positions[key] = truth;
    }
    episode.items.push_back(std::move(item));
  }
  if (parsed.empty()) return false;
  *episodes = std::move(parsed);
  return true;
}

bool SaveTangledSequences(const std::vector<TangledSequence>& episodes,
                          int num_value_fields, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << TangledSequencesToCsv(episodes, num_value_fields);
  return static_cast<bool>(out);
}

bool LoadTangledSequences(const std::string& path,
                          std::vector<TangledSequence>* episodes) {
  std::ifstream in(path);
  if (!in) return false;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  return TangledSequencesFromCsv(contents, episodes);
}

}  // namespace kvec
