#include "exp/cache.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/check.h"

namespace kvec {

std::string SweepCacheKey(PresetId preset, ExperimentScale scale,
                          uint64_t dataset_seed, int episodes,
                          const MethodRunOptions& options,
                          const MethodSpec& method) {
  std::ostringstream key;
  key << PresetName(preset) << "-" << ScaleName(scale) << "-seed"
      << dataset_seed << "-model" << options.seed << "-n" << episodes
      << "-ep" << options.epochs << "-d" << options.embed_dim << "x"
      << options.state_dim << "x" << options.num_blocks << "x"
      << options.ffn_hidden_dim << "-lr" << options.learning_rate << "-g"
      << method.grid.size() << "-" << method.name;
  return key.str();
}

SweepCache::SweepCache(std::string directory)
    : directory_(std::move(directory)) {
  if (directory_.empty()) return;
  std::error_code error;
  std::filesystem::create_directories(directory_, error);
}

std::string SweepCache::PathFor(const std::string& key) const {
  std::string sanitized;
  for (char c : key) {
    sanitized += (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                  c == '-' || c == '_')
                     ? c
                     : '_';
  }
  return directory_ + "/" + sanitized + ".csv";
}

bool SweepCache::Load(const std::string& key,
                      std::vector<SweepPoint>* points) const {
  if (directory_.empty()) return false;
  std::ifstream in(PathFor(key));
  if (!in) return false;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  Table table({"placeholder"});
  if (!Table::FromCsv(contents, &table)) return false;
  return SweepFromTable(table, points);
}

void SweepCache::Store(const std::string& key,
                       const std::vector<SweepPoint>& points) const {
  if (directory_.empty()) return;
  std::ofstream out(PathFor(key));
  KVEC_CHECK(static_cast<bool>(out))
      << "cannot write sweep cache " << PathFor(key);
  out << SweepToTable(points).ToCsv();
}

std::vector<SweepPoint> SweepCache::LoadOrCompute(
    const std::string& key,
    const std::function<std::vector<SweepPoint>()>& compute) const {
  std::vector<SweepPoint> points;
  if (Load(key, &points)) return points;
  points = compute();
  Store(key, points);
  return points;
}

}  // namespace kvec
