#include "cli/stats_report.h"

#include <cstdint>
#include <cstring>

namespace kvec {
namespace cli {
namespace {

// A counter as every report shows it: the JSON object it sits in, its
// JSON key (the field name) and its table label.
template <typename Stats>
struct Counter {
  const char* group;
  const char* key;
  const char* label;
  int64_t (*value)(const Stats&);
};

// Expands to one Counter of the `Stats` type in scope; the JSON key is
// the field's name.
#define KVEC_COUNTER(group, field, label) \
  {group, #field, label, [](const Stats& s) -> int64_t { return s.field; }}

namespace server {
using Stats = StreamServerStats;
const Counter<Stats> kCounters[] = {
    KVEC_COUNTER("overload", items_submitted, "items submitted"),
    KVEC_COUNTER("overload", batches_shed, "batches shed"),
    KVEC_COUNTER("overload", items_shed, "items shed"),
    KVEC_COUNTER("memory", bytes_resident, "bytes resident"),
    KVEC_COUNTER("memory", pool_blocks, "pool blocks"),
    KVEC_COUNTER("memory", scratch_high_water, "scratch high water"),
    KVEC_COUNTER("memory", compactions, "compactions"),
    KVEC_COUNTER("events", sequences_classified, "sequences classified"),
    KVEC_COUNTER("events", policy_halts, "  policy halts"),
    KVEC_COUNTER("events", idle_timeouts, "  idle timeouts"),
    KVEC_COUNTER("events", capacity_evictions, "  capacity evictions"),
    KVEC_COUNTER("events", rotation_classifications, "  rotation closes"),
    KVEC_COUNTER("events", flush_classifications, "  flush closes"),
    KVEC_COUNTER("events", windows_started, "windows started"),
    KVEC_COUNTER("events", items_after_verdict, "items after verdict"),
};
}  // namespace server

namespace tcp {
using Stats = net::TcpIngestServerStats;
const Counter<Stats> kCounters[] = {
    KVEC_COUNTER("net", connections_accepted, "connections accepted"),
    KVEC_COUNTER("net", connections_rejected, "connections rejected"),
    KVEC_COUNTER("net", connections_evicted_idle, "idle evictions"),
    KVEC_COUNTER("net", frames_received, "frames received"),
    KVEC_COUNTER("net", frames_malformed, "frames malformed"),
    KVEC_COUNTER("net", batches_ingested, "batches ingested"),
    KVEC_COUNTER("net", items_accepted, "items accepted"),
    KVEC_COUNTER("net", items_shed, "items shed at ingest"),
    KVEC_COUNTER("net", errors_sent, "error frames sent"),
};
}  // namespace tcp

#undef KVEC_COUNTER

// Opens one JSON object per run of counters that share a group.
template <typename Stats, size_t N>
void EmitGroups(const Counter<Stats> (&counters)[N], const Stats& stats,
                JsonWriter* writer) {
  const char* open = nullptr;
  for (const Counter<Stats>& counter : counters) {
    if (open == nullptr || std::strcmp(open, counter.group) != 0) {
      if (open != nullptr) writer->EndObject();
      writer->Key(counter.group).BeginObject();
      open = counter.group;
    }
    writer->Key(counter.key).Int(counter.value(stats));
  }
  if (open != nullptr) writer->EndObject();
}

template <typename Stats, size_t N>
void AddRows(const Counter<Stats> (&counters)[N], const Stats* views,
             size_t num_views, Table* table) {
  for (const Counter<Stats>& counter : counters) {
    std::vector<std::string> row = {counter.label};
    for (size_t v = 0; v < num_views; ++v) {
      row.push_back(std::to_string(counter.value(views[v])));
    }
    table->AddRow(std::move(row));
  }
}

}  // namespace

void EmitStatsJson(const StreamServerStats& stats, JsonWriter* writer) {
  EmitGroups(server::kCounters, stats, writer);
}

void EmitStatsJson(const net::TcpIngestServerStats& stats,
                   JsonWriter* writer) {
  EmitGroups(tcp::kCounters, stats, writer);
}

void AddStatsRows(const StreamServerStats& stats, Table* table) {
  AddRows(server::kCounters, &stats, 1, table);
}

void AddStatsRows(const net::TcpIngestServerStats& stats, Table* table) {
  AddRows(tcp::kCounters, &stats, 1, table);
}

Table StatsColumns(const std::vector<std::string>& names,
                   const std::vector<StreamServerStats>& views) {
  std::vector<std::string> columns = {"stat"};
  columns.insert(columns.end(), names.begin(), names.end());
  Table table(std::move(columns));
  AddRows(server::kCounters, views.data(), views.size(), &table);
  return table;
}

}  // namespace cli
}  // namespace kvec
