#include "cli/stats_report.h"

#include <cstdint>
#include <cstring>
#include <utility>

namespace kvec {
namespace cli {
namespace {

// A counter as every report shows it: the JSON object it sits in and its
// key (the field name).
template <typename Stats>
struct Counter {
  const char* group;
  const char* key;
  int64_t (*value)(const Stats&);
};

// Expands to one Counter of the `Stats` type in scope.
#define KVEC_COUNTER(group, field) \
  {group, #field, [](const Stats& s) -> int64_t { return s.field; }}

namespace server {
using Stats = StreamServerStats;
const Counter<Stats> kCounters[] = {
    KVEC_COUNTER("overload", items_submitted),
    KVEC_COUNTER("overload", batches_shed),
    KVEC_COUNTER("overload", items_shed),
    KVEC_COUNTER("memory", bytes_resident),
    KVEC_COUNTER("memory", pool_blocks),
    KVEC_COUNTER("memory", scratch_high_water),
    KVEC_COUNTER("memory", compactions),
    KVEC_COUNTER("events", sequences_classified),
    KVEC_COUNTER("events", policy_halts),
    KVEC_COUNTER("events", idle_timeouts),
    KVEC_COUNTER("events", capacity_evictions),
    KVEC_COUNTER("events", rotation_classifications),
    KVEC_COUNTER("events", flush_classifications),
    KVEC_COUNTER("events", windows_started),
    KVEC_COUNTER("events", items_after_verdict),
};
}  // namespace server

namespace tcp {
using Stats = net::TcpIngestServerStats;
const Counter<Stats> kCounters[] = {
    KVEC_COUNTER("net", connections_accepted),
    KVEC_COUNTER("net", connections_rejected),
    KVEC_COUNTER("net", connections_evicted_idle),
    KVEC_COUNTER("net", frames_received),
    KVEC_COUNTER("net", frames_malformed),
    KVEC_COUNTER("net", batches_ingested),
    KVEC_COUNTER("net", items_accepted),
    KVEC_COUNTER("net", items_shed),
    KVEC_COUNTER("net", errors_sent),
};
}  // namespace tcp

#undef KVEC_COUNTER

// Adds one object per run of counters that share a group.
template <typename Stats, size_t N>
void AddGroups(const Counter<Stats> (&counters)[N], const Stats& stats,
               Report* report) {
  for (size_t begin = 0; begin < N;) {
    Report group;
    size_t end = begin;
    for (; end < N && std::strcmp(counters[end].group,
                                  counters[begin].group) == 0;
         ++end) {
      group.Int(counters[end].key, counters[end].value(stats));
    }
    report->Object(counters[begin].group, std::move(group));
    begin = end;
  }
}

}  // namespace

void AddStats(const StreamServerStats& stats, Report* report) {
  AddGroups(server::kCounters, stats, report);
}

void AddStats(const net::TcpIngestServerStats& stats, Report* report) {
  AddGroups(tcp::kCounters, stats, report);
}

}  // namespace cli
}  // namespace kvec
