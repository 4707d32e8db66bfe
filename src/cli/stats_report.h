// One definition per serving counter for every `kvec` report.
//
// StreamServerStats' overload / memory / events groups and
// TcpIngestServerStats' net group are each listed once, in
// stats_report.cc, with every counter's JSON key and table label. `kvec
// serve` (replay and --listen), `kvec bench` and `kvec soak` render those
// counters only through the functions below, so adding a counter to a
// report is one new line in that list.
#pragma once

#include <string>
#include <vector>

#include "cli/json_writer.h"
#include "core/stream_server.h"
#include "net/tcp_ingest_server.h"
#include "util/table.h"

namespace kvec {
namespace cli {

// Writes the "overload", "memory" and "events" objects into the JSON
// object being written.
void EmitStatsJson(const StreamServerStats& stats, JsonWriter* writer);
// Writes the "net" object.
void EmitStatsJson(const net::TcpIngestServerStats& stats,
                   JsonWriter* writer);

// Appends one (label, value) row per counter to a two-column table.
void AddStatsRows(const StreamServerStats& stats, Table* table);
void AddStatsRows(const net::TcpIngestServerStats& stats, Table* table);

// One row per StreamServerStats counter and one column per view (a
// shard, a soak stage), headed by `names`.
Table StatsColumns(const std::vector<std::string>& names,
                   const std::vector<StreamServerStats>& views);

}  // namespace cli
}  // namespace kvec
