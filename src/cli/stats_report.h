// One definition per serving counter for every `kvec` report.
//
// StreamServerStats' overload / memory / events groups and
// TcpIngestServerStats' net group are each listed once, in
// stats_report.cc, as (group, field) pairs. The field name is the
// counter's JSON key and, through the walk below, its table label too.
//
// Every subcommand builds its result in one walk into a Report
// (cli/report.h), which renders it as JSON or as tables. AddStats is the
// counters' part of that walk: `kvec serve` (replay and --listen), `kvec
// bench`, each `kvec soak` stage and serve's per-shard SIGINT breakdown
// add their counters only through it, so adding a counter to every report
// is one new line in the list.
#pragma once

#include "cli/report.h"
#include "core/stream_server.h"
#include "net/tcp_ingest_server.h"

namespace kvec {
namespace cli {

// Adds the "overload", "memory" and "events" objects.
void AddStats(const StreamServerStats& stats, Report* report);
// Adds the "net" object.
void AddStats(const net::TcpIngestServerStats& stats, Report* report);

}  // namespace cli
}  // namespace kvec
