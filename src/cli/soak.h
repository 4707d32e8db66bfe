// `kvec soak` — the time-compressed bounded-memory soak harness
// (docs/SERVING.md "Memory management", docs/REPRODUCING.md).
//
// Drives a ShardedStreamServer through ingest / idle-eviction / window
// rotation / checkpoint-restore cycles at 100k–1M open keys while
// sampling process RSS and the pool gauges, and FAILS (exit 1) when the
// post-warm-up RSS samples drift outside the configured flatness band —
// "bounded memory" as a tested claim rather than a design note. The
// --curve flag additionally emits the memory-vs-open-keys curve in the
// bench-report JSON shape (BENCH_PR9.json).
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace kvec {
namespace cli {

// Runs `kvec soak` on `args` (argv minus program and subcommand names).
// Returns 0 when every stage's steady-state RSS stayed inside the band,
// 1 on a band violation or runtime failure, 2 on a usage error.
int RunSoakCommand(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

}  // namespace cli
}  // namespace kvec
