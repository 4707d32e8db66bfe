// Subcommand dispatch for the `kvec` driver binary.
//
// The driver is the canonical entry point of the repository: every layer
// that used to be reachable only through bespoke example/bench binaries —
// the preset generators, the trainer, the sweep/evaluation harness, the
// baselines, and the (sharded) serving stack with its checkpoints — is
// wired behind one subcommand each:
//
//   kvec generate    synthesize a dataset preset into a CSV directory
//   kvec train       train a KVEC model, save a self-describing bundle
//   kvec eval        evaluate a bundle on a split (tables or JSON)
//   kvec sweep       earliness/accuracy sweeps across methods
//   kvec figure      the paper's tables and figures, and the extensions
//   kvec serve       replay a stream through StreamServer/sharded serving
//   kvec bench       end-to-end serving throughput measurement
//   kvec checkpoint  inspect model bundles and serving checkpoints
//
// `RunKvecCli` is stream-parameterised so tests drive the full dispatch
// path in-process (tests/cli_test.cc); apps/kvec.cc is a two-line argv
// shim. All subcommands are deterministic for fixed flags and seeds,
// except where they report wall-clock timings (serve/bench).
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace kvec {
namespace cli {

// Runs the driver on `args` — argv without the program name, so the
// subcommand (if any) is args[0]. Regular output goes to `out`; usage and
// diagnostics to `err`. Returns the process exit code: 0 on success (and
// for --help), 1 on a runtime failure (unreadable file, corrupt bundle),
// 2 on a usage error (unknown subcommand/flag, missing required flag).
int RunKvecCli(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);

// main() shim used by apps/kvec.cc.
int KvecMain(int argc, char** argv);

// Asks a running `kvec serve` replay to stop at the next batch boundary:
// drain the shard queues, print final (per-shard) stats, honor
// --save-checkpoint, and exit 130. Installed as the SIGINT action while
// serve runs; exposed so tests can trigger the graceful-shutdown path
// in-process without racing a real signal.
void RequestServeInterrupt();

// The subcommand table (name + one-line summary), in help order.
struct SubcommandInfo {
  const char* name;
  const char* summary;
};
const std::vector<SubcommandInfo>& Subcommands();

}  // namespace cli
}  // namespace kvec

