#!/usr/bin/env python3
"""Per-directory line coverage of libkvec, with floors.

Reads the gcov data of a build configured with `--coverage` after its
tests ran, and prints, for each directory under src/, the share of
instrumented lines that ran at least once. A line of a header counts once,
however many translation units compile it. Exits 1 if a directory listed
in FLOORS falls below its floor.

    cmake -B build-coverage -S . -DCMAKE_BUILD_TYPE=Coverage \\
        -DCMAKE_CXX_FLAGS="-O1 --coverage" \\
        -DKVEC_BUILD_BENCHMARKS=OFF -DKVEC_BUILD_EXAMPLES=OFF
    cmake --build build-coverage -j
    ctest --test-dir build-coverage -j
    python3 scripts/coverage.py build-coverage

Counts come from gcov (it ships with GCC) and are approximate at -O1.
Raise a floor when code is covered or removed; never lower one to pass.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

# Each directory's coverage as this script measured it (GCC 12, -O1, the
# full ctest suite), rounded down to a whole percent: src/cli 90.9 %,
# src/core 98.9 %, src/net 92.3 %, src/util 95.4 %; src/exp 54.7 % once
# ctest ran the figure registry (exp_figures_smoke). At that run the others
# read 91.2, 98.9, 92.2 and 96.0 %. src/baselines and src/metrics, which
# share the training objective and the verdict record with src/core, read
# 99.2 % each when their floors were added. A directory must stay at or
# above its floor.
FLOORS = {
    "src/baselines": 99,
    "src/cli": 90,
    "src/core": 98,
    "src/exp": 54,
    "src/metrics": 99,
    "src/net": 92,
    "src/util": 95,
}


def gcov_files(object_dir, gcda_paths):
    """Yields gcov's per-source-file JSON records for `gcda_paths`."""
    command = ["gcov", "--json-format", "--stdout", "--object-directory",
               object_dir] + gcda_paths
    output = subprocess.run(command, check=True, capture_output=True,
                            text=True).stdout
    for line in output.splitlines():
        if line.strip():
            yield from json.loads(line)["files"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("build_dir", help="a --coverage build whose tests ran")
    parser.add_argument("--source-dir", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="repository root (default: this script's parent)")
    args = parser.parse_args()
    source_dir = os.path.realpath(args.source_dir)
    object_root = os.path.join(args.build_dir, "CMakeFiles", "kvec.dir")

    by_dir = collections.defaultdict(list)
    for root, _, names in os.walk(object_root):
        gcdas = sorted(os.path.join(root, n) for n in names
                       if n.endswith(".gcda"))
        if gcdas:
            by_dir[root] = gcdas
    if not by_dir:
        sys.exit("coverage: no .gcda files under %s; build with --coverage "
                 "and run ctest first" % object_root)

    # (source file, line) -> ran at least once, over every unit compiling it.
    ran = {}
    for object_dir, gcdas in sorted(by_dir.items()):
        for record in gcov_files(object_dir, gcdas):
            path = os.path.realpath(os.path.join(source_dir, record["file"]))
            rel = os.path.relpath(path, source_dir)
            if not rel.startswith("src" + os.sep):
                continue
            for line in record["lines"]:
                key = (rel, line["line_number"])
                ran[key] = ran.get(key, False) or line["count"] > 0

    totals = collections.defaultdict(lambda: [0, 0])  # dir -> [ran, lines]
    for (rel, _), hit in ran.items():
        parts = rel.split(os.sep)
        directory = "/".join(parts[:2]) if len(parts) > 2 else "src"
        for name in {directory, "src"}:
            totals[name][0] += hit
            totals[name][1] += 1

    failed = []
    print("%-12s %8s %8s %8s %6s" % ("directory", "lines", "ran", "missed",
                                     "cover"))
    for name in sorted(totals, key=lambda n: (n == "src", n)):
        hit, lines = totals[name]
        percent = 100.0 * hit / lines
        floor = FLOORS.get(name)
        note = ""
        if floor is not None:
            note = "  floor %d%%" % floor
            if percent < floor:
                note += "  BELOW"
                failed.append(name)
        print("%-12s %8d %8d %8d %5.1f%%%s" % (name, lines, hit, lines - hit,
                                              percent, note))
    missing = sorted(set(FLOORS) - set(totals))
    if missing or failed:
        sys.exit("coverage: below the floor: %s; no data: %s" %
                 (", ".join(failed) or "none", ", ".join(missing) or "none"))


if __name__ == "__main__":
    main()
