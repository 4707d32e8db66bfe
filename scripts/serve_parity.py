#!/usr/bin/env python3
"""Serving parity between two kvec builds: same events, same bytes.

Runs the same `kvec serve` matrix with both binaries and compares what they
write. The matrix covers, over `--episodes 300 --max-window-items 300`:

* `--shards 1` and `--shards 3`;
* `--batch 1` and `--batch 64`;
* synchronous ingest (`--workers 0`) and one worker per shard
  (`--workers N`, N = the shard count);
* the default serving bounds, which on this stream close keys only by
  policy halts, rotations and the final flush, and tight ones
  (`--idle-timeout 24 --max-open-keys 16`, names ending in `-tight`),
  which also fire idle timeouts and capacity evictions in every
  configuration.

Each of those sixteen configurations runs four times:

1. `--save-checkpoint full.ckpt` (one full image);
2. `--checkpoint-every 400 --rebase-every 3 --save-checkpoint chain.ckpt`
   (a delta chain: base plus every `.delta.N`);
3. `--load-checkpoint full.ckpt --save-checkpoint full-loaded.ckpt`;
4. `--load-checkpoint chain.ckpt --save-checkpoint chain-loaded.ckpt`.

Every file a run writes is compared byte for byte (`cmp`), and so is the
set of file names. The `--json` reports are compared with the wall-clock
fields `seconds` and `items_per_sec` masked; `--mask KEY` masks more report
members, by name or by dotted path (`memory.bytes_resident`), for a change
that alters a report value on purpose (say so where the change is
described). Each run without `--model` trains its throwaway
model, so training determinism is covered too.

Exits 0 when everything matches, 1 on any difference (one line per
difference on stderr), 2 on a usage error or a run that failed.

Usage: serve_parity.py [--mask KEY]... PARENT_KVEC CHANGE_KVEC
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

BASE_FLAGS = ["--episodes", "300", "--max-window-items", "300", "--json"]
ALWAYS_MASKED = ("seconds", "items_per_sec")
# (name suffix, flags): the serving bounds each configuration runs under.
BOUNDS = (
    ("", []),
    ("-tight", ["--idle-timeout", "24", "--max-open-keys", "16"]),
)


def configurations():
    for suffix, bounds in BOUNDS:
        for shards in (1, 3):
            for batch in (1, 64):
                for workers in (0, shards):
                    name = "s%d-b%d-w%d%s" % (shards, batch, workers, suffix)
                    flags = ["--shards", str(shards), "--batch", str(batch),
                             "--workers", str(workers)] + bounds
                    yield name, flags


# (run name, extra flags); paths are relative to the run's directory.
RUNS = (
    ("full", ["--save-checkpoint", "full.ckpt"]),
    ("chain", ["--checkpoint-every", "400", "--rebase-every", "3",
               "--save-checkpoint", "chain.ckpt"]),
    ("load-full", ["--load-checkpoint", "full.ckpt",
                   "--save-checkpoint", "full-loaded.ckpt"]),
    ("load-chain", ["--load-checkpoint", "chain.ckpt",
                    "--save-checkpoint", "chain-loaded.ckpt"]),
)


def masked(value, keys, path=""):
    """`value` (parsed JSON) with every member replaced whose name or dotted
    path (`memory.bytes_resident`) is in `keys`."""
    if isinstance(value, dict):
        out = {}
        for key, member in value.items():
            child = path + "." + key if path else key
            out[key] = ("<masked>" if key in keys or child in keys
                        else masked(member, keys, child))
        return out
    if isinstance(value, list):
        return [masked(member, keys, path) for member in value]
    return value


def differing_keys(parent, change, path=""):
    """The dotted paths at which two parsed JSON values differ."""
    if isinstance(parent, dict) and isinstance(change, dict):
        paths = []
        for key in sorted(set(parent) | set(change)):
            child = path + "." + key if path else key
            if key not in parent or key not in change:
                paths.append(child)
            else:
                paths += differing_keys(parent[key], change[key], child)
        return paths
    if isinstance(parent, list) and isinstance(change, list) and len(
            parent) == len(change):
        paths = []
        for index, (left, right) in enumerate(zip(parent, change)):
            paths += differing_keys(left, right, "%s[%d]" % (path, index))
        return paths
    return [] if parent == change else [path or "<root>"]


def serve(kvec, workdir, flags):
    """Runs one `kvec serve` in `workdir`; returns its parsed JSON report."""
    command = [os.path.abspath(kvec), "serve"] + BASE_FLAGS + flags
    result = subprocess.run(command, cwd=workdir, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write("%s failed (exit %d) in %s:\n%s" %
                         (" ".join(command), result.returncode, workdir,
                          result.stderr))
        sys.exit(2)
    return json.loads(result.stdout)


def compare_dirs(label, parent_dir, change_dir, differences):
    parent_files = sorted(os.listdir(parent_dir))
    change_files = sorted(os.listdir(change_dir))
    if parent_files != change_files:
        differences.append("%s: files differ: parent %s, change %s" %
                           (label, parent_files, change_files))
    for name in sorted(set(parent_files) & set(change_files)):
        if not filecmp.cmp(os.path.join(parent_dir, name),
                           os.path.join(change_dir, name), shallow=False):
            differences.append("%s: %s differs" % (label, name))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", metavar="PARENT_KVEC")
    parser.add_argument("change", metavar="CHANGE_KVEC")
    parser.add_argument("--mask", action="append", default=[],
                        help="also mask this JSON report key (repeatable)")
    args = parser.parse_args()
    for kvec in (args.parent, args.change):
        if not os.access(kvec, os.X_OK):
            parser.error("not an executable: %s" % kvec)
    keys = set(ALWAYS_MASKED) | set(args.mask)

    root = tempfile.mkdtemp(prefix="serve_parity_")
    differences = []
    runs = 0
    try:
        for name, flags in configurations():
            dirs = {}
            for side, kvec in (("parent", args.parent),
                               ("change", args.change)):
                dirs[side] = os.path.join(root, name, side)
                os.makedirs(dirs[side], exist_ok=True)
            for run, extra in RUNS:
                reports = {side: serve(kvec, dirs[side], flags + extra)
                           for side, kvec in (("parent", args.parent),
                                              ("change", args.change))}
                runs += 1
                paths = differing_keys(masked(reports["parent"], keys),
                                       masked(reports["change"], keys))
                if paths:
                    differences.append("%s %s: --json reports differ at %s" %
                                       (name, run, ", ".join(paths)))
            compare_dirs(name, dirs["parent"], dirs["change"], differences)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    for line in differences:
        sys.stderr.write(line + "\n")
    print("serve_parity: %d configurations x %d runs per build, masked %s: %s"
          % (runs // len(RUNS), len(RUNS), sorted(keys),
             "%d differences" % len(differences) if differences
             else "identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
