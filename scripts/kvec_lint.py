#!/usr/bin/env python3
"""Project lint for repo-specific invariants (stdlib only, no network).

Enforces the rules no off-the-shelf tool knows about this codebase
(documented with rationale in docs/STATIC_ANALYSIS.md):

* ``fault-point-doc``   — every ``KVEC_FAULT_POINT("name")`` used in code
                          appears in docs/SERVING.md's fault-point list.
* ``naked-new``         — no ``new``/``delete`` expressions outside the
                          ``tensor`` allocation layer (smart pointers or
                          containers everywhere else).
* ``banned-call``       — no ``std::rand`` / ``time(nullptr)`` (seeded
                          determinism is a repro invariant; use util/rng.h)
                          and no ``std::regex`` (heavy, locale-dependent).
* ``pragma-once``       — every header uses ``#pragma once``.
* ``iostream-outside-cli`` — no ``std::cout``/``std::cerr`` outside the
                          CLI layer (the library reports through return
                          values and util/check.h).
* ``raw-syscall``       — no naked socket syscalls (``socket``, ``bind``,
                          ``connect``, ``send``/``recv`` families, ...)
                          outside ``src/net/``; everything else talks to
                          the network through net/socket.h, which owns
                          deadlines, fault points, and EINTR handling.
* ``test-wiring``       — every ``*.cc`` directly inside a ``tests/``
                          directory is named ``*_test.cc`` so the CMake
                          glob builds it and wires it into ctest (anything
                          else would silently never run).
* ``include-path``      — quoted includes of project headers use the
                          canonical src/-relative spelling (no ``../``,
                          no ``src/`` prefix) and resolve to a real file.
* ``pool-discipline``   — per-key serving state allocates through
                          util/arena.h (ShardPool / ScratchArena): no raw
                          ``std::pmr`` resource primitives outside that
                          wrapper, and no ``malloc``/``free`` family
                          anywhere (a malloc'd block is invisible to the
                          pool gauges and outlives the shard pool a window
                          rotation releases).
* ``section-id``        — checkpoint-container section ids live in ONE
                          registry (src/util/serialize.h): outside
                          serialize.{h,cc} no new ``kCheckpointSection*``
                          constant may be defined and no integer literal
                          may be used as a section id (constructing a
                          ``CheckpointSection`` or calling
                          ``Checkpoint::Find``, recognised by the receiver
                          name ``checkpoint``/``delta`` or the qualified
                          ``Checkpoint::Find``, so other containers'
                          ``Find`` stay free) — two subsystems colliding
                          on an id silently corrupt each other's restores.
* ``tsa-escape``        — every ``KVEC_NO_THREAD_SAFETY_ANALYSIS`` outside
                          src/util/thread_annotations.h (which defines it)
                          carries a ``kvec-lint: allow(tsa-escape)``
                          suppression whose reason names the ownership or
                          ordering argument the analysis cannot see.
* ``count-guard``       — no ``remaining()`` arithmetic in library code
                          (src/) outside src/util/serialize.*: a record
                          reader bounds its element counts with
                          ``BinaryReader::ReadCount``, which fails the
                          reader closed, instead of a hand-rolled guard.
* ``env-knob``          — every ``getenv`` in library code (src/) carries
                          a ``kvec-lint: allow(env-knob)`` suppression
                          whose reason says why the setting cannot be a
                          flag: an environment variable is a hidden
                          execution mode no ``--help`` lists.
* ``doc-ref``           — a comment that names a markdown file
                          (``docs/SERVING.md``, or a bare ``DESIGN.md``,
                          which resolves under docs/ or the repo root)
                          names one that exists, and every ``§N.N`` after
                          the name on that line is a heading of that file.

Suppressions (a reason is mandatory):

    do_thing();  // kvec-lint: allow(naked-new) reason why this is fine
    // kvec-lint: allow-next(naked-new) reason why the next line is fine

Directories named ``lint_fixtures`` are skipped when walking (they hold
deliberate violations for tests/lint_test.cc) but are scanned when passed
explicitly on the command line.

Usage: kvec_lint.py src/ tests/ apps/ [bench/ ...]
Exit code 0 when clean, 1 when any rule fires, 2 on usage errors.
"""

import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
SKIP_DIR_NAMES = {"lint_fixtures", "build", ".git"}
# Third-party headers legitimately included with quotes by tests/benchmarks.
THIRD_PARTY_INCLUDE_PREFIXES = ("gtest/", "gmock/", "benchmark/")
FAULT_POINT_DOC = os.path.join("docs", "SERVING.md")

RULES = (
    "fault-point-doc",
    "naked-new",
    "banned-call",
    "pragma-once",
    "iostream-outside-cli",
    "raw-syscall",
    "test-wiring",
    "include-path",
    "pool-discipline",
    "section-id",
    "tsa-escape",
    "count-guard",
    "env-knob",
    "doc-ref",
)

ALLOW = re.compile(r"//\s*kvec-lint:\s*allow(-next)?\(([a-z-]+)\)\s*(\S.*)?$")
FAULT_POINT = re.compile(r'KVEC_FAULT_POINT\("([^"]+)"\)')
NEW_EXPR = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:<]|\[)")
DELETE_EXPR = re.compile(r"(?<![=\w])\s*\bdelete\b\s*(?:\[\s*\]\s*)?[A-Za-z_:(*]")
BANNED = (
    (re.compile(r"\bstd::rand\b"), "std::rand (use util/rng.h)"),
    (re.compile(r"\btime\(\s*nullptr\s*\)|\btime\(\s*NULL\s*\)"),
     "time(nullptr) (wall-clock seeds break reproducibility)"),
    (re.compile(r"\bstd::regex\b|#include\s*<regex>"),
     "std::regex (heavy, locale-dependent; hand-roll the parse)"),
)
IOSTREAM = re.compile(r"\bstd::(cout|cerr)\b")
# Socket syscalls, bare or ::-qualified. The lookbehind rejects member
# calls (.connect / ->connect), qualified names (std::bind, Socket's own
# CamelCase methods never match the lowercase list), and identifiers that
# merely end in a syscall name.
RAW_SYSCALL = re.compile(
    r"(?<![\w.>:])(?:::\s*)?"
    r"(socket|bind|listen|accept4?|connect|sendto|sendmsg|send|"
    r"recvfrom|recvmsg|recv|setsockopt|getsockopt|getsockname|"
    r"shutdown|poll)\s*\(")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Raw pmr building blocks (the pool wrappers in util/arena.* are the one
# sanctioned place to touch them) and the C allocation family.
PMR_PRIMITIVE = re.compile(
    r"\b(?:std::pmr::)?(unsynchronized_pool_resource|"
    r"synchronized_pool_resource|monotonic_buffer_resource|"
    r"new_delete_resource|pool_options)\b")
MALLOC_FAMILY = re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?"
                           r"(malloc|calloc|realloc|free)\s*\(")
# A new registry constant outside the registry ("=" but not "=="), or an
# integer literal where a section id belongs: brace-constructing a
# CheckpointSection (directly or via sections.push_back/emplace_back) or
# looking one up with Checkpoint::Find. The lookup is recognised by the
# checkpoint container's receiver names (checkpoint / delta) or the
# qualified Checkpoint::Find, so Find on other containers (FlatIntMap)
# takes any literal.
SECTION_ID_CONST = re.compile(r"\bkCheckpointSection\w+\s*=(?!=)")
SECTION_ID_LITERAL = re.compile(
    r"(?:\bCheckpointSection\s*(?:\w+\s*)?\{|"
    r"sections\.(?:push_back|emplace_back)\(\s*\{|"
    r"(?:\b(?:checkpoint|delta)\s*(?:\.|->)\s*|\bCheckpoint::)Find\(\s*)"
    r"[-+]?\d")
TSA_ESCAPE = re.compile(r"\bKVEC_NO_THREAD_SAFETY_ANALYSIS\b")
# remaining() next to an arithmetic or comparison operator (the "->" of a
# member call is not one).
COUNT_GUARD = re.compile(
    r"(?:[-+*/%<]|(?<!-)>)=?\s*(?:\w+\s*(?:\.|->)\s*)?remaining\(\s*\)"
    r"|\bremaining\(\s*\)\s*[-+*/%<>]")
GETENV = re.compile(r"\b(?:secure_)?getenv\s*\(")
# A markdown file named in a comment, optionally docs/-qualified, and the
# section marks that follow it; a heading is "## §4.1 Title".
DOC_REF = re.compile(r"(?<![\w/.-])(docs/)?([A-Z][A-Z0-9_]*\.md)\b")
SECTION_REF = re.compile(r"§(\d+(?:\.\d+)*)")
SECTION_HEADING = re.compile(r"^#{1,6}\s+§(\d+(?:\.\d+)*)\b", re.M)


def path_components(path):
    return os.path.normpath(path).split(os.sep)


def strip_comments(line):
    """Removes // and single-line /* */ comments (string-literal naive —
    good enough for this codebase, which keeps code out of strings)."""
    line = re.sub(r"/\*.*?\*/", "", line)
    return line.split("//", 1)[0]


class File:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as handle:
            self.raw_lines = handle.read().splitlines()
        # allowed[lineno] = {rule, ...} collected before comment stripping.
        self.allowed = {}
        self.allow_errors = []
        for lineno, line in enumerate(self.raw_lines, start=1):
            match = ALLOW.search(line)
            if not match:
                if "kvec-lint:" in line:
                    self.allow_errors.append(
                        (lineno, "malformed kvec-lint directive"))
                continue
            is_next, rule, reason = match.groups()
            if rule not in RULES:
                self.allow_errors.append(
                    (lineno, f"allow() names unknown rule '{rule}'"))
                continue
            if not reason:
                self.allow_errors.append(
                    (lineno, f"allow({rule}) is missing a reason"))
                continue
            target = lineno + 1 if is_next else lineno
            self.allowed.setdefault(target, set()).add(rule)
        self.code_lines = [
            (n, strip_comments(line))
            for n, line in enumerate(self.raw_lines, start=1)
        ]

    def is_allowed(self, lineno, rule):
        return rule in self.allowed.get(lineno, set())


def walk_files(args):
    seen = []
    for arg in args:
        if os.path.isfile(arg):
            if arg.endswith(CXX_EXTENSIONS):
                seen.append(arg)
            continue
        if not os.path.isdir(arg):
            print(f"kvec_lint: no such file or directory: {arg}")
            sys.exit(2)
        for root, dirs, names in os.walk(arg):
            # Prune skip-dirs unless the user pointed the walk at one.
            dirs[:] = sorted(
                d for d in dirs
                if d not in SKIP_DIR_NAMES and not d.startswith("build"))
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    seen.append(os.path.join(root, name))
    return seen


def find_repo_root(start):
    """Nearest ancestor holding src/ AND CMakeLists.txt (falls back to cwd).
    Both markers are required so a fixture tree with a src/ subdirectory is
    never mistaken for the repo root."""
    probe = os.path.abspath(start)
    while True:
        if (os.path.isdir(os.path.join(probe, "src"))
                and os.path.exists(os.path.join(probe, "CMakeLists.txt"))):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.getcwd()
        probe = parent


def documented_fault_points(repo_root):
    doc = os.path.join(repo_root, FAULT_POINT_DOC)
    if not os.path.exists(doc):
        return None
    with open(doc, encoding="utf-8") as handle:
        return set(re.findall(r"`([a-z0-9_.]+)`", handle.read()))


def doc_headings(path, cache):
    """The § headings of the markdown file at `path`, or None when the
    file does not exist."""
    if path not in cache:
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                cache[path] = set(SECTION_HEADING.findall(handle.read()))
        else:
            cache[path] = None
    return cache[path]


def check_doc_refs(comment, repo_root, doc_cache, report):
    """Reports each markdown file `comment` names that does not exist, and
    each § mark after a name that is not one of that file's headings."""
    refs = list(DOC_REF.finditer(comment))
    for i, ref in enumerate(refs):
        qualified, name = ref.groups()
        candidates = [os.path.join(repo_root, "docs", name)]
        if not qualified:
            candidates.append(os.path.join(repo_root, name))
        headings = None
        for candidate in candidates:
            headings = doc_headings(candidate, doc_cache)
            if headings is not None:
                break
        shown = (qualified or "") + name
        if headings is None:
            report(f"comment names {shown}, which does not exist")
            continue
        end = refs[i + 1].start() if i + 1 < len(refs) else len(comment)
        for section in SECTION_REF.findall(comment[ref.end():end]):
            if section not in headings:
                report(f"comment cites {shown} §{section}, which has no "
                       "such heading")


def lint_file(file, repo_root, fault_doc, doc_cache, errors):
    comps = path_components(file.path)
    in_tensor = "tensor" in comps
    in_cli = "cli" in comps
    in_src = "src" in comps
    in_net = "net" in comps and in_src
    in_arena = (in_src and "util" in comps
                and os.path.basename(file.path).startswith("arena."))
    in_serialize = (in_src and "util" in comps
                    and os.path.basename(file.path).startswith("serialize."))
    in_annotations = (in_src and "util" in comps and os.path.basename(
        file.path) == "thread_annotations.h")
    file_dir = os.path.dirname(file.path)

    def report(lineno, rule, message):
        if not file.is_allowed(lineno, rule):
            errors.append((file.path, lineno, rule, message))

    for lineno, message in file.allow_errors:
        errors.append((file.path, lineno, "bad-allow", message))

    if file.path.endswith((".h", ".hpp")):
        if not any("#pragma once" in line for line in file.raw_lines):
            report(1, "pragma-once", "header is missing #pragma once")

    if (file.path.endswith((".cc", ".cpp"))
            and os.path.basename(file_dir) == "tests"
            and not file.path.endswith("_test.cc")):
        report(1, "test-wiring",
               "a .cc in tests/ must be named *_test.cc or the CMake glob "
               "never builds it (and ctest never runs it)")

    for lineno, raw in enumerate(file.raw_lines, start=1):
        if "//" in raw:
            check_doc_refs(raw.split("//", 1)[1], repo_root, doc_cache,
                           lambda message, n=lineno: report(n, "doc-ref",
                                                            message))

    for lineno, line in file.code_lines:
        for point in FAULT_POINT.findall(line):
            if fault_doc is not None and point not in fault_doc:
                report(lineno, "fault-point-doc",
                       f'fault point "{point}" is not documented in '
                       f"{FAULT_POINT_DOC}")

        if not in_tensor and (NEW_EXPR.search(line)
                              or DELETE_EXPR.search(line)):
            report(lineno, "naked-new",
                   "naked new/delete outside the tensor allocation layer "
                   "(use std::make_unique / containers)")

        for pattern, what in BANNED:
            if pattern.search(line):
                report(lineno, "banned-call", f"banned: {what}")

        if not in_net:
            syscall = RAW_SYSCALL.search(line)
            if syscall:
                report(lineno, "raw-syscall",
                       f"naked socket syscall '{syscall.group(1)}' outside "
                       "src/net/ (go through net/socket.h, which owns "
                       "deadlines, fault points, and EINTR handling)")

        if not in_arena:
            primitive = PMR_PRIMITIVE.search(line)
            if primitive:
                report(lineno, "pool-discipline",
                       f"raw pmr primitive '{primitive.group(1)}' outside "
                       "src/util/arena.* (per-key state goes through "
                       "ShardPool / ScratchArena so the pool gauges see it "
                       "and a window rotation can release it)")
        malloc_call = MALLOC_FAMILY.search(line)
        if malloc_call:
            report(lineno, "pool-discipline",
                   f"C allocation call '{malloc_call.group(1)}' (a malloc'd "
                   "block is invisible to the pool accounting; use "
                   "containers over ShardPool / ScratchArena)")

        if not in_serialize:
            if SECTION_ID_CONST.search(line):
                report(lineno, "section-id",
                       "checkpoint section-id constants are defined only in "
                       "the registry in src/util/serialize.h (a duplicate "
                       "definition can silently collide with another "
                       "subsystem's id)")
            elif SECTION_ID_LITERAL.search(line):
                report(lineno, "section-id",
                       "raw integer used as a checkpoint section id; use "
                       "the named kCheckpointSection* constants from "
                       "src/util/serialize.h")

        if not in_annotations and TSA_ESCAPE.search(line):
            report(lineno, "tsa-escape",
                   "KVEC_NO_THREAD_SAFETY_ANALYSIS switches clang's lock "
                   "checking off for the whole function; suppress with "
                   "kvec-lint: allow(tsa-escape) and the reason it is safe, "
                   "or restructure so the analysis can see the lock")

        if in_src and not in_serialize and COUNT_GUARD.search(line):
            report(lineno, "count-guard",
                   "hand-rolled count guard on remaining(); read the count "
                   "with BinaryReader::ReadCount(min_bytes_per_element), "
                   "which fails the reader closed")

        if in_src and GETENV.search(line):
            report(lineno, "env-knob",
                   "getenv in library code adds a hidden execution mode; "
                   "make it a flag, or suppress with kvec-lint: "
                   "allow(env-knob) and the reason it must be an "
                   "environment variable")

        if in_src and not in_cli and IOSTREAM.search(line):
            report(lineno, "iostream-outside-cli",
                   "std::cout/std::cerr outside src/cli/ (library code "
                   "reports through return values / util/check.h)")

        match = INCLUDE.match(line)
        if match:
            target = match.group(1)
            if target.startswith(("../", "./")) or "/../" in target:
                report(lineno, "include-path",
                       f'include "{target}" must use the canonical '
                       "src/-relative path, not a relative traversal")
            elif target.startswith("src/"):
                report(lineno, "include-path",
                       f'include "{target}" must drop the src/ prefix '
                       "(the include root already is src/)")
            elif not target.startswith(THIRD_PARTY_INCLUDE_PREFIXES):
                in_srctree = os.path.exists(
                    os.path.join(repo_root, "src", target))
                in_samedir = os.path.exists(os.path.join(file_dir, target))
                if not in_srctree and not in_samedir:
                    report(lineno, "include-path",
                           f'include "{target}" resolves neither under src/ '
                           "nor next to the including file")


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 2
    files = walk_files(argv[1:])
    if not files:
        print("kvec_lint: no C++ files found under the given paths")
        return 2
    repo_root = find_repo_root(files[0])
    fault_doc = documented_fault_points(repo_root)
    if fault_doc is None:
        print(f"kvec_lint: warning: {FAULT_POINT_DOC} not found; "
              "fault-point-doc rule skipped")
    errors = []
    doc_cache = {}
    for path in files:
        lint_file(File(path), repo_root, fault_doc, doc_cache, errors)
    for path, lineno, rule, message in errors:
        print(f"{path}:{lineno}: [{rule}] {message}")
    print(f"checked {len(files)} file(s): "
          f"{'OK' if not errors else f'{len(errors)} violation(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
