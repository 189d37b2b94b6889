#!/usr/bin/env python3
"""loki_lint: static determinism lint for the byte-identity invariant.

Everything the campaign layer promises (serial == threads == procs == remote
byte-identity, exactly-once replay, content-addressed caching) rests on
run_experiment being a pure function of its params. This lint flags the
code patterns that historically break that purity *before* they ship,
instead of waiting for an identity CI job to sample them:

  unordered-iter   iterating an unordered_{map,set,...}: iteration order is
                   hash-seed/pointer dependent, so any loop that feeds
                   emitted, serialized, or ordered output is a hazard
  pointer-key      std::{map,set} (or unordered) keyed on a pointer:
                   ordering/iteration follows allocation addresses
  wall-clock       system_clock / time() / gettimeofday / clock_gettime in
                   src/sim + src/runtime (steady_clock too inside src/sim:
                   the simulator owns ALL time there); results must depend
                   on simulated clocks only
  env-read         getenv/setenv in src/sim + src/runtime: results must not
                   depend on the environment of the host that ran them
  raw-random       rand()/random()/drand48/std::random_device/std::mt19937
                   outside util/rng: all randomness flows through the
                   seeded util::Rng streams or replay breaks
  raw-write        ofstream/fopen/rename inside src/campaign: the crash-
                   safety story (journal replay, cache store ordering)
                   rests on durable campaign state going only through
                   append-only, checksummed, synced fds: the journal and
                   the cache segments; anything else can tear on SIGKILL
  bad-allow        a loki-lint allow() with no written reason

Suppressing a finding requires a written justification, on the same line or
the line directly above:

    // loki-lint: allow(unordered-iter, order sorted three lines below)

Usage:
    tools/loki_lint.py [PATHS...]     scan (default: src tools)
    tools/loki_lint.py --self-test    run the golden-fixture suite
    tools/loki_lint.py --list-rules   print the rule table

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.
No dependencies beyond the standard library; works on a bare checkout.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")

# Paths (relative, '/'-normalized) a rule is scoped to. None = everywhere.
SIM_RUNTIME = ("src/sim", "src/runtime")

ALLOW_RE = re.compile(
    r"loki-lint:\s*allow\(\s*([a-z-]+)\s*(?:,\s*([^)]*?)\s*)?\)")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"\blocaltime(?:_r)?\b"), "localtime"),
    (re.compile(r"\bgmtime(?:_r)?\b"), "gmtime"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
]
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")

ENV_PATTERNS = [
    (re.compile(r"\b(?:secure_)?getenv\s*\("), "getenv"),
    (re.compile(r"\b(?:un)?setenv\s*\("), "setenv"),
]

RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.])random\s*\("), "random()"),
    (re.compile(r"\b[ds]rand48\s*\("), "drand48"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
]

# Writes that can leave a torn or unsynced file behind a crash. Scoped to
# src/campaign, where the durability contract lives: durable campaign state
# goes only through append-only, checksummed, synced fds — the journal
# (journal.cpp) and the result cache's segments (cache.cpp). Their raw fd
# calls (::open/::pwrite/::fsync) are deliberately not matched: append-only
# + checksummed records + an explicit sync IS their torn-write story.
RAW_WRITE_PATTERNS = [
    (re.compile(r"\bofstream\b"), "std::ofstream"),
    (re.compile(r"\bfopen\s*\("), "fopen"),
    (re.compile(r"\brename\s*\("), "rename"),
]

RULES = {
    "unordered-iter":
        "iteration over an unordered container (hash order is not stable)",
    "pointer-key":
        "container keyed on a pointer (address order is not stable)",
    "wall-clock":
        "wall-clock read inside the deterministic core (src/sim, src/runtime)",
    "env-read":
        "environment read inside the deterministic core (src/sim, src/runtime)",
    "raw-random":
        "randomness not drawn from the seeded util::Rng streams",
    "raw-write":
        "non-atomic file write/rename inside src/campaign (torn on crash)",
    "bad-allow":
        "loki-lint allow() without a written reason",
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(lines):
    """Return lines with string/char literals and comments blanked out
    (lengths preserved, so column math stays valid). The allow() markers are
    collected from the raw text before this runs."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i = 0
        n = len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif raw.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif raw.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(" ")
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif raw[i] == quote:
                        buf.append(" ")
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


def template_argument_span(text, open_angle):
    """Given text and the index of a '<', return (inner, end_index) of the
    matching '>' at the same nesting depth, or (None, None) if unbalanced
    within this text."""
    depth = 0
    for i in range(open_angle, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return text[open_angle + 1:i], i
    return None, None


def first_template_argument(inner):
    """The key type of a map/set instantiation: `inner` up to the first
    comma at angle/paren depth zero."""
    depth = 0
    for i, c in enumerate(inner):
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif c == "," and depth == 0:
            return inner[:i]
    return inner


def collect_allows(lines):
    """allow() markers by the line they shield (their own and the next).
    Returns ({line: {rule: reason}}, [Finding for reasonless allows])."""
    allows = {}
    bad = []
    for lineno, raw in enumerate(lines, start=1):
        for m in ALLOW_RE.finditer(raw):
            rule, reason = m.group(1), (m.group(2) or "").strip()
            if not reason:
                bad.append((lineno, rule))
                continue
            for covered in (lineno, lineno + 1):
                allows.setdefault(covered, {})[rule] = reason
    return allows, bad


def declared_unordered_names(code_lines):
    """Identifier names declared with an unordered container type anywhere
    in this file (member, local, alias target). Heuristic: the identifier
    following the closed template instantiation."""
    names = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        open_angle = text.index("<", m.start())
        _, end = template_argument_span(text, open_angle)
        if end is None:
            continue
        after = text[end + 1:end + 200]
        decl = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|\[)", after)
        if decl:
            names.add(decl.group(1))
    return names


def scan_file(path, rel):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel, 0, "io", f"cannot read: {e}")]

    allows, reasonless = collect_allows(raw_lines)
    code = strip_code(raw_lines)
    findings = [
        Finding(rel, lineno, "bad-allow",
                f"allow({rule}) needs a reason: "
                f"// loki-lint: allow({rule}, <why this is safe>)")
        for lineno, rule in reasonless
    ]

    def report(lineno, rule, message):
        if rule in allows.get(lineno, {}):
            return
        findings.append(Finding(rel, lineno, rule, message))

    in_core = rel.startswith(SIM_RUNTIME)
    in_sim = rel.startswith("src/sim")
    in_runtime = rel.startswith("src/runtime")
    in_rng = rel.startswith("src/util/rng")
    in_campaign = rel.startswith("src/campaign")

    unordered_names = declared_unordered_names(code)

    for lineno, line in enumerate(code, start=1):
        # --- unordered-iter --------------------------------------------------
        for m in RANGE_FOR_RE.finditer(line):
            inner, _ = template_argument_span(
                line.replace("(", "<", 1)[m.start():], m.end() - m.start() - 1)
            # Fall back to the rest of the line when the for-header spans
            # lines; the identifier test below keeps this precise enough.
            header = inner if inner is not None else line[m.end():]
            if ":" not in header:
                continue
            range_expr = header.split(":", 1)[1]
            for name in unordered_names:
                if re.search(rf"\b{re.escape(name)}\b", range_expr):
                    report(lineno, "unordered-iter",
                           f"range-for over unordered container '{name}': "
                           "hash iteration order can differ between runs/"
                           "builds; copy-and-sort, or iterate a dense-id "
                           "vector instead")
        for name in unordered_names:
            if re.search(rf"\b{re.escape(name)}\s*\.\s*(?:c?begin|c?end)\s*\(",
                         line):
                report(lineno, "unordered-iter",
                       f"iterator walk over unordered container '{name}': "
                       "hash iteration order can differ between runs/builds")

        # --- pointer-key -----------------------------------------------------
        for m in re.finditer(r"\b(?:unordered_)?(?:multi)?(map|set)\s*<",
                             line):
            open_angle = line.index("<", m.start())
            inner, _ = template_argument_span(line, open_angle)
            if inner is None:
                continue
            key = first_template_argument(inner).strip()
            if key.endswith("*") or re.search(r"\*\s*(?:const)?\s*$", key):
                report(lineno, "pointer-key",
                       f"{m.group(0)}...> keyed on pointer type '{key}': "
                       "ordering follows allocation addresses; key on a "
                       "dense id or name instead")

        # --- wall-clock / env-read (deterministic core only) ----------------
        if in_core:
            for pattern, what in WALL_CLOCK_PATTERNS:
                if pattern.search(line):
                    report(lineno, "wall-clock",
                           f"{what} inside the deterministic core: results "
                           "must depend only on sim::World clocks")
            for pattern, what in ENV_PATTERNS:
                if pattern.search(line):
                    report(lineno, "env-read",
                           f"{what} inside the deterministic core: results "
                           "must not depend on the host environment")
        if in_sim and STEADY_CLOCK_RE.search(line):
            report(lineno, "wall-clock",
                   "steady_clock inside src/sim: the simulator owns all "
                   "time; use sim::World::now()")
        if in_runtime and STEADY_CLOCK_RE.search(line):
            report(lineno, "wall-clock",
                   "steady_clock inside src/runtime: runtime code is "
                   "replayed deterministically; measure latencies in the "
                   "campaign layer and pass them in as values "
                   "(runtime/worker_stats.hpp)")

        # --- raw-write (durable campaign state only) -------------------------
        if in_campaign:
            for pattern, what in RAW_WRITE_PATTERNS:
                if pattern.search(line):
                    report(lineno, "raw-write",
                           f"{what} inside src/campaign: durable state must "
                           "go only through append-only, checksummed, "
                           "synced fds (the journal, the cache segments) so "
                           "a mid-write crash cannot tear it")

        # --- raw-random ------------------------------------------------------
        if not in_rng:
            for pattern, what in RANDOM_PATTERNS:
                if pattern.search(line):
                    report(lineno, "raw-random",
                           f"{what}: draw from a seeded util::Rng stream "
                           "(world.stream(...)) so replay stays exact")

    return findings


def iter_sources(paths):
    for top in paths:
        if os.path.isfile(top):
            yield top
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            # The lint's own fixtures are intentionally dirty.
            dirnames[:] = [d for d in dirnames if d != "fixtures"]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def scan(paths, root):
    findings = []
    for path in iter_sources(paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        findings.extend(scan_file(path, rel))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def self_test(root):
    """Golden-fixture suite: scan tests/lint/fixtures and compare the
    rendered findings to tests/lint/expected.txt line for line."""
    fixture_dir = os.path.join(root, "tests", "lint", "fixtures")
    expected_path = os.path.join(root, "tests", "lint", "expected.txt")
    if not os.path.isdir(fixture_dir):
        print(f"loki_lint: no fixture dir at {fixture_dir}", file=sys.stderr)
        return 2
    findings = []
    for path in sorted(os.listdir(fixture_dir)):
        if not path.endswith(CXX_EXTENSIONS):
            continue
        full = os.path.join(fixture_dir, path)
        # Fixtures emulate tree paths via their first line:
        #   // lint-fixture-path: src/sim/example.cpp
        with open(full, encoding="utf-8") as f:
            first = f.readline()
        m = re.match(r"//\s*lint-fixture-path:\s*(\S+)", first)
        rel = m.group(1) if m else path
        for finding in scan_file(full, rel):
            findings.append(finding.render())
    findings.sort()
    try:
        with open(expected_path, encoding="utf-8") as f:
            expected = sorted(line.rstrip("\n") for line in f
                              if line.strip() and not line.startswith("#"))
    except OSError as e:
        print(f"loki_lint: cannot read {expected_path}: {e}", file=sys.stderr)
        return 2
    if findings == expected:
        print(f"loki_lint self-test: OK ({len(findings)} golden findings)")
        return 0
    print("loki_lint self-test: MISMATCH", file=sys.stderr)
    for line in sorted(set(expected) - set(findings)):
        print(f"  missing : {line}", file=sys.stderr)
    for line in sorted(set(findings) - set(expected)):
        print(f"  extra   : {line}", file=sys.stderr)
    return 1


def main():
    ap = argparse.ArgumentParser(
        description="static determinism lint (byte-identity hazards)")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to scan (default: src tools)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the golden-fixture suite and exit")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    if args.list_rules:
        for rule, what in sorted(RULES.items()):
            print(f"  {rule:<15} {what}")
        return 0
    if args.self_test:
        return self_test(root)

    paths = args.paths or [os.path.join(root, "src"),
                           os.path.join(root, "tools")]
    for p in paths:
        if not os.path.exists(p):
            print(f"loki_lint: no such path: {p}", file=sys.stderr)
            return 2
    findings = scan(paths, root)
    for f in findings:
        print(f.render())
    if findings:
        print(f"loki_lint: {len(findings)} finding(s). Suppress only with "
              "// loki-lint: allow(<rule>, <reason>).", file=sys.stderr)
        return 1
    print("loki_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
