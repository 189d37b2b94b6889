#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs and print a delta table.

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]

Prints one line per benchmark present in CURRENT: the baseline time, the
current time, and the relative delta (negative = faster). Benchmarks missing
from the baseline are listed as NEW. Exits 0 always by default — the table
is informational (CI keeps the JSON as an artifact and shows the trend);
pass --fail-above PCT to turn regressions beyond PCT percent into exit 1.
With --hot REGEX only the named hot benchmarks gate the exit status: the
perf CI job fails on a hot-path regression while everything else stays a
report-only comment in the table (marked "(hot)"). Every '|'-alternative of
the hot pattern must match at least one benchmark in CURRENT — a hot gate
that silently matches nothing (renamed benchmark, binary that failed to
run) is exit 1, not a green check.

`tools/bench_compare.py --self-test` runs the built-in unit tests and
exits nonzero on failure; the perf CI job runs it before trusting the gate.
"""

import argparse
import json
import re
import sys


class MalformedBenchmarkJson(Exception):
    """Raised with a one-line, path-prefixed description of what's wrong."""


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        return None
    except OSError as e:
        raise MalformedBenchmarkJson(f"{path}: cannot read: {e.strerror}")
    except json.JSONDecodeError as e:
        raise MalformedBenchmarkJson(f"{path}: not valid JSON ({e})")
    if not isinstance(doc, dict) or not isinstance(doc.get("benchmarks"), list):
        raise MalformedBenchmarkJson(
            f"{path}: not google-benchmark output (no 'benchmarks' array; "
            "run the bench binary with --benchmark_out_format=json)")
    out = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        try:
            out[b["name"]] = (float(b["real_time"]), b.get("time_unit", "ns"))
        except (KeyError, TypeError, ValueError):
            raise MalformedBenchmarkJson(
                f"{path}: benchmark entry missing a usable name/real_time: "
                f"{b!r:.120}")
    return out


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit):
    return value * UNIT_NS.get(unit, 1.0)


def fmt(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def show(value, unit):
    """A time in its best unit; anything else (a "ratio") as it stands."""
    if unit not in UNIT_NS:
        return f"{value:.3g} {unit}"
    return fmt(to_ns(value, unit))


def unmatched_hot_alternatives(pattern, names):
    """The '|'-alternatives of `pattern` that match no name in `names`.

    Splitting is top-level only: a '|' inside parentheses or brackets (or
    escaped) stays part of its alternative.
    """
    alternatives, depth, current = [], 0, ""
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            current += pattern[i:i + 2]
            i += 2
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth = max(0, depth - 1)
        elif ch == "|" and depth == 0:
            alternatives.append(current)
            current = ""
            i += 1
            continue
        current += ch
        i += 1
    alternatives.append(current)
    unmatched = []
    for alt in alternatives:
        alt_re = re.compile(alt)
        if not any(alt_re.search(name) for name in names):
            unmatched.append(alt)
    return unmatched


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--fail-above", type=float, default=None, metavar="PCT",
                    help="exit 1 if any benchmark regressed by more than PCT%%")
    ap.add_argument("--hot", default=None, metavar="REGEX",
                    help="only benchmarks matching REGEX count toward "
                         "--fail-above; the rest are report-only. Exit 1 "
                         "when any '|'-alternative matches nothing")
    args = ap.parse_args(argv)
    hot = re.compile(args.hot) if args.hot else None

    try:
        current = load(args.current)
        if current is None:
            print(f"bench_compare: cannot read {args.current}",
                  file=sys.stderr)
            return 1
        baseline = load(args.baseline)
    except MalformedBenchmarkJson as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 1
    if args.hot:
        missing = unmatched_hot_alternatives(args.hot, current)
        if missing:
            for alt in missing:
                print(f"bench_compare: hot pattern '{alt}' matched no "
                      f"benchmark in {args.current} — renamed benchmark or "
                      "a bench binary that never ran?", file=sys.stderr)
            return 1
    if baseline is None:
        print(f"bench_compare: no baseline at {args.baseline} — first run?")
        for name, (t, unit) in sorted(current.items()):
            print(f"  NEW       {show(t, unit):>12}  {name}")
        return 0

    worst = 0.0
    width = max((len(n) for n in current), default=0)
    print(f"bench_compare: {args.baseline} -> {args.current}")
    print(f"  {'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    for name, (t, unit) in sorted(current.items()):
        cur_ns = to_ns(t, unit)
        if name not in baseline:
            print(f"  {name:<{width}}  {'—':>12}  {show(t, unit):>12}  NEW")
            continue
        base_ns = to_ns(*baseline[name])
        delta = (cur_ns - base_ns) / base_ns * 100.0 if base_ns > 0 else 0.0
        gated = hot is None or hot.search(name) is not None
        if gated:
            worst = max(worst, delta)
        sign = "+" if delta >= 0 else ""
        tag = "  (hot)" if hot is not None and gated else ""
        print(f"  {name:<{width}}  {show(*baseline[name]):>12}  "
              f"{show(t, unit):>12}  {sign}{delta:.1f}%{tag}")
    for name in sorted(set(baseline) - set(current)):
        print(f"  {name:<{width}}  {show(*baseline[name]):>12}  "
              f"{'—':>12}  REMOVED")

    if args.fail_above is not None and worst > args.fail_above:
        scope = f" among hot benchmarks ({args.hot})" if args.hot else ""
        print(f"bench_compare: worst regression {worst:.1f}%{scope} exceeds "
              f"--fail-above {args.fail_above}%", file=sys.stderr)
        return 1
    return 0


def self_test():
    """Unit tests for the compare/gate logic; exit 0 iff all pass."""
    import contextlib
    import io
    import os
    import tempfile

    def doc(**times_ns):
        return {"benchmarks": [
            {"name": n, "real_time": t, "time_unit": "ns"}
            for n, t in times_ns.items()]}

    failures = []

    def check(label, expected_exit, argv_tail, base=None, cur=None,
              raw_cur=None, want_stderr=None):
        with tempfile.TemporaryDirectory() as d:
            base_path = os.path.join(d, "base.json")
            cur_path = os.path.join(d, "cur.json")
            if base is not None:
                with open(base_path, "w") as f:
                    json.dump(base, f)
            with open(cur_path, "w") as f:
                if raw_cur is not None:
                    f.write(raw_cur)
                else:
                    json.dump(cur, f)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([base_path, cur_path] + argv_tail)
            if code != expected_exit:
                failures.append(f"{label}: exit {code}, expected "
                                f"{expected_exit}\n{out.getvalue()}"
                                f"{err.getvalue()}")
            elif want_stderr and want_stderr not in err.getvalue():
                failures.append(f"{label}: stderr missing {want_stderr!r}:\n"
                                f"{err.getvalue()}")

    steady = doc(BM_WorkerLoop=100.0, BM_Other=50.0)
    regressed_hot = doc(BM_WorkerLoop=200.0, BM_Other=50.0)
    regressed_cold = doc(BM_WorkerLoop=100.0, BM_Other=500.0)

    check("identical passes", 0, ["--fail-above", "10", "--hot",
          "BM_WorkerLoop"], base=steady, cur=steady)
    check("hot regression fails", 1, ["--fail-above", "10", "--hot",
          "BM_WorkerLoop"], base=steady, cur=regressed_hot)
    check("cold regression is report-only", 0, ["--fail-above", "10",
          "--hot", "BM_WorkerLoop"], base=steady, cur=regressed_cold)
    check("zero-match hot fails naming the pattern", 1,
          ["--fail-above", "10", "--hot", "BM_Vanished"],
          base=steady, cur=steady, want_stderr="BM_Vanished")
    check("one dead alternative of many fails", 1,
          ["--fail-above", "10", "--hot", "BM_WorkerLoop|BM_Vanished"],
          base=steady, cur=steady, want_stderr="BM_Vanished")
    check("all alternatives alive passes", 0,
          ["--fail-above", "10", "--hot", "BM_WorkerLoop|BM_Other"],
          base=steady, cur=steady)
    check("grouped alternation is one alternative", 0,
          ["--fail-above", "10", "--hot", "BM_(WorkerLoop|Other)"],
          base=steady, cur=steady)
    check("zero-match hot fails even without a baseline", 1,
          ["--hot", "BM_Vanished"], base=None, cur=steady,
          want_stderr="BM_Vanished")
    check("missing baseline is a first run", 0, [], base=None, cur=steady)
    check("malformed current fails", 1, [], base=steady,
          raw_cur="not json", want_stderr="not valid JSON")

    split_cases = [
        ("a|b", ["a", "b"]),
        ("a(b|c)d", ["a(b|c)d"]),
        ("a[|]b", ["a[|]b"]),
        (r"a\|b", [r"a\|b"]),
        ("x|y(z|w)|v", ["x", "y(z|w)", "v"]),
    ]
    for pattern, want in split_cases:
        got_unmatched = unmatched_hot_alternatives(pattern, [])
        if got_unmatched != want:
            failures.append(f"split of {pattern!r}: {got_unmatched} != {want}")

    if failures:
        print("bench_compare --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_compare --self-test: "
          f"{len(split_cases) + 10} checks passed")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(main())
