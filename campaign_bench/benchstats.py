"""Arithmetic of the campaign benchmark, kept apart so it can be self-tested.

Everything here is pure: quartiles and medians of run samples, the
percentile reporting rule, span self times, the attribution identity, and
quantiles from the workers' log2 latency histograms. run.py does the I/O;
test_benchstats.py checks this file.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def percentile(values, p):
    """The p-quantile (0 < p < 1) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


PERCENTILES = (0.999, 0.99, 0.9)


def reportable_percentile(values):
    """The highest of PERCENTILES with at least ten samples beyond it.

    Returns (p, value), or None when even p90 has fewer than ten samples
    strictly above it.
    """
    for p in PERCENTILES:
        v = percentile(values, p)
        if sum(1 for x in values if x > v) >= 10:
            return (p, v)
    return None


def summarize(values):
    """Median, quartiles and sample count, plus a percentile when the rule
    allows one."""
    q1, med, q3 = quartiles(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3,
           "spread": spread(values)}
    rep = reportable_percentile(values)
    if rep is not None:
        out["p%g" % (rep[0] * 100)] = rep[1]
    return out


def worse_by(parent, child, better):
    """How much worse `child` is than `parent`, as a share of `parent`
    (negative when better)."""
    if parent == 0:
        return 0.0 if child == parent else float("inf")
    delta = (child - parent) / abs(parent)
    return delta if better == "lower" else -delta


# --- spans ---------------------------------------------------------------------


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover.

    `spans` is a list of dicts with id, parent, start and end; the result maps
    span id to self time.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = union_length(children.get(s["id"], []), s["start"], s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_breakdown(spans, glue=("replay", "exp")):
    """Per-name self-time totals and call counts, plus the root wall.

    Spans named in `glue` are structure, not layers: their self time is the
    unattributed share. Returns (by_name, wall, unattributed) where by_name
    maps name -> {"self": total self time, "count": calls}, wall is the
    root span's duration and unattributed is wall minus the layers' self
    times.
    """
    roots = [s for s in spans if s["parent"] == -1]
    if len(roots) != 1:
        raise ValueError("expected one root span, got %d" % len(roots))
    wall = roots[0]["end"] - roots[0]["start"]
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        slot = by_name.setdefault(s["name"], {"self": 0, "count": 0})
        slot["self"] += selfs[s["id"]]
        slot["count"] += 1
    attributed = sum(v["self"] for k, v in by_name.items() if k not in glue)
    return by_name, wall, wall - attributed


# --- worker latency histograms ------------------------------------------------------


def histogram_quantile_us(buckets, q):
    """q-quantile of a log2 latency histogram (bucket b counts latencies in
    [2^b, 2^(b+1)) us; bucket 0 also holds 0), interpolated linearly inside
    the bucket that holds the rank. 0 when empty."""
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for b, count in enumerate(buckets):
        if count and seen + count >= rank:
            lo = 0.0 if b == 0 else float(2 ** b)
            hi = float(2 ** (b + 1))
            return lo + (hi - lo) * max(rank - seen, 0.0) / count
        seen += count
    return float(2 ** len(buckets))
