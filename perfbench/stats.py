"""Arithmetic of the benchmark: medians, the tail rule, failure counting,
span self-time and coverage, and tracing overhead.

Kept free of I/O so test_stats.py can check every rule on hand-made data.
"""

import math
import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def geomean(values):
    """Geometric mean: the summary solver benchmarks use for run times,
    because one hard instance cannot dominate it."""
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, beyond, n). With n sorted samples the k-th
    smallest (1-based) has n - k samples beyond it, so the answer is the
    (n - TAIL_BEYOND)-th smallest, reported as percentile 100 * k / n.
    With n <= TAIL_BEYOND no percentile qualifies; the maximum is returned
    with beyond = 0, and the report says so.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0, n
    return ordered[k - 1], 100.0 * k / n, n - k, n


def count_failures(ops):
    """(attempted, failed) over operation records carrying an "ok" flag."""
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    return attempted, failed


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def duration(span):
    """A span with start < 0 carries only its duration in "end"."""
    if span["start"] < 0:
        return span["end"]
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its children cover (their union, clipped to the parent). Children that
    carry only a duration (solves taken from the attack's solve log) ran
    inside the parent one after another, so their durations are subtracted.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        own = duration(span)
        kids = children.get(span["id"], [])
        if span["start"] >= 0:
            clipped = [(max(k["start"], span["start"]), min(k["end"], span["end"]))
                       for k in kids if k["start"] >= 0]
            own -= _union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        own -= sum(k["end"] for k in kids if k["start"] < 0)
        result[span["id"]] = own
    return result


def coverage(spans, segments):
    """Share of the timed wall time (the union of `segments`, a list of
    (start, end)) that top-level spans cover."""
    wall = _union_length(segments)
    if wall <= 0:
        raise ValueError("no timed wall time")
    covered = []
    for span in spans:
        if span["parent"] != -1 or span["start"] < 0:
            continue
        for lo, hi in segments:
            a, b = max(span["start"], lo), min(span["end"], hi)
            if b > a:
                covered.append((a, b))
    return _union_length(covered) / wall


def overhead(traced, untraced):
    """Relative cost of tracing: traced over untraced time of the same work,
    minus one."""
    if untraced <= 0:
        raise ValueError("untraced time must be positive")
    return traced / untraced - 1.0

