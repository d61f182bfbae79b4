"""Statistics and trace helpers for the benchmark (pure functions, no I/O).

run.py turns the perfbench binary's raw document into metrics with these;
tests/test_benchlib.py pins their behaviour.
"""

import statistics
import struct

# Tail percentiles tried, highest first, by tail_percentile(). They stop at
# p95 so that a campaign reports the same percentile whether a run fits
# three passes or four.
TAIL_CANDIDATES = (95.0, 90.0)


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def geomean(values):
    """Geometric mean of positive values."""
    return statistics.geometric_mean(values)


def quartiles(values):
    """(q1, q2, q3) exactly as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def host_adjusted(ms, ref_ms, nominal_ms):
    """A time measured next to a host-speed reference of `ref_ms`, scaled to
    a host on which the reference takes `nominal_ms`."""
    if ref_ms <= 0:
        raise ValueError("reference time must be positive")
    return ms * nominal_ms / ref_ms


def percentile(values, p):
    """Linear-interpolated p-th percentile (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, candidates=TAIL_CANDIDATES, beyond=10):
    """The highest candidate percentile with at least `beyond` samples above
    it, as (p, value); None when even the lowest candidate has fewer."""
    for p in sorted(candidates, reverse=True):
        v = percentile(values, p)
        if sum(1 for x in values if x > v) >= beyond:
            return p, v
    return None


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that the union of its children covers. `spans` are dicts with id,
    parent, t0 and t1; returns {id: self_time}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                   for c in children.get(s["id"], [])]
        covered = [(a, b) for a, b in covered if b > a]
        out[s["id"]] = (s["t1"] - s["t0"]) - union_length(covered)
    return out


FNV_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def digest_fold(digests):
    """Order-sensitive 32-bit fold of 64-bit trial digests: FNV-1a over their
    little-endian bytes, high and low halves xor-ed. Exact as a JSON number,
    so it can be reported as a count."""
    h = FNV_BASIS
    for d in digests:
        for byte in struct.pack("<Q", d & 0xFFFFFFFFFFFFFFFF):
            h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return (h >> 32) ^ (h & 0xFFFFFFFF)
