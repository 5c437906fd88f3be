"""Interval algebra on the line, under one tolerance rule.

The lab's questions are interval covers.  The scan asks whether the record
intervals (||q||_beta, psi^{-1}(err)) cover (t_start, T], and a thickened
target is entered on a union of s-intervals (targets.witness_from_logs).
This module is the one home of the operations both need on lists of open
intervals (lo, hi): merge (union), complement within a window, intersect,
and the scan's sweep, which is complement-of-merge plus its near-ties.

One rule decides every drop, join and gap: a span from a to b counts as
empty when b - a <= 1e-12 * max(1, |x|), x the point of [a, b] nearest
zero.  That is lattice.boundary_tol at x, the band of every strict
inequality of the lab, and a span with one infinite end is never empty.
The loops write the band of (a, b) in plain float arithmetic,

    1e-12 * a if a > 1.0 else -1e-12 * b if b < -1.0 else 1e-12,

whose values are boundary_tol's: boundary_tol on floats costs ten times
as much, and a helper call per comparison doubles the cost of
merge_intervals, which is about a tenth of a thickened profile.
"""

from __future__ import annotations

import math

import numpy as np


def merge_intervals(intervals):
    """Union of open intervals as a sorted disjoint list.

    An interval the rule calls empty is dropped; a gap the rule calls empty
    is closed."""
    return _join(sorted(_kept(intervals)), None)


def _kept(intervals):
    """The intervals the rule does not call empty, in order."""
    return [
        (lo, hi) for lo, hi in intervals
        if hi - lo > (1e-12 * lo if lo > 1.0 else -1e-12 * hi if hi < -1.0 else 1e-12)
    ]


def _join(ivs, ties):
    """The union of a sorted list of non-empty intervals, as a sorted disjoint list.

    A start at or below the reach so far (the right end of the current run)
    plus the band joins the run.  With ties a list, the reach is appended to
    it whenever a start lands within the band of it, on either side.
    """
    if not ivs:
        return []
    out = []
    start, top = ivs[0]
    for lo, hi in ivs[1:]:
        tol = 1e-12 * top if top > 1.0 else -1e-12 * lo if lo < -1.0 else 1e-12
        if lo <= top + tol:
            if ties is not None and lo > top - tol:
                ties.append(top)
            if hi > top:
                top = hi
        else:
            out.append((start, top))
            start, top = lo, hi
    out.append((start, top))
    return out


def complement_within(intervals, lo: float, hi: float):
    """[lo, hi] minus a merged interval list, without the gaps the rule calls empty."""
    out = []
    cursor = lo
    for a, b in intervals:
        if b <= cursor:
            continue
        if a > hi:
            break
        if a - cursor > (1e-12 * cursor if cursor > 1.0 else -1e-12 * a if a < -1.0 else 1e-12):
            out.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if hi - cursor > (1e-12 * cursor if cursor > 1.0 else -1e-12 * hi if hi < -1.0 else 1e-12):
        out.append((cursor, hi))
    return out


def intersect_intervals(xs, ys):
    """Intersection of two merged interval lists, without the pieces the rule calls empty."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi - lo > (1e-12 * lo if lo > 1.0 else -1e-12 * hi if hi < -1.0 else 1e-12):
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def nonempty(lo, hi):
    """Mask of the array intervals (lo[i], hi[i]) the rule keeps: merge_intervals' drop test."""
    return hi - lo > 1e-12 * np.maximum(1.0, np.maximum(lo, -hi))


def sweep(intervals, t_start: float, T: float):
    """(uncovered, near_ties) of (t_start, T] under a union of open intervals.

    uncovered is complement_within(merge_intervals(intervals), t_start, T).
    near_ties lists, in order, the points of [t_start, T) where the
    tolerance, not the floats, decides whether the cover has a gap: the
    reach of the union wherever a start, or T, lands within the rule of it
    on either side, and the start (or the gap's start, if later) of every
    interval the rule drops inside a reported gap.  The scan reports them
    as ScanReport.boundary_points.
    """
    ties = []
    # a first run (-inf, t_start) makes t_start the reach the first starts
    # meet, and a last run (T, inf) makes T a start the last reach meets
    runs = [(-math.inf, t_start)] + _kept(intervals) + [(T, math.inf)]
    uncovered = complement_within(_join(sorted(runs), ties), t_start, T)
    for lo, hi in intervals if uncovered else ():
        if 0 < hi - lo <= (1e-12 * lo if lo > 1.0 else -1e-12 * hi if hi < -1.0 else 1e-12):
            ties += [max(lo, a) for a, b in uncovered if lo < b and hi > a]
    return uncovered, sorted(x for x in ties if x < T)


def endpoints_agree(xs, ys) -> bool:
    """Do two interval lists have as many intervals, with every endpoint
    within 1e-6 * max(1, |x|) of its counterpart?

    `check --oracle both` compares the scan's uncovered list with the cf
    oracle's by it.  At m = n = 1 both read one Euclid pass
    (exact2d.partial_quotients), so every endpoint is the same integer q_k
    or the same psi_inverse bisection, stopped at width 1e-12 * max(1, t),
    of one error read two ways: the cf oracle's exact quotient, and the
    scan's, which is exp-log above 2^53.  The readings differ in the last
    bits at most, which moves a bisection's stop by about its width: on
    1 600 random A (psi = 0.6/t, 0.9/t and log-drift, T up to 1e12) the
    largest relative gap was 9.8e-13, so 1e-6 holds with a wide margin.
    """
    return len(xs) == len(ys) and all(
        abs(a - b) <= 1e-6 * max(1.0, abs(a)) for x, y in zip(xs, ys) for a, b in zip(x, y)
    )
