"""Target sets on the space of lattices and exact membership tests.

Four families at radius r:

    sub          no nonzero point in the open cube (-e^-r, e^-r)^d
    primed       sub, and additionally a point in the slab near e_1
    thick        some s in [0,1)   has g_s L in sub(r)
    thick_primed some s in [0,1/2) has g_s L in primed(r)

Thickened membership is decided without any s-grid: every candidate vector
contributes one s-interval per condition (each flowed coordinate is
monotone in s, so endpoints solve in closed form), and the interval sets
are combined exactly (complement-of-union for cube avoidance, union for
slab hitting) by the interval algebra of `intervals`, under its one
tolerance rule.  `witness_from_logs` is the one copy of those formulas: an
array kernel over an (N, d) array of log-moduli, each row tagged with the
query that owns it, so one call answers every (kind, r) of a pass of
lattices.  Since it reads nothing but log-moduli, the float path here
(math.log of the float coordinates) and the exact d = 2 engine in exact2d
(logs of exact integers, every window of an orbit in one call) share it.

`membership_profiles` enumerates each lattice at most once and reads every
(kind, r) off that one point set: the cubes, slabs and thickening windows
are all nested in one enumerated box (`_candidate_box`: each base target's
bounds, a contracting coordinate's widened by the flow over its window).
It answers a list of lattices as
one table of `profile_keys` columns by lattice rows, as exact2d's d = 2
table does, a pass at a time (`lattice.lattices_per_pass`), each pass
with batched enumerations of all its lattices; `membership_profile` reads
its row 0, and `thickened_hits` answers one thickened target per lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intervals import complement_within, intersect_intervals, merge_intervals, nonempty
from .lattice import (
    Box,
    UnimodularLattice,
    WeightPair,
    enumerate_in_box,
    enumerate_in_box_batch,
    has_nonzero_point_batch,
    lattices_per_pass,
    r_box,
)

KIND_SUB = "sub"
KIND_PRIMED = "primed"
KIND_THICK = "thick"
KIND_THICK_PRIMED = "thick_primed"
_KINDS = (KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED)

_WINDOWS = {KIND_THICK: 1.0, KIND_THICK_PRIMED: 0.5}

# lattice points one lattice may have in an enumerated box before CapExceeded.
# The enumeration's guard counts the rows of the box's circumscribed ball; at
# d >= 3 the thickened targets enumerate _candidate_box, whose ball is smaller
# than the e^window cube's, so a degenerate lattice that once raised may answer.
_CAP = 500_000


def check_radius(r: float) -> None:
    """A target radius lies in (0, 1); anything else raises ValidationError."""
    if not 0.0 < r < 1.0:
        raise ValidationError("target radius must lie in (0,1)")


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    r: float
    weights: WeightPair | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown target kind {self.kind!r}")
        check_radius(self.r)
        if self.thick and self.weights is None:
            raise ValidationError(f"{self.kind} targets need a WeightPair")

    @property
    def thick(self) -> bool:
        return self.kind in _WINDOWS

    @property
    def window(self) -> float:
        return _WINDOWS[self.kind]

    @property
    def base_kind(self) -> str:
        return KIND_PRIMED if self.kind == KIND_THICK_PRIMED else KIND_SUB


def witness_from_logs(logs, slab_ok, owner, queries, w: WeightPair, rows=None):
    """s-subsets of [lo, hi] on which g_s L lies in each query's base target.

    One row per candidate point v: logs[p, j] = log|v_j| (an (P, d) array,
    -inf where v_j = 0), and slab_ok[p] says whether v, up to sign, can
    reach the slab near +e_1.  Entry i makes point rows[i] (point i when
    rows is None) a candidate of query owner[i].  A query is (r, primed,
    lo, hi).  Each flowed coordinate e^{alpha_i s}|v_i| or e^{-beta_j s}|v_j|
    is monotone in s, so every candidate's cube-entry and slab-entry
    s-intervals solve in closed form, one column at a time over all rows;
    L avoids the cube off the union of the former and, for primed queries,
    hits the slab on the union of the latter.  Cube-entry endpoints depend
    on the point and r alone, so they are computed once per (point, r) and
    shared by every query at that r.  Returns one interval list per query.
    """
    if not queries:
        return []
    m, alpha, beta = w.m, w.alpha, w.beta
    owner = np.asarray(owner, dtype=np.intp)
    rows = np.arange(owner.size) if rows is None else np.asarray(rows, dtype=np.intp)
    radii = [query[0] for query in queries]
    # cube entry, once per (point, r): every |v_i| e^{alpha_i s} and |v_j| e^{-beta_j s} below e^-r
    levels = sorted(set(radii))
    level = {radius: k for k, radius in enumerate(levels)}
    key = rows * len(levels) + np.array([level[radius] for radius in radii], dtype=np.intp)[owner]
    used = np.zeros(logs.shape[0] * len(levels), dtype=bool)
    used[key] = True
    pairs = np.flatnonzero(used)  # the distinct (point, r), as point * len(levels) + level
    pair = np.cumsum(used)[key] - 1
    x, r = logs[pairs // len(levels)], np.array(levels)[pairs % len(levels)]
    s_hi = _fold([(-r - xi) / a for xi, a in zip(x[:, :m].T, alpha)], np.less)
    s_lo = _fold([(r + xj) / b for xj, b in zip(x[:, m:].T, beta)], np.greater)
    cube = _by_owner(owner, s_lo[pair], s_hi[pair], len(queries))
    # slab entry, on the slab_ok rows of primed queries: e^{alpha_0 s}|v_0| in
    # (1 - eps, 1 + eps) and every other flowed coordinate below sqrt r
    slab_rows = slab_ok[rows] & np.array([query[1] for query in queries], dtype=bool)[owner]
    x, own = logs[rows[slab_rows]], owner[slab_rows]
    eps = [radius / (2 * (m + w.n)) for radius in radii]
    near = np.array([math.log1p(-e) for e in eps])[own]
    far = np.array([math.log1p(e) for e in eps])[own]
    half_log_r = np.array([0.5 * math.log(radius) for radius in radii])[own]
    x0 = x[:, 0]
    s_hi = _fold(
        [(far - x0) / alpha[0]] + [(half_log_r - xi) / a for xi, a in zip(x[:, 1:m].T, alpha[1:])],
        np.less,
    )
    s_lo = _fold(
        [(near - x0) / alpha[0]] + [(xj - half_log_r) / b for xj, b in zip(x[:, m:].T, beta)],
        np.greater,
    )
    slab = _by_owner(own, s_lo, s_hi, len(queries))
    out = []
    for (_, primed, lo, hi), cube_hits, slab_hits in zip(queries, cube, slab):
        avoid = complement_within(merge_intervals(cube_hits), lo, hi)
        out.append(intersect_intervals(avoid, merge_intervals(slab_hits)) if primed else avoid)
    return out


def _fold(columns, better):
    """Elementwise running bound over columns of endpoints: the array form of
    `if better(t, s): s = t`, so each kept endpoint is the float the scalar
    loop keeps (np.minimum/np.maximum may pick the other zero of -0.0, 0.0)."""
    acc = columns[0]
    for t in columns[1:]:
        acc = np.where(better(t, acc), t, acc)
    return acc


def _by_owner(owner, s_lo, s_hi, count: int):
    """Each row's interval (s_lo, s_hi) that is not empty, listed under its owner."""
    keep = nonempty(s_lo, s_hi)
    groups = [[] for _ in range(count)]
    for o, lo, hi in zip(owner[keep].tolist(), s_lo[keep].tolist(), s_hi[keep].tolist()):
        groups[o].append((lo, hi))
    return groups


def _candidate_cube(window: float, d: int) -> Box:
    """Closed cube holding every vector that can enter a base target within the window.

    The flow over the window moves any coordinate by a factor at most
    e^window and every base-target bound is below 1 + r/2d.  Only
    in_target_grid_oracle enumerates it, so the oracle does not share
    _candidate_box with the path it checks.
    """
    return Box.closed_cube(math.exp(window) * (1.0 + 1e-9), d)


def _candidate_box(queries, w: WeightPair) -> Box:
    """Closed box holding every vector that can enter some query's base target over its window.

    A query (r, primed, 0, window) bounds each coordinate by its base
    target's bound b: b = e^-r for the cube and, when primed, b_0 = 1 + r/2d
    and b = sqrt r elsewhere for the slab.  Over s in [0, window) the flow
    only grows an expanding coordinate, so it must already lie below b_i,
    and shrinks a contracting one by at most e^{beta_j window}, so it lies
    below b_j e^{beta_j window}.  A window of 0 gives the open cube and
    r_box themselves.  The box is the union of these bounds times
    1 + 1e-9: a row outside it enters a base target only at some s at least
    about 1e-9 outside [0, window) (every weight is at most 1), far beyond
    the interval rule's 1e-12, so every interval list is the one the
    e^window cube's rows give.
    """
    d = w.m + w.n
    growth = np.concatenate([np.zeros(w.m), w.beta])
    half = np.zeros(d)
    for r, primed, _, window in queries:
        bounds = [np.full(d, math.exp(-r))]
        if primed:
            bounds.append(np.array([1.0 + r / (2 * d)] + [math.sqrt(r)] * (d - 1)))
        for b in bounds:
            half = np.maximum(half, b * np.exp(growth * window))
    half *= 1.0 + 1e-9
    return Box.closed_box(-half, half)


def _log_moduli(points):
    """(N, d) array of log|x| over the coordinates of points, -inf where x = 0.

    Taken by math.log, as the exact d = 2 engine takes its logs (np.log
    differs from it in the last bit on some inputs).
    """
    mags = np.abs(points)
    logs = np.full(mags.shape, -math.inf)
    nonzero = mags != 0.0
    logs[nonzero] = np.fromiter(map(math.log, mags[nonzero].tolist()), float)
    return logs


def _query(spec: TargetSpec):
    """The kernel query of a thickened spec: its base target over [0, window)."""
    return spec.r, spec.base_kind == KIND_PRIMED, 0.0, spec.window


def _check_weights(L: UnimodularLattice, w: WeightPair):
    if (w.m, w.n) != (L.dims.m, L.dims.n):
        raise ValidationError("target weights do not match lattice dims")


def thickened_witness_intervals(L: UnimodularLattice, spec: TargetSpec):
    """s-subsets of [0, window) on which g_s L lies in the base target:
    the N = 1 form of _witness_table."""
    w = spec.weights
    return _witness_table([L], [[spec]], w, _candidate_box([_query(spec)], w))[2][0][0]


def _witness_table(lattices, table, w: WeightPair, box: Box):
    """Interval lists of every thickened spec table[i][t] of lattice i.

    Every column t holds one kind.  The box, which holds the _candidate_box
    of every column, is enumerated for all the lattices at once, and a
    column's candidates are the rows inside its own box (the same rows, in
    the same order, as enumerating that box).  One kernel call answers the
    whole table, each (lattice, spec) a query.  Returns (points, owner,
    found): the enumerated points, the lattice of each, and found[i][t].
    """
    for L in lattices:
        _check_weights(L, w)
    points, owner = enumerate_in_box_batch(lattices, box, cap=_CAP)
    width = len(table[0])
    queries = [_query(spec) for specs in table for spec in specs]
    columns = [_candidate_box(set(queries[t::width]), w) for t in range(width)]
    # every point lies in the enumerated box (enumerate_in_box_batch applies the same test)
    inside = {box: np.arange(points.shape[0])}
    for column in set(columns) - set(inside):
        inside[column] = np.flatnonzero(column.contains_rows(points))
    rows = np.concatenate([inside[column] for column in columns])
    query = np.concatenate([owner[inside[column]] * width + t for t, column in enumerate(columns)])
    found = witness_from_logs(
        _log_moduli(points), points[:, 0] > 0.0, query, queries, w, rows,
    )
    return points, owner, [found[i : i + width] for i in range(0, len(found), width)]


def thickened_hits(lattices, kind: str, radii, w: WeightPair) -> list:
    """Membership of lattice i in the thickened target (kind, radii[i]), for every i.

    The passes hold lattices_per_pass lattices of the _candidate_box of
    every radius, and each enumerates the _candidate_box of its own radii
    (one _witness_table call); every answer equals in_target's.
    """
    if kind not in _WINDOWS:
        raise ValidationError(f"{kind!r} is not a thickened kind")
    specs = [TargetSpec(kind, float(r), w) for r in radii]
    hits = []
    if lattices:
        size = lattices_per_pass(_candidate_box({_query(spec) for spec in specs}, w))
        for start in range(0, len(lattices), size):
            part = specs[start : start + size]
            box = _candidate_box({_query(spec) for spec in part}, w)
            _, _, found = _witness_table(lattices[start : start + size], [[spec] for spec in part], w, box)
            hits += [bool(row[0]) for row in found]
    return hits


def profile_keys(kinds, r_values, w: WeightPair | None) -> list:
    """The keys (kind, r) of a membership table (this module's or exact2d's),
    kinds outer, without repeats, each validated as a TargetSpec."""
    r_values = list(r_values)
    specs = (TargetSpec(kind, r, w) for kind in kinds for r in r_values)
    return list(dict.fromkeys((spec.kind, spec.r) for spec in specs))


def membership_profiles(lattices, kinds, r_values, w: WeightPair | None):
    """Exact membership of every lattice of a list for every (kind, r), as one table.

    Returns the profile_keys and one bool row per lattice, one column per
    key.  The lattices are answered in passes of
    lattices_per_pass of the largest box a pass enumerates.  A pass makes
    batched enumerations, one point evaluation per enumerated block, one
    `contains_rows` pass per cube or slab over all of its rows, and at most
    one call of the s-interval kernel.  With a thickened kind, one
    `_candidate_box` of every thickened key and of every open cube and slab
    the other keys test is enumerated (`_witness_table`), and `sub`/`primed`
    are read off the same points.  Otherwise an
    early-exit probe of the smallest open cube e^-r_max comes first: a point
    there puts a lattice outside every sub(r) and primed(r).  The lattices
    with no point there take, for a single r, an early-exit probe of its
    slab, and for several r one enumeration of a closed cube holding every
    open cube and slab.  Every answer equals the single query's.
    """
    keys = profile_keys(kinds, r_values, w)
    hits = np.zeros((len(lattices), len(keys)), dtype=bool)
    if not lattices:
        return keys, hits
    d = lattices[0].d
    thick_cols = [col for col, (kind, _) in enumerate(keys) if kind in _WINDOWS]
    thick = [TargetSpec(*keys[col], w) for col in thick_cols]
    radii = list(dict.fromkeys(r for kind, r in keys if kind not in _WINDOWS))
    cubes = [Box.open_cube(math.exp(-r), d) for r in radii]
    slabs = [r_box(r, d) for r in radii] if any(kind == KIND_PRIMED for kind, _ in keys) else []
    size = len(lattices)
    if thick:
        # a window of 0 holds the open cube at r and, with slabs, r_box(r, d)
        tested = [(r, bool(slabs), 0.0, 0.0) for r in radii]
        candidates = _candidate_box([_query(spec) for spec in thick] + tested, w)
        size = lattices_per_pass(candidates)
    elif radii:
        half = max(abs(x) for box in cubes + slabs for x in box.lower + box.upper)
        cover = Box.closed_cube(half, d)  # holds every open cube and slab
        size = lattices_per_pass(cover)
    for start in range(0, len(lattices), size):
        part = lattices[start : start + size]
        n = len(part)
        rows = hits[start : start + n]
        points = owner = None
        if thick:
            points, owner, found = _witness_table(part, [thick] * n, w, candidates)
            rows[:, thick_cols] = [[bool(ivs) for ivs in row] for row in found]
        if radii:
            in_cube = np.zeros((len(radii), n), dtype=bool)  # some nonzero point in the open cube at r
            in_slab = np.zeros((len(radii), n), dtype=bool)  # some nonzero point in r_box(r, d)
            if points is None:
                probed = has_nonzero_point_batch(part, cubes[radii.index(max(radii))], cap=_CAP)
                in_cube[:, probed] = True  # the cube at r_max lies in every other
                rest = np.flatnonzero(~probed)
                if rest.size and len(radii) == 1 and slabs:
                    in_slab[0, rest] = has_nonzero_point_batch([part[i] for i in rest], slabs[0], cap=_CAP)
                elif rest.size and len(radii) > 1:
                    points, owner = enumerate_in_box_batch([part[i] for i in rest], cover, cap=_CAP)
                    owner = rest[owner]
            if points is not None:
                for hit, boxes in ((in_cube, cubes), (in_slab, slabs)):
                    for k, box in enumerate(boxes):
                        hit[k, owner[box.contains_rows(points)]] = True
            for col, (kind, r) in enumerate(keys):
                if kind in (KIND_SUB, KIND_PRIMED):
                    k = radii.index(r)
                    rows[:, col] = ~in_cube[k] & (in_slab[k] if kind == KIND_PRIMED else True)
    return keys, hits


def membership_profile(L: UnimodularLattice, kinds, r_values, w: WeightPair | None) -> dict:
    """Exact membership of L for every (kind, r): row 0 of membership_profiles."""
    keys, hits = membership_profiles([L], kinds, r_values, w)
    return dict(zip(keys, hits[0].tolist()))


def in_target(L: UnimodularLattice, spec: TargetSpec) -> bool:
    """Exact membership of L in the target set."""
    return membership_profile(L, [spec.kind], [spec.r], spec.weights)[(spec.kind, spec.r)]


def in_target_grid_oracle(L: UnimodularLattice, spec: TargetSpec, step: float = 1e-4) -> bool:
    """Dense s-grid re-derivation of thickened membership (test oracle).

    Checks the base target directly at each grid point via flowed
    coordinates of the same candidate list; no interval arithmetic.
    """
    if not spec.thick:
        return in_target(L, spec)
    w = spec.weights
    _check_weights(L, w)
    window = spec.window
    candidates = enumerate_in_box(L, _candidate_cube(window, L.d), cap=_CAP)
    grid = np.arange(0.0, window, step)
    if candidates.shape[0] == 0:
        return spec.base_kind == KIND_SUB
    exps = np.array(list(w.alpha) + [-b for b in w.beta])
    # flowed[i, k, :] = coordinates of g_{s_k} v_i
    flowed = candidates[:, None, :] * np.exp(exps[None, None, :] * grid[None, :, None])
    cube_bound = math.exp(-spec.r)
    in_cube = np.all(np.abs(flowed) < cube_bound, axis=2)
    ok = ~np.any(in_cube, axis=0)
    if spec.base_kind == KIND_PRIMED:
        d = L.d
        eps = spec.r / (2 * d)
        root = math.sqrt(spec.r)
        in_slab = (np.abs(flowed[:, :, 0] - 1.0) < eps) & np.all(
            np.abs(flowed[:, :, 1:]) < root, axis=2
        )
        ok &= np.any(in_slab, axis=0)
    return bool(np.any(ok))
