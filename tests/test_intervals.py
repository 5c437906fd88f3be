"""The interval algebra's one tolerance rule, and its one home.

Every drop, join and gap of `intervals` (merge, complement, intersect, the
scan's sweep) and the cf oracle's block merge follow one rule: a span from
a to b is empty when b - a <= boundary_tol(x), x the point of [a, b]
nearest zero.
"""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from dirichlet_lab import cf, dirichlet, exact2d, intervals, targets
from dirichlet_lab.approx import ConstantRatio
from dirichlet_lab.intervals import (
    complement_within,
    endpoints_agree,
    intersect_intervals,
    merge_intervals,
    nonempty,
    sweep,
)
from dirichlet_lab.lattice import boundary_tol

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MAGNITUDES = [0.5, 100.0, 1e9]
FACTORS = {0.5: True, 2.0: False}  # gap as a multiple of the rule -> closed?


def _rule(x):
    return float(boundary_tol(x))


def _gap_at(x, factor):
    """(x, y): a gap from x of factor times the rule at x, as floats."""
    return x, x + factor * _rule(x)


@pytest.mark.parametrize("x", MAGNITUDES)
@pytest.mark.parametrize("factor", sorted(FACTORS))
def test_one_rule_closes_half_a_band_and_keeps_twice_open(x, factor):
    closed = FACTORS[factor]
    a, b = _gap_at(x, factor)
    left, right = (a - 1.0, a), (b, b + 1.0)
    assert merge_intervals([right, left]) == ([(a - 1.0, b + 1.0)] if closed else [left, right])
    assert complement_within([left, right], a - 1.0, b + 1.0) == ([] if closed else [(a, b)])
    # a window starting at x, and one ending at y
    assert complement_within([right], a, b + 1.0) == ([] if closed else [(a, b)])
    assert complement_within([left], a - 1.0, b) == ([] if closed else [(a, b)])
    # an interval of that length is dropped or kept
    assert merge_intervals([(a, b)]) == ([] if closed else [(a, b)])
    assert intersect_intervals([(a - 1.0, b)], [(a, b + 1.0)]) == ([] if closed else [(a, b)])
    assert nonempty(np.array([a]), np.array([b])).tolist() == [not closed]
    uncovered, ties = sweep([left, right], a - 0.5, b + 0.5)
    assert uncovered == ([] if closed else [(a, b)])
    assert ties == ([a] if closed else [])


@pytest.mark.parametrize("alpha", [0.4, 0.01, 1e-9])
@pytest.mark.parametrize("factor", sorted(FACTORS))
def test_the_cf_block_merge_follows_the_rule(alpha, factor, monkeypatch):
    # Block 0 is (t0, q_1], wholly uncovered; block 1 starts a gap after q_1.
    # The blocks end at convergent denominators: q_1 = 2, 100 and 999999999.
    q1 = cf.cf_expand(alpha, 3).convergents[1][1]
    a, b = _gap_at(float(q1), factor)
    first = alpha  # errs[0] = |1 * alpha - 0|
    monkeypatch.setattr(cf, "psi_inverse", lambda psi, err, lo, cap: lo if err == first else b)
    psi = ConstantRatio(0.5, t0=1.5)
    out = cf.cf_uncovered_intervals(alpha, psi, q1 + 1.0)
    assert out == ([(1.5, q1 + 1.0)] if FACTORS[factor] else [(1.5, a), (b, q1 + 1.0)])


@pytest.mark.parametrize("x", MAGNITUDES + [0.0, 1.0, 3.7])
def test_the_inline_rule_is_boundary_tol_to_the_bit(x):
    # a gap of exactly the band joins, the next float above stays open
    edge = x + _rule(x)
    past = float(np.nextafter(edge, math.inf))
    assert merge_intervals([(x - 1.0, x), (edge, edge + 1.0)]) == [(x - 1.0, edge + 1.0)]
    assert len(merge_intervals([(x - 1.0, x), (past, past + 1.0)])) == 2


def test_a_span_with_an_infinite_end_is_never_empty():
    assert merge_intervals([(-math.inf, 0.3), (0.7, math.inf)]) == [(-math.inf, 0.3), (0.7, math.inf)]
    assert nonempty(np.array([-math.inf, 5.0]), np.array([-4.0, math.inf])).tolist() == [True, True]


def _random_lists(seed, count):
    """Interval lists at one magnitude each, with ends on a coarse grid (so
    exact ties occur) nudged by 0, 1/2 or 2 bands (so near-ties occur)."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = rng.choice(MAGNITUDES)
        ivs = []
        for _ in range(rng.randint(0, 12)):
            lo = scale * rng.randint(0, 40) / 8.0
            hi = lo + scale * rng.randint(-2, 12) / 8.0
            hi += rng.choice([0.0, 0.5, 2.0, -0.5]) * _rule(hi)
            ivs.append((lo, hi))
        t_start = scale * rng.randint(0, 20) / 8.0
        yield ivs, t_start, t_start + scale * rng.randint(1, 30) / 8.0


def test_sweep_is_the_complement_of_the_merge():
    for ivs, t_start, T in _random_lists(0, 3000):
        uncovered, ties = sweep(ivs, t_start, T)
        assert uncovered == complement_within(merge_intervals(ivs), t_start, T), (ivs, t_start, T)
        assert ties == sorted(ties) and all(t_start <= t < T for t in ties)


def _parent_sweep(ivs, t_start, T, rel=1e-11):
    """The scan's sweep as it stood before the interval module, at its own
    1e-11 tolerance: the reference for the near-ties."""
    uncovered, boundary = [], []
    reach = t_start
    for l, r in sorted(ivs):
        if r <= l or l >= T:
            continue
        tol = rel * max(1.0, abs(reach))
        if l > reach + tol:
            uncovered.append((reach, min(l, T)))
            reach = l
        elif l > reach - tol:
            boundary.append(reach)
        if r > reach:
            reach = r
        if reach >= T:
            break
    if reach < T - rel * max(1.0, T):
        uncovered.append((reach, T))
    return uncovered, boundary


def test_sweep_near_ties_match_the_parent_sweep_where_the_tolerances_agree():
    # ends on a grid: every gap or overlap is 0 or at least one grid step,
    # so 1e-11 and the rule decide alike; exact ties are the near-ties
    rng = random.Random(1)
    seen = 0
    for _ in range(3000):
        scale = rng.choice(MAGNITUDES)
        ivs = []
        for _ in range(rng.randint(0, 12)):
            lo = rng.randint(0, 40)
            ivs.append((scale * lo / 8.0, scale * (lo + rng.randint(1, 12)) / 8.0))
        t_start = scale * rng.randint(0, 20) / 8.0
        T = t_start + scale * rng.randint(1, 30) / 8.0
        got = sweep(ivs, t_start, T)
        assert got == _parent_sweep(ivs, t_start, T), (ivs, t_start, T)
        seen += bool(got[1])
    assert seen > 100


def test_sweep_lists_the_last_gap_the_rule_closes():
    # (10 - 5e-12, 10] is shorter than the band at 10: closed, and a near-tie
    assert sweep([(0.0, 10.0 - 5e-12)], 0.0, 10.0) == ([], [0.0, 10.0 - 5e-12])
    # twice the band stays open; a reach of exactly T leaves no gap to decide
    assert sweep([(0.0, 10.0 - 2e-11)], 0.0, 10.0) == ([(10.0 - 2e-11, 10.0)], [0.0])
    assert sweep([(0.0, 10.0)], 0.0, 10.0) == ([], [0.0])


def test_sweep_lists_an_interval_the_rule_drops_inside_a_gap():
    dropped = (5 + 3e-12, 5 + 6e-12)  # shorter than the band at 5
    assert sweep([(0, 5), dropped, (5 + 9e-12, 10)], 0, 10) == ([(5, 5 + 9e-12)], [0, 5 + 3e-12])
    # one that the cover holds decides nothing
    assert sweep([(0, 10), dropped], 0, 10) == ([], [0])


def test_endpoints_agree_within_a_millionth():
    xs = [(10.0, 20.0), (1e6, 2e6)]
    assert endpoints_agree(xs, [(10.0 + 5e-6, 20.0), (1e6 + 0.5, 2e6)])
    assert not endpoints_agree(xs, [(10.0 + 2e-5, 20.0), (1e6, 2e6)])
    assert not endpoints_agree(xs, xs[:1])


def _traced_interval_names() -> set:
    """module.name of every perfbench TARGETS row timed as interval algebra."""
    for node in ast.parse(_TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            rows = [[elt.value for elt in row.elts[:4]] for row in node.value.elts]
            return {
                f"{module}.{name}" for module, name, _, metric in rows
                if metric.endswith(".intervals") or name == "_sweep"
            }
    raise AssertionError("perfbench/tracing.py has no TARGETS list")


HOMES = {
    "targets.merge_intervals": intervals.merge_intervals,
    "targets.complement_within": intervals.complement_within,
    "targets.intersect_intervals": intervals.intersect_intervals,
    "exact2d._merge": intervals.merge_intervals,
    "exact2d._complement": intervals.complement_within,
    "exact2d._intersect": intervals.intersect_intervals,
    "dirichlet._sweep": intervals.sweep,
}


def test_every_traced_interval_name_is_the_interval_module_function():
    assert _traced_interval_names() == set(HOMES)
    modules = {"targets": targets, "exact2d": exact2d, "dirichlet": dirichlet}
    for name, home in HOMES.items():
        module, attr = name.split(".")
        assert getattr(modules[module], attr) is home, name
    assert cf.merge_intervals is intervals.merge_intervals
