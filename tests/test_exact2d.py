import math

import numpy as np
import pytest

from dirichlet_lab.errors import BudgetExceeded, CapExceeded
from dirichlet_lab.exact2d import Exact2D, log_int
from dirichlet_lab.lattice import WeightPair, apply_flow, delta, lattice_from_matrix
from dirichlet_lab.rng import sample_torus_fixedpoint, substream
from dirichlet_lab.targets import (
    KIND_PRIMED,
    KIND_SUB,
    KIND_THICK,
    KIND_THICK_PRIMED,
    _WINDOWS,
    TargetSpec,
    complement_within,
    in_target,
    intersect_intervals,
    merge_intervals,
)

W11 = WeightPair.unweighted(1, 1)


def test_log_int_small_and_huge():
    assert log_int(8) == pytest.approx(math.log(8.0), abs=1e-15)
    n = 3**500
    assert log_int(n) == pytest.approx(500 * math.log(3.0), rel=1e-14)


def test_fold_exact():
    ex = Exact2D(3, 8)  # A = 3/8
    # dist(q * 3/8) over q = 1..8: 3/8 -> 3, 6/8 -> 2, 9/8 -> 1, 12/8 -> 4 ...
    assert [ex.fold(q) for q in range(1, 9)] == [3, 2, 1, 4, 1, 2, 3, 0]


def test_delta_flowed_matches_float_path():
    rng = substream(10, "x2d", 0)
    for i in range(40):
        a = float(rng.random())
        ex = Exact2D.from_float(a)
        sigma = float(rng.uniform(0.0, 8.0))
        L = apply_flow(lattice_from_matrix([[a]]), sigma, W11)
        assert ex.delta_flowed(sigma) == pytest.approx(delta(L), abs=1e-9)


def test_delta_flowed_zero_matrix():
    ex = Exact2D(0, 1)
    for sigma in (0.0, 1.0, 2.5):
        assert ex.delta_flowed(sigma) == pytest.approx(sigma, abs=1e-12)


def test_sub_and_primed_match_float_path():
    rng = substream(11, "x2d", 1)
    agree = 0
    for i in range(60):
        a = float(rng.random())
        ex = Exact2D.from_float(a)
        sigma = float(rng.uniform(0.0, 5.0))
        r = float(rng.uniform(0.05, 0.6))
        L = apply_flow(lattice_from_matrix([[a]]), sigma, W11)
        d = ex.delta_flowed(sigma)
        if abs(d - r) < 1e-6:
            continue  # boundary case, excluded by policy
        assert ex.in_sub(sigma, r) == in_target(L, TargetSpec(KIND_SUB, r))
        assert ex.in_primed(sigma, r) == in_target(L, TargetSpec(KIND_PRIMED, r))
        agree += 1
    assert agree >= 50


def test_thick_membership_matches_float_path():
    rng = substream(12, "x2d", 2)
    checked = 0
    for i in range(50):
        a = float(rng.random())
        ex = Exact2D.from_float(a)
        k = float(rng.uniform(0.0, 4.0))
        r = float(rng.uniform(0.05, 0.5))
        L = apply_flow(lattice_from_matrix([[a]]), k, W11)
        for kind, window, primed in (
            (KIND_THICK, 1.0, False),
            (KIND_THICK_PRIMED, 0.5, True),
        ):
            spec = TargetSpec(kind, r, weights=W11)
            ivs = ex.witness_intervals(k, window, r, primed)
            # skip boundary-thin answers per the tolerance policy
            if ivs and sum(b - a2 for a2, b in ivs) < 1e-6:
                continue
            assert ex.hits_thick(k, window, r, primed) == in_target(L, spec)
            checked += 1
    assert checked >= 80


def test_thick_membership_grid_oracle_deep_flow():
    # far beyond float range: check interval analysis against a dense
    # sigma-grid recomputation with exact primitives
    num, den = sample_torus_fixedpoint(substream(13, "x2d", 3), 1, 1, bits=192)
    ex = Exact2D(num[0][0], den)
    for k in (40.0, 90.0):
        for r in (0.05, 0.2):
            ivs = ex.witness_intervals(k, 0.5, r, primed=True)
            hit = bool(ivs)
            grid = np.arange(k, k + 0.5, 1e-3)
            endpoints = [e for iv in ivs for e in iv]
            oracle_hits = []
            for s in grid:
                if any(abs(s - e) < 1e-3 for e in endpoints):
                    continue  # boundary band
                oracle_hits.append(ex.in_primed(float(s), r))
            assert any(oracle_hits) == hit


def test_membership_profile_matches_single_queries():
    # the measure-d2 grid: 8 radii geometric on [0.02, 0.2]
    r_values = [float(r) for r in np.geomspace(0.02, 0.2, 8)]
    kinds = [KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED]
    seen = {kind: set() for kind in kinds}
    for bits in (64, 192):
        for i in range(12):
            num, den = sample_torus_fixedpoint(substream(15, "x2d-profile", i), 1, 1, bits)
            ex = Exact2D(num[0][0], den)
            for sigma in (5.0, 10.0, 40.0):
                profile = ex.membership_profile(sigma, kinds, r_values)
                assert list(profile) == [(kind, r) for kind in kinds for r in r_values]
                for r in r_values:
                    assert profile[(KIND_SUB, r)] == ex.in_sub(sigma, r)
                    assert profile[(KIND_PRIMED, r)] == ex.in_primed(sigma, r)
                    for kind in (KIND_THICK, KIND_THICK_PRIMED):
                        single = ex.hits_thick(sigma, _WINDOWS[kind], r, kind == KIND_THICK_PRIMED)
                        assert profile[(kind, r)] == single
                for key, hit in profile.items():
                    seen[key[0]].add(hit)
    assert all(values == {False, True} for values in seen.values())


def test_orbit_escapes_for_low_precision_rational():
    # A with a 16-bit denominator looks rational past k ~ 11: orbit leaves
    # every sub target
    ex = Exact2D(12345, 1 << 16)
    assert all(not ex.in_sub(float(k), 0.5) for k in range(13, 30))


def test_sigma_guard():
    ex = Exact2D(3, 8)
    with pytest.raises(BudgetExceeded):
        ex.delta_flowed(300.0)


def test_deep_flow_delta_sanity():
    # 512-bit torus point: orbit stays generic out to k ~ 350; delta grows
    # roughly like the record gaps, far below the rational blowup
    num, den = sample_torus_fixedpoint(substream(14, "x2d", 4), 1, 1, bits=512)
    ex = Exact2D(num[0][0], den)
    d100 = ex.delta_flowed(100.0)
    assert 0.0 <= d100 < 20.0
    d200 = ex.delta_flowed(200.0)
    assert 0.0 <= d200 < 25.0


def _witness_intervals_reference(ex, k, window, r, primed):
    """Exact2D.witness_intervals as it was before the shared s-interval kernel:
    a Delta probe at both window ends, then one box for the cube and one for
    the slab, each with its own closed-form endpoints."""
    lo, hi = float(k), float(k) + float(window)
    if max(ex.delta_flowed(lo), ex.delta_flowed(hi)) - window > r + 1e-9:
        return []
    n_max = ex._n_threshold(-lo - r)
    q_max = int(math.exp(min(hi - r, 700.0)) * (1 + 1e-9)) + 1
    cube_ivs = []
    for n, q in ex._box_points(n_max, q_max):
        s_hi = math.inf if n == 0 else -r - (log_int(abs(n)) - ex.log_den)
        s_lo = -math.inf if q == 0 else r + log_int(abs(q))
        if s_hi - s_lo > 1e-12:
            cube_ivs.append((s_lo, s_hi))
    avoid = complement_within(merge_intervals(cube_ivs), lo, hi)
    if not primed:
        return avoid
    eps = r / 4.0
    half_log_r = 0.5 * math.log(r)
    n_hi = ex._n_threshold(-lo + math.log1p(eps))
    q_max = int(math.sqrt(r) * math.exp(min(hi, 700.0)) * (1 + 1e-9)) + 1
    slab_ivs = []
    for n, q in ex._box_points(n_hi, q_max):
        if n == 0:
            continue
        base = ex.log_den - log_int(abs(n))
        s_lo = base + math.log1p(-eps)
        s_hi = base + math.log1p(eps)
        if q != 0:
            s_lo = max(s_lo, log_int(abs(q)) - half_log_r)
        if s_hi - s_lo > 1e-12:
            slab_ivs.append((s_lo, s_hi))
    return intersect_intervals(avoid, merge_intervals(slab_ivs))


def test_witness_intervals_match_two_box_reference():
    nonempty = 0
    for bits in (64, 192, 256):
        for i in range(3):
            num, den = sample_torus_fixedpoint(substream(16, f"x2d-witness-{bits}", i), 1, 1, bits)
            ex, ex_ref = Exact2D(num[0][0], den), Exact2D(num[0][0], den)
            for k in range(0, 101, 4):
                for r in (0.01, 0.05, 0.2, 0.6):
                    for window in (1.0, 0.5):
                        for primed in (False, True):
                            got = ex.witness_intervals(float(k), window, r, primed)
                            want = _witness_intervals_reference(ex_ref, float(k), window, r, primed)
                            assert repr(got) == repr(want)
                            nonempty += bool(got)
    assert nonempty >= 300


def test_reduction_cap_raises():
    num, den = sample_torus_fixedpoint(substream(17, "x2d-cap", 0), 1, 1, bits=256)
    ex = Exact2D(num[0][0], den)
    with pytest.raises(CapExceeded):
        ex._reduced(50.0 - ex.log_den, -50.0, max_iter=1)
