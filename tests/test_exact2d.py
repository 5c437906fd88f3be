import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_lab.dirichlet import _records_walk
from dirichlet_lab.errors import BudgetExceeded, CapExceeded, ValidationError
from dirichlet_lab.exact2d import (
    Exact2D,
    _fractions,
    _in_slab,
    _lockstep_ladders,
    _slab_bounds,
    _slab_logs,
    log_int,
    membership_profiles,
)
from dirichlet_lab.lattice import WeightPair, apply_flow, delta, lattice_from_matrix
from dirichlet_lab.rng import sample_torus_fixedpoint, substream, torus_samples
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
    witness_from_logs,
)

W11 = WeightPair.unweighted(1, 1)


def test_log_int_small_and_huge():
    assert log_int(8) == pytest.approx(math.log(8.0), abs=1e-15)
    n = 3**500
    assert log_int(n) == pytest.approx(500 * math.log(3.0), rel=1e-14)


def test_of_reads_every_scalar_form_exactly():
    a = float(substream(22, "of", 0).random())
    num, den = a.as_integer_ratio()
    ex = Exact2D.of(a)
    assert (ex.num, ex.den) == (num, den)
    for form in (np.float64(a), np.array([[a]]), np.array(a), (num, den), (np.int64(num), den)):
        got = Exact2D.of(form)
        assert (got.num, got.den) == (num, den), form
    assert Exact2D.of(ex) is ex
    neg = Exact2D.of(-0.25)
    assert (neg.num, neg.den) == (3, 4)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.1, 0.2]]),
        np.zeros(0),
        (1, 2, 3),
        (1, 2.0),
        (1, 0),
        (1, -4),
        math.nan,
        math.inf,
        "0.5",
        None,
        [0.5],
        1j,
    ],
)
def test_of_rejects_everything_else(bad):
    with pytest.raises(ValidationError):
        Exact2D.of(bad)


def _fold(ex, q):
    """min_p |q num - p den|: the integer distance den * dist(qA, Z), by brute force."""
    rem = (q * ex.num) % ex.den
    return min(rem, ex.den - rem)


def _full_ladder(ex):
    """ex's rungs with the Euclid step run to N = 0."""
    while ex._grow():
        pass
    return ex._points


def test_ladder_records_exact():
    ex = Exact2D(3, 8)  # A = 3/8
    # dist(q * 3/8) over q = 1..8: 3/8 -> 3, 6/8 -> 2, 9/8 -> 1, 12/8 -> 4 ...
    assert [_fold(ex, q) for q in range(1, 9)] == [3, 2, 1, 4, 1, 2, 3, 0]
    # ... so the strict records are the rungs of [0; 2, 1, 2]
    assert _records_walk(ex, 8) == [(1, 3), (2, 2), (3, 1), (8, 0)]


def test_delta_flowed_matches_float_path():
    rng = substream(10, "x2d", 0)
    for i in range(40):
        a = float(rng.random())
        ex = Exact2D.of(a)
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
        ex = Exact2D.of(a)
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
        ex = Exact2D.of(a)
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


def test_membership_profile_skips_slab_when_delta_exceeds_every_r():
    # A = 0.3 (55-bit den) at sigma = 50: the slab box holds ~e^50 / den
    # points, past the enumeration cap, while Delta = 12.57 answers everything
    ex = Exact2D.of(0.3)
    assert ex.delta_flowed(50.0) > 12.0
    profile = ex.membership_profile(50.0, [KIND_SUB, KIND_PRIMED], [0.05, 0.2])
    assert not any(profile.values())
    with pytest.raises(CapExceeded):
        ex.slab_points(50.0, 0.2)


# 0, 1/2 (a den-2 ladder that reaches N = 0 before its key clears 2 sigma at
# sigma >= 1), the smallest and the largest 53-bit sample, 1/4, and two A
# whose den lies in (2^53, 2^62], where log_int shifts before its log
_EDGE_SAMPLES = [0.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, 0.25, 2.0**-55, 1e-3]


@pytest.mark.parametrize("sigma", [5.0, 10.0, 15.0])
def test_lockstep_delta_is_bit_equal_to_delta_flowed(sigma):
    samples = torus_samples(24, "lockstep", 0, 512, 1, 1).ravel().tolist() + _EDGE_SAMPLES
    exacts = [Exact2D.of(a) for a in samples]
    num = np.array([ex.num for ex in exacts], dtype=np.int64)
    den = np.array([ex.den for ex in exacts], dtype=np.int64)
    got = _lockstep_ladders(num, den, sigma)[0]
    want = np.array([Exact2D.of(a).delta_flowed(sigma) for a in samples])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # each edge sample alone, so it sets the chunk's ladder length itself
    for ex in exacts[-len(_EDGE_SAMPLES):]:
        one = _lockstep_ladders(np.array([ex.num]), np.array([ex.den]), sigma)[0]
        assert one.view(np.int64).tolist() == np.array([ex.delta_flowed(sigma)]).view(np.int64).tolist()


@pytest.mark.parametrize("shift", [-3.0, 3.0])
def test_lockstep_delta_does_not_depend_on_the_float_steer(monkeypatch, shift):
    # e^x read as e^{x + shift}: the rows stop growing and start their walk
    # e^shift away from the crossing; at -3 many rows run out of rungs and
    # fall back to their own Exact2D, at +3 every walk goes down several rungs
    samples = torus_samples(26, "lockstep", 0, 256, 1, 1).ravel().tolist() + _EDGE_SAMPLES
    exacts = [Exact2D.of(a) for a in samples]
    num = np.array([ex.num for ex in exacts], dtype=np.int64)
    den = np.array([ex.den for ex in exacts], dtype=np.int64)
    want = np.array([ex.delta_flowed(10.0) for ex in exacts])
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: exp(x + shift))
    got = _lockstep_ladders(num, den, 10.0)[0]
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_lockstep_delta_of_a_den_two_sample_reads_its_last_rung():
    ex = Exact2D.of(0.5)
    delta, R, Q, length, _ = _lockstep_ladders(np.array([1]), np.array([2]), 10.0)
    assert length.tolist() == [3] and R[:, 0].tolist() == [2, 1, 0] and Q[:, 0].tolist() == [0, 1, 2]
    assert ex._keys[1] < 20.0 and delta[0] == ex.delta_flowed(10.0) == 10.0 - math.log(2.0)


def test_membership_profiles_match_single_queries(monkeypatch):
    # a chunk of float samples, the edge samples and one 64-bit fixed-point
    # sample (den 2^64 > 2^62), read off one table against fresh single queries
    r_values = [float(r) for r in np.geomspace(0.02, 0.2, 8)]
    kinds = [KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED]
    num, den = sample_torus_fixedpoint(substream(25, "x2d-table", 0), 1, 1, bits=64)
    samples = torus_samples(25, "x2d-table", 0, 96, 1, 1).ravel().tolist() + _EDGE_SAMPLES
    samples.insert(40, (num[0][0], den))
    delta_flowed, calls = Exact2D.delta_flowed, []
    seen = {kind: set() for kind in kinds}
    for sigma in (5.0, 10.0):
        monkeypatch.setattr(
            Exact2D, "delta_flowed", lambda ex, s: calls.append((ex.num, ex.den, s)) or delta_flowed(ex, s)
        )
        keys, hits = membership_profiles(samples, sigma, kinds, r_values)
        # only the wide sample's Delta comes from its own Exact2D; the thickened
        # kinds' pre-filter asks every sample at the windows' midpoints
        assert [c for c in calls if c[2] == sigma] == [(num[0][0], den, sigma)]
        monkeypatch.setattr(Exact2D, "delta_flowed", delta_flowed)
        calls.clear()
        assert keys == [(kind, r) for kind in kinds for r in r_values]
        for a, row in zip(samples, hits.tolist()):
            ex = Exact2D.of(a)
            want = [ex.in_sub(sigma, r) for r in r_values] + [ex.in_primed(sigma, r) for r in r_values]
            want += [
                ex.hits_thick(sigma, _WINDOWS[kind], r, kind == KIND_THICK_PRIMED)
                for kind in (KIND_THICK, KIND_THICK_PRIMED)
                for r in r_values
            ]
            assert row == want, (a, sigma)
            for (kind, _), hit in zip(keys, row):
                seen[kind].add(hit)
    assert all(values == {False, True} for values in seen.values())


def test_a_float_chunk_reads_every_a_as_exact2d_of_does():
    values = [-0.25, 2.5, 3.0, -7.3, 1e300, 2.0**-60, 1e-5, 2.0**-1074, 0.1] + _EDGE_SAMPLES
    values += torus_samples(27, "fractions", 0, 64, 1, 1).ravel().tolist()
    exacts, num, den = _fractions(np.array(values).reshape(-1, 1, 1))
    for a, ex, n, d in zip(values, exacts, num.tolist(), den.tolist()):
        want = Exact2D.of(a)
        if want.den > 2**62:  # its own Exact2D, and A = 0 in the int64 rows
            assert (ex.num, ex.den, n, d) == (want.num, want.den, 0, 1), a
        else:
            assert ex is None and (n, d) == (want.num, want.den), a
    r_values = [0.05, 0.2]
    as_list = membership_profiles(values, 10.0, [KIND_SUB, KIND_PRIMED], r_values)[1]
    as_chunk = membership_profiles(np.array(values), 10.0, [KIND_SUB, KIND_PRIMED], r_values)[1]
    assert as_list.tolist() == as_chunk.tolist()
    for bad in (np.array([[0.1, 0.2]]), np.array([0.1, math.nan])):
        with pytest.raises(ValidationError):
            membership_profiles(bad, 10.0, [KIND_SUB], r_values)


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


def _box_of_window(ex, k, window, r, primed):
    """The candidate box Exact2D.witness_intervals_batch enumerates for one window."""
    lo, hi = float(k), float(k) + window
    if primed:
        n_max = ex._n_threshold(-lo + math.log1p(r / 4.0))
        q_log = hi + max(-r, 0.5 * math.log(r))
    else:
        n_max = ex._n_threshold(-lo - r)
        q_log = hi - r
    return ex._box_points(n_max, int(math.exp(min(q_log, 700.0)) * (1 + 1e-9)) + 1)


def test_witness_intervals_batch_equals_one_call_per_window():
    rng = substream(16, "x2d-witness-batch", 0)
    dropped = empty_box = 0
    for bits in (64, 192, 256):
        for i in range(3):
            num, den = sample_torus_fixedpoint(substream(16, f"x2d-witness-{bits}", i), 1, 1, bits)
            windows = [
                (float(k), window, r, primed)
                for k in range(0, 101, 4)
                for r in (0.01, 0.05, 0.2, 0.6)
                for window in (1.0, 0.5)
                for primed in (False, True)
            ]
            windows = [windows[j] for j in rng.permutation(len(windows))]
            got = Exact2D(num[0][0], den).witness_intervals_batch(windows)
            ex = Exact2D(num[0][0], den)
            assert repr(got) == repr([ex.witness_intervals(*query) for query in windows])
            for (k, window, r, primed), ivs in zip(windows, got):
                if ex.delta_flowed(k + 0.5 * window) - 0.5 * window > r + 1e-9:
                    dropped += 1
                    assert ivs == []  # the pre-filter's answer, not the whole window
                elif not _box_of_window(ex, k, window, r, primed):
                    empty_box += 1
                    assert ivs == ([] if primed else [(k, k + window)])
    assert dropped >= 100 and empty_box >= 20
    assert Exact2D(num[0][0], den).witness_intervals_batch([]) == []


def test_reduction_cap_raises():
    num, den = sample_torus_fixedpoint(substream(17, "x2d-cap", 0), 1, 1, bits=256)
    ex = Exact2D(num[0][0], den)
    with pytest.raises(CapExceeded):
        ex._reduced(50.0 - ex.log_den, -50.0, max_iter=1)


# -- the convergent ladder against the Gauss-reduction reference -------------

# The reference reductions below converge in at most a few dozen steps where
# they converge at all; on huge partial quotients the float steering spins,
# and a small cap makes it give up at once instead of after 100 000 steps.
_REFERENCE_MAX_ITER = 1_000


def _iter_box_points_reference(ex, n_max, q_max, coeff_cap=5_000_000):
    """Exact2D._iter_box_points before the ladder: a Gauss-reduced basis
    steered by float-scaled norms, and coefficient bounds with slack 2."""
    if n_max < 0 or q_max < 0:
        return
    wx_log = -log_int(n_max + 1) if n_max > 0 else 0.0
    wy_log = -log_int(q_max + 1) if q_max > 0 else 0.0
    b1, b2 = ex._reduced(wx_log, wy_log, _REFERENCE_MAX_ITER)
    adet = abs(b1[0] * b2[1] - b1[1] * b2[0])
    c1_hi = (n_max * abs(b2[1]) + q_max * abs(b2[0])) // adet + 2
    c2_hi = (n_max * abs(b1[1]) + q_max * abs(b1[0])) // adet + 2
    if (2 * c1_hi + 1) * (2 * c2_hi + 1) > coeff_cap:
        raise CapExceeded("coefficient ranges exceed enumeration cap")
    for c1 in range(-c1_hi, c1_hi + 1):
        for c2 in range(-c2_hi, c2_hi + 1):
            n = c1 * b1[0] + c2 * b2[0]
            q = c1 * b1[1] + c2 * b2[1]
            if q < 0 or (q == 0 and n <= 0):
                continue
            if abs(n) <= n_max and q <= q_max:
                yield n, q


def _box_points_reference(ex, n_max, q_max, cap=4096):
    out = []
    for pt in _iter_box_points_reference(ex, n_max, q_max):
        out.append(pt)
        if len(out) > cap:
            raise CapExceeded("box enumeration cap exceeded")
    return out


def _delta_flowed_reference(ex, sigma):
    """Exact2D.delta_flowed before the ladder: reduce, bound by four small
    combinations, then scan the box below the bound."""
    b1, b2 = ex._reduced(sigma - ex.log_den, -sigma, _REFERENCE_MAX_ITER)
    cands = [b1, b2, (b1[0] + b2[0], b1[1] + b2[1]), (b1[0] - b2[0], b1[1] - b2[1])]
    bound = min(ex.flow_sup_log(b, sigma) for b in cands if b != (0, 0))
    n_max = ex._n_threshold(bound - sigma)
    q_max = int(math.exp(min(bound + sigma, 700.0)) * (1 + 1e-9)) + 1
    best = bound
    for pt in _box_points_reference(ex, n_max, q_max):
        best = min(best, ex.flow_sup_log(pt, sigma))
    return -best


def _slab_points_reference(ex, sigma, r):
    n_hi = ex._n_threshold(-sigma + math.log1p(r / 4.0))
    q_max = int(math.sqrt(r) * math.exp(min(sigma, 700.0)) * (1 + 1e-9)) + 1
    return [
        (n, q) if n > 0 else (-n, -q)
        for n, q in _box_points_reference(ex, n_hi, q_max)
        if _in_slab(_slab_logs(ex.log_den, n, q, sigma), _slab_bounds(r))
    ]


def _witness_intervals_ladder_free(ex, k, window, r, primed):
    """Exact2D.witness_intervals with the reference Delta and box."""
    lo, hi = float(k), float(k) + float(window)
    if _delta_flowed_reference(ex, lo + 0.5 * window) - 0.5 * window > r + 1e-9:
        return []
    if primed:
        n_max = ex._n_threshold(-lo + math.log1p(r / 4.0))
        q_log = hi + max(-r, 0.5 * math.log(r))
    else:
        n_max = ex._n_threshold(-lo - r)
        q_log = hi - r
    q_max = int(math.exp(min(q_log, 700.0)) * (1 + 1e-9)) + 1
    points = _box_points_reference(ex, n_max, q_max)
    logs = [
        (log_int(abs(n)) - ex.log_den if n else -math.inf, log_int(q) if q else -math.inf)
        for n, q in points
    ]
    return witness_from_logs(
        np.array(logs, dtype=float).reshape(-1, 2),
        np.array([n != 0 for n, _ in points], dtype=bool),
        np.zeros(len(points), dtype=np.intp),
        [(r, primed, lo, hi)],
        W11,
    )[0]


def _any_point_in_box_reference(ex, n_strict, q_max):
    if n_strict <= 0 or q_max < 1:
        return False
    return any(q >= 1 for _, q in _iter_box_points_reference(ex, n_strict - 1, q_max))


def _from_quotients(quotients):
    """(num, den) of [0; a_1, a_2, ...]."""
    p_prev, p, q_prev, q = 1, 0, 0, 1
    for a in quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


_DYADIC = st.sampled_from([53, 64, 192, 256]).flatmap(
    lambda bits: st.tuples(st.integers(1, (1 << bits) - 1), st.just(1 << bits))
)
# continued fractions mixing small and huge partial quotients
_QUOTIENTS = st.lists(
    st.one_of(st.integers(1, 6), st.integers(1 << 20, 1 << 64)), min_size=1, max_size=14
)


@settings(max_examples=60)
@given(
    st.one_of(_DYADIC, _QUOTIENTS.map(_from_quotients)),
    st.lists(st.floats(0.0, 120.0), min_size=1, max_size=3),
    st.sampled_from([0.01, 0.05, 0.2, 0.6]),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
def test_ladder_matches_gauss_reference(ratio, sigmas, r, n_shift, q_shift):
    num, den = ratio
    ex = Exact2D(num, den)

    def check(got, reference, must_answer=False):
        # Where the reference hits a cap, Delta must still be answered; a box
        # query may hit a cap too when the box holds too many points.
        try:
            want = reference()
        except CapExceeded:
            if must_answer:
                got()
            else:
                with contextlib.suppress(CapExceeded):
                    got()
            return
        assert got() == want

    for sigma in sigmas:
        check(
            lambda: repr(ex.delta_flowed(sigma)),
            lambda: repr(_delta_flowed_reference(ex, sigma)),
            must_answer=True,
        )
        check(lambda: set(ex.slab_points(sigma, r)), lambda: set(_slab_points_reference(ex, sigma, r)))
        for window, primed in ((1.0, False), (0.5, True)):
            check(
                lambda: repr(ex.witness_intervals(sigma, window, r, primed)),
                lambda: repr(_witness_intervals_ladder_free(ex, sigma, window, r, primed)),
            )
        # a box of area ~ den around the flowed unit square, stretched by e^shift
        n_strict = ex._n_threshold(-sigma + n_shift)
        q_max = int(math.exp(sigma + q_shift))
        check(
            lambda: ex.any_point_in_box(n_strict, q_max),
            lambda: _any_point_in_box_reference(ex, n_strict, q_max),
        )


@pytest.mark.parametrize(
    "num, den, rungs",
    [
        # A = 2^-64
        (1, 2**64, [(-(2**64), 0), (1, 1), (0, 2**64)]),
        # A = 1/2 + 2^-64 = [0; 1, 1, 2^62 - 1, 2]
        (
            2**63 + 1,
            2**64,
            [(-(2**64), 0), (2**63 + 1, 1), (1 - 2**63, 1), (2, 2), (-1, 2**63 - 1), (0, 2**64)],
        ),
        # A = 3/2^53 = [0; (2^53 - 2)/3, 1, 2]
        (3, 2**53, [(-(2**53), 0), (3, 1), (-2, (2**53 - 2) // 3), (1, (2**53 + 1) // 3), (0, 2**53)]),
    ],
)
def test_delta_grid_with_huge_partial_quotient(num, den, rungs):
    # the float-steered Gauss loop hit its iteration cap on these A; the
    # Pareto-minimal points are written out by hand
    ex = Exact2D(num, den)
    assert all((n - q * num) % den == 0 for n, q in rungs)
    for i in range(80):
        sigma = 0.5 * i
        want = -min(ex.flow_sup_log(pt, sigma) for pt in rungs)
        assert repr(ex.delta_flowed(sigma)) == repr(want)
        # no point with a small q does better
        assert all(ex.flow_sup_log((_fold(ex, q), q), sigma) >= -want for q in range(1, 200))
    assert _full_ladder(ex) == rungs


def test_huge_partial_quotient_fresh_instance():
    # the first query on a fresh instance: the point (1, 1) gives max(20 - 64 log 2, -20)
    assert Exact2D(1, 2**64).delta_flowed(20.0) == 20.0


def test_thick_with_huge_partial_quotient():
    # A = 2^-64: Delta(s) = min(s, 64 log 2 - s) >= 4.3 on [10, 40), far above r
    ex = Exact2D(1, 2**64)
    assert not any(ex.hits_thick(float(k), 0.5, 0.05, True) for k in range(10, 40))


def test_box_basis_certificate():
    ex = Exact2D(12345, 1 << 16)
    points = _full_ladder(ex)
    assert all(
        abs(n1 * q2 - q1 * n2) == ex.den for (n1, q1), (n2, q2) in zip(points, points[1:])
    )
    # each point once, with its canonical sign
    want = []
    for q in range(1, 2001):
        rem = q * ex.num % ex.den
        want += [(n, q) for n in (rem, rem - ex.den) if abs(n) <= 2000]
    assert want and sorted(ex._iter_box_points(2000, 2000)) == sorted(want)
    # a ladder doubled out of L_A spans covolume 4 den: no basis, so no answer
    bad = Exact2D(12345, 1 << 16)
    bad._points[:] = [(2 * n, 2 * q) for n, q in _full_ladder(bad)]
    with pytest.raises(ValidationError):
        list(bad._iter_box_points(2000, 2000))


def _ladder_queries(ex, rng):
    """Delta, slab-box, window-box and record queries on ex, in a shuffled order."""
    queries = [("delta", s) for s in (0.3, 2.0, 10.0, 10.0, 24.5, 41.0, 70.0, 130.0)]
    # past den e^-sigma ~ 1 the slab box holds ~e^sigma points; stay short of it
    queries += [("slab", s) for s in (1.0, 10.0, 0.25 * ex.log_den)]
    queries += [("window", k) for k in (5.0, 12.0, 47.0)]
    queries += [("records", T) for T in (1, 50, 10**9, 10**25, 10**80)]
    rng.shuffle(queries)
    return queries


def _answer(ex, kind, x):
    if kind == "delta":
        return repr(ex.delta_flowed(x))
    if kind == "slab":
        return repr(ex.slab_points(x, 0.2))
    if kind == "window":
        return repr((ex.witness_intervals(x, 1.0, 0.1, True), ex.witness_intervals(x, 0.5, 0.1, False)))
    return repr(_records_walk(ex, x))


@pytest.mark.parametrize("bits", [53, 256])
def test_ladder_answers_do_not_depend_on_call_history(bits):
    # the rungs are only appended, so an instance queried in any order answers
    # as fresh instances do, and holds a prefix of the full ladder
    rng = substream(20, "ladder-history", bits)
    for _ in range(6):
        num, den = int(rng.integers(1, 2**53)), 2**53
        if bits == 256:
            num, den = int.from_bytes(rng.bytes(32), "little") | 1, 2**256
        ex = Exact2D(num, den)
        full = Exact2D(num, den)
        _full_ladder(full)
        for kind, x in _ladder_queries(ex, rng):
            want = _answer(Exact2D(num, den), kind, x)
            assert _answer(ex, kind, x) == want == _answer(full, kind, x), (num, kind, x)
        k = len(ex._points)
        for grown, whole in [
            (ex._points, full._points),
            (ex._log_n, full._log_n),
            (ex._log_q, full._log_q),
            (ex._keys, full._keys),
        ]:
            assert repr(grown) == repr(whole[:k])


def test_ladder_grows_only_as_far_as_the_query_reads():
    # log q_k grows like 1.19 k (Levy), so Delta at sigma = 10 reads ~9 of the
    # ~31 rungs of a 53-bit A
    rng = substream(21, "ladder-lazy", 0)
    grown = full = 0
    for a in [float(rng.random()) for _ in range(20)] + [0.6180339887498949]:
        ex = Exact2D.of(a)
        ex.delta_flowed(10.0)
        k = len(ex._points)
        whole = len(_full_ladder(Exact2D.of(a)))
        assert k < whole, a
        grown += k
        full += whole
        # a covered query grows nothing
        ex.delta_flowed(9.0)
        assert len(ex._points) == k
    assert grown < full / 2, (grown, full)


# -- candidates off the ladder against the box walk -------------------------------

# r on both sides of the rung bound: _slab_on_rungs holds up to r = 0.2161
_RUNG_RADII = (0.05, 0.2, 0.216, 0.23, 0.3, 0.45)


def _witness_intervals_on_box(ex, k, window, r, primed):
    """Exact2D.witness_intervals with every window's candidates from its box walk."""
    lo, hi = float(k), float(k) + window
    if ex.delta_flowed(lo + 0.5 * window) - 0.5 * window > r + 1e-9:
        return []
    points = _box_of_window(ex, k, window, r, primed)
    logs = [
        (log_int(abs(n)) - ex.log_den if n else -math.inf, log_int(q) if q else -math.inf)
        for n, q in points
    ]
    return witness_from_logs(
        np.array(logs, dtype=float).reshape(-1, 2),
        np.array([n != 0 for n, _ in points], dtype=bool),
        np.zeros(len(points), dtype=np.intp),
        [(r, primed, lo, hi)],
        W11,
    )[0]


def _rung_samples():
    """(num, den, k values): small rationals whose ladder ends at N = 0 inside
    the windows, A with a_1 = 1 (two rungs at q = 1), and 64-, 192- and
    256-bit torus points."""
    out = [
        (5, 8, range(0, 6)),  # [0; 1, 1, 1, 2]
        (3, 8, range(0, 6)),
        (12345, 1 << 16, range(0, 14)),
        (2**63 + 1, 2**64, range(0, 50, 2)),  # [0; 1, 1, 2^62 - 1, 2]
    ]
    for bits, count in ((64, 9), (192, 2), (256, 2)):
        for i in range(count):
            num, den = sample_torus_fixedpoint(substream(28, f"x2d-rungs-{bits}", i), 1, 1, bits)
            out.append((num[0][0], den, range(0, 101, 3)))
    return out


def test_rung_candidates_equal_the_box_walk_on_both_sides_of_the_bound(monkeypatch):
    from dirichlet_lab import exact2d

    seen = {(below, kind): 0 for below in (False, True) for kind in (False, True)}
    capped = 0
    for num, den, ks in _rung_samples():
        assert _full_ladder(Exact2D(num, den))[-1][0] == 0
        ex, ex_box = Exact2D(num, den), Exact2D(num, den)
        for k in ks:
            for r in _RUNG_RADII:
                for window, primed in ((1.0, False), (0.5, True)):
                    got = ex.witness_intervals(float(k), window, r, primed)
                    try:
                        want = _witness_intervals_on_box(ex_box, float(k), window, r, primed)
                    except CapExceeded:
                        capped += 1  # the box walk gives up; the rungs still answer
                        continue
                    assert repr(got) == repr(want), (num, den, k, r, primed)
                    assert repr(got) == repr(_witness_intervals_reference(ex_box, float(k), window, r, primed))
                    seen[(r < 0.2161, primed)] += bool(got)
    assert min(seen.values()) >= 20, seen
    assert capped < 20
    # over the bound the rungs alone miss slab points: some primed answers change
    monkeypatch.setattr(exact2d, "_slab_on_rungs", lambda r: True)
    changed = 0
    for num, den, ks in _rung_samples():
        ex = Exact2D(num, den)
        for k in ks:
            for r in (0.3, 0.45):
                changed += repr(ex.witness_intervals(float(k), 0.5, r, True)) != repr(
                    _witness_intervals_reference(ex, float(k), 0.5, r, True)
                )
    assert changed >= 3


def test_the_table_reads_primed_off_the_rungs_as_in_primed_does():
    r_under = [0.05, 0.1, 0.2161]
    r_over = [0.05, 0.1, 0.2243]
    num, den = sample_torus_fixedpoint(substream(29, "x2d-rung-table", 0), 1, 1, bits=64)
    samples = torus_samples(29, "x2d-rung-table", 0, 128, 1, 1).ravel().tolist() + _EDGE_SAMPLES
    samples += [(num[0][0], den), (5, 8), (12345, 1 << 16)]
    hit = 0
    for r_values in (r_under, r_over):
        for sigma in (0.0, 0.05, 3.0, 10.0):
            keys, hits = membership_profiles(samples, sigma, [KIND_SUB, KIND_PRIMED], r_values)
            for a, row in zip(samples, hits[:, len(r_values):].tolist()):
                ex = Exact2D.of(a)
                assert row == [ex.in_primed(sigma, r) for r in r_values], (a, sigma, r_values)
                hit += sum(row)
    assert hit >= 100


def test_a_lockstep_row_stopped_short_is_read_on_its_own_ladder(monkeypatch):
    # every row's lockstep ladder cut to its first three rungs, as a misjudged
    # float stop would leave it: a row whose last rung is not past the slab is
    # answered on its own Exact2D, so the table does not change
    from dirichlet_lab import exact2d

    samples = torus_samples(30, "x2d-rung-short", 0, 128, 1, 1).ravel().tolist() + _EDGE_SAMPLES
    r_values = [0.05, 0.2]
    for sigma in (1.0, 6.0):
        want = membership_profiles(samples, sigma, [KIND_SUB, KIND_PRIMED], r_values)[1]
        lockstep, box_rungs, own = exact2d._lockstep_ladders, Exact2D._box_rungs, []

        def short(num, den, sigma):
            delta, R, Q, length, log_den = lockstep(num, den, sigma)
            R[3:], Q[3:] = R[2], Q[2]
            return delta, R, Q, length, log_den

        monkeypatch.setattr(exact2d, "_lockstep_ladders", short)
        monkeypatch.setattr(Exact2D, "_box_rungs", lambda ex, *box: own.append(ex) or box_rungs(ex, *box))
        got = membership_profiles(samples, sigma, [KIND_SUB, KIND_PRIMED], r_values)[1]
        monkeypatch.undo()
        assert own and got.tolist() == want.tolist()


def test_no_box_walk_under_the_rung_bound(monkeypatch):
    from dirichlet_lab import exact2d

    walks = []
    box_walk = exact2d._box_walk
    monkeypatch.setattr(exact2d, "_box_walk", lambda *args: walks.append(args) or box_walk(*args))
    num, den = sample_torus_fixedpoint(substream(31, "x2d-no-walk", 0), 1, 1, bits=64)
    ex = Exact2D(num[0][0], den)
    windows = [
        (float(k), window, r, primed)
        for k in range(0, 60, 2)
        for r in (0.05, 0.2, 0.216)
        for window, primed in ((1.0, False), (0.5, True))
    ]
    windows += [(float(k), 1.0, r, False) for k in range(0, 60, 2) for r in (0.3, 0.45)]
    assert any(ex.witness_intervals_batch(windows))
    samples = torus_samples(31, "x2d-no-walk", 0, 128, 1, 1).ravel().tolist() + [(num[0][0], den)]
    hits = membership_profiles(samples, 3.0, [KIND_SUB, KIND_PRIMED], [0.05, 0.216])[1]
    assert hits[:, 2:].any()
    assert walks == []
    # over the bound both paths walk their boxes
    ex.witness_intervals_batch([(float(k), 0.5, 0.3, True) for k in range(0, 60, 2)])
    assert walks
    walks.clear()
    membership_profiles(samples, 3.0, [KIND_PRIMED], [0.3])
    assert walks
