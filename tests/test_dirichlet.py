import math
import tracemalloc

import numpy as np
import pytest

from dirichlet_lab.approx import ConstantRatio, LogDrift
from dirichlet_lab.dirichlet import (
    _DENSE_LIMIT,
    _int_strictly_below,
    _q_box_records,
    _records,
    _records_dense,
    _records_walk,
    dirichlet_solvable,
    psi_dirichlet_scan,
    psi_inverse,
)
from dirichlet_lab.errors import BudgetExceeded
from dirichlet_lab.exact2d import Exact2D
from dirichlet_lab.lattice import WeightPair
from dirichlet_lab.rng import sample_torus_fixedpoint, substream

W11 = WeightPair.unweighted(1, 1)
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


def test_psi_inverse_round_trip():
    psi = LogDrift(1.0, 1.0, t0=math.e**2)
    for t in (10.0, 55.0, 300.0):
        err = float(psi.psi(t))
        back = psi_inverse(psi, err, psi.t0, 1e5)
        assert back == pytest.approx(t, rel=1e-9)


def test_zero_matrix_always_solvable():
    psi = ConstantRatio(0.5, t0=2.0)
    assert dirichlet_solvable(0.0, psi, 10.0, W11)
    rep = psi_dirichlet_scan(0.0, psi, 1e4, W11)
    assert rep.passes


def test_half_solvable_explicit():
    # q = 2, p = 1 gives |2A - 1| = 0
    psi = ConstantRatio(0.9, t0=2.0)
    assert dirichlet_solvable(0.5, psi, 3.0, W11)


def test_records_dense_vs_walk():
    rng = substream(30, "recs", 0)
    for _ in range(12):
        a = float(rng.random())
        num, den = a.as_integer_ratio()
        T = int(rng.integers(500, 40_000))
        den_exp = den.bit_length() - 1
        dense = _records_dense(num, den_exp, T)
        walk = _records_walk(Exact2D(num, den), T)
        assert dense == walk
    # T = 0 admits no q and T = 1 only q = 1, whatever the backend
    for num, den in ((0, 1), (0, 8), (3, 8), (1, 2**64)):
        den_exp = den.bit_length() - 1
        for T in (0, 1):
            assert _records_dense(num, den_exp, T) == _records_walk(Exact2D(num, den), T), (num, T)


def _fold(ex, q):
    """min_p |q num - p den|: the integer distance den * dist(qA, Z), by brute force."""
    rem = (q * ex.num) % ex.den
    return min(rem, ex.den - rem)


def _records_walk_reference(ex, T):
    """Strict error records via lattice block-skipping; exact for any horizon.

    The reference for the ladder read of _records_walk: from each record,
    double and then bisect q_max until a box probe finds a smaller error.
    """
    records = []
    q0 = 1
    carry = None
    while q0 <= T:
        if carry is None:
            nv = _fold(ex, q0)
            records.append((q0, nv))
            carry = nv
            q0 += 1
            if carry == 0:
                break
            continue
        hi = q0
        found = None
        while True:
            if ex.any_point_in_box(carry, hi):
                found = hi
                break
            if hi >= T:
                break
            hi = min(T, hi * 2)
        if found is None:
            break
        lo = q0
        while lo < found:
            mid = (lo + found) // 2
            if ex.any_point_in_box(carry, mid):
                found = mid
            else:
                lo = mid + 1
        nv = _fold(ex, found)
        records.append((found, nv))
        carry = nv
        q0 = found + 1
        if carry == 0:
            break
    return records


def _check_records(num, den, T):
    """The ladder's records equal the reference walk's and, for a power-of-two
    denominator within the dense backend's reach, the dense backend's."""
    ex = Exact2D(num, den)
    got = _records_walk(ex, T)
    assert got == _records_walk_reference(ex, T), (num, den, T)
    den_exp = den.bit_length() - 1
    if den == 1 << den_exp and den_exp <= 64 and min(T, den) <= _DENSE_LIMIT:
        assert got == _records_dense(num, den_exp, T), (num, den, T)


@pytest.mark.parametrize(
    "num, den",
    [
        (0, 1),
        (1, 2),
        (2, 5),
        (3, 8),
        (3, 5),  # a_1 = 1: q = 1 twice on the ladder
        (7, 8),  # a_1 = 1
        (1, 2**64),
        (2**63 + 1, 2**64),
        (1, 3),
        (12345, 99991),
    ],
)
def test_ladder_records_match_reference_walk_edge_cases(num, den):
    for T in (1, 2, 3, 10, 10**3, 10**6, 10**12):
        _check_records(num, den, T)


@pytest.mark.parametrize("bits", [64, 192, 256])
def test_ladder_records_match_reference_walk_fixed_point(bits):
    rng = substream(37, "fp-records", bits)
    for _ in range(3):
        num, den = sample_torus_fixedpoint(rng, 1, 1, bits)
        for T in (10**6, 10**12, 10**30):
            _check_records(num[0][0], den, T)


def test_records_dense_allocates_for_its_horizon():
    num, den = float(substream(30, "recs", 1).random()).as_integer_ratio()
    tracemalloc.start()
    try:
        dense = _records_dense(num, den.bit_length() - 1, 9999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dense == _records_walk(Exact2D(num, den), 9999)


def test_records_walk_large_horizon():
    # straddle the dense backend limit: both must agree on a common range
    a = float(substream(31, "recs", 1).random())
    r_small, q_small = _records(a, 2_000_001.0, W11, 0)  # dense, q <= 2_000_000
    r_big, q_big = _records(a, 2_000_002.0, W11, 0)  # walk, q <= 2_000_001
    assert (q_small, q_big) == (_DENSE_LIMIT, _DENSE_LIMIT + 1)
    common_small = [rec for rec in r_small if rec[0] <= 2_000_000]
    common_big = [rec for rec in r_big if rec[0] <= 2_000_000]
    assert common_small == common_big


def test_solvable_is_strict_in_q_on_every_path():
    # just above t = 1 no q satisfies ||q|| < t under the tolerance policy, so
    # nothing is solvable, at m = n = 1 as on the general path
    t = 1 + 5e-13
    assert not dirichlet_solvable(0.5, None, t, W11, classic_mode=True)
    w21 = WeightPair.unweighted(2, 1)
    assert not dirichlet_solvable(np.array([[0.5], [0.5]]), None, t, w21, classic_mode=True)
    assert dirichlet_solvable(0.5, None, 2.5, W11, classic_mode=True)


def test_classic_mode_dirichlet_theorem_scalar():
    rng = substream(32, "classic", 0)
    for _ in range(20):
        a = float(rng.random())
        rep = psi_dirichlet_scan(a, None, 1000.0, W11, classic_mode=True)
        assert rep.passes, (a, rep.uncovered)


def test_classic_mode_dirichlet_theorem_weighted_dims():
    rng = substream(33, "classic", 1)
    for m, n in ((2, 1), (1, 2)):
        w = WeightPair.unweighted(m, n)
        for _ in range(5):
            A = rng.random((m, n))
            rep = psi_dirichlet_scan(A, None, 1000.0, w, classic_mode=True)
            assert rep.passes, (A, rep.uncovered)


def test_golden_mean_fails_small_c():
    # liminf q|q alpha - p| = 1/sqrt5 ~ 0.447 > 0.2: improvement to 0.2/t fails
    psi = ConstantRatio(0.2, t0=2.0)
    rep = psi_dirichlet_scan(GOLDEN_MEAN, psi, 1000.0, W11)
    assert not rep.passes
    # and the failures are genuine: pointwise checks agree inside the gaps
    for lo, hi in rep.uncovered[:5]:
        t = 0.5 * (lo + hi)
        if t > psi.t0:
            assert not dirichlet_solvable(GOLDEN_MEAN, psi, t, W11)


def test_golden_mean_passes_large_c():
    psi = ConstantRatio(0.9, t0=2.0)
    rep = psi_dirichlet_scan(GOLDEN_MEAN, psi, 1000.0, W11)
    assert rep.passes


def test_scan_agrees_with_pointwise_random():
    rng = substream(34, "agree", 0)
    psi = ConstantRatio(0.6, t0=2.0)
    for _ in range(4):
        a = float(rng.random())
        T = 2000.0
        rep = psi_dirichlet_scan(a, psi, T, W11)

        def uncovered_at(t):
            return any(lo < t <= hi + 1e-12 for lo, hi in rep.uncovered)

        for _ in range(1000):
            t = float(rng.uniform(psi.t0 + 0.1, T))
            near_edge = any(
                min(abs(t - lo), abs(t - hi)) < 1e-6 * max(1.0, t)
                for lo, hi in rep.uncovered
            )
            if near_edge:
                continue
            assert dirichlet_solvable(a, psi, t, W11) == (not uncovered_at(t))


def test_scan_agrees_with_pointwise_weighted():
    rng = substream(35, "agree", 1)
    w = WeightPair(alpha=(0.5, 0.5), beta=(1.0,))
    psi = ConstantRatio(0.6, t0=2.0)
    for _ in range(4):
        A = rng.random((2, 1))
        T = 200.0
        rep = psi_dirichlet_scan(A, psi, T, w)

        def uncovered_at(t):
            return any(lo < t <= hi + 1e-12 for lo, hi in rep.uncovered)

        for _ in range(1000):
            t = float(rng.uniform(psi.t0 + 0.1, T))
            near_edge = any(
                min(abs(t - lo), abs(t - hi)) < 1e-6 * max(1.0, t)
                for lo, hi in rep.uncovered
            )
            if near_edge:
                continue
            assert dirichlet_solvable(A, psi, t, w) == (not uncovered_at(t))


def test_budget_guard():
    psi = ConstantRatio(0.5, t0=2.0)
    w = WeightPair.unweighted(1, 2)
    with pytest.raises(BudgetExceeded):
        psi_dirichlet_scan(np.array([[0.3, 0.4]]), psi, 1e9, w, budget=1000)


def _q_box_records_masked(A, T, w):
    """Reference: the q-box records with the canonical sign chosen by a mask."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    bounds = [max(_int_strictly_below(T ** w.beta[j]), 0) for j in range(n)]
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    Q = np.stack([g.ravel() for g in grids], axis=0).astype(float)
    Q = Q[:, np.any(Q != 0, axis=0)]
    lead = np.zeros(Q.shape[1], dtype=bool)
    undecided = np.ones(Q.shape[1], dtype=bool)
    for j in range(n):
        pos = undecided & (Q[j] > 0)
        neg = undecided & (Q[j] < 0)
        lead |= pos
        undecided &= ~(pos | neg)
    Q = Q[:, lead]
    beta = np.array(w.beta)
    qnorm = np.max(np.abs(Q) ** (1.0 / beta[:, None]), axis=0)
    keep = qnorm < T - 1e-12 * max(1.0, T)
    Q, qnorm = Q[:, keep], qnorm[keep]
    X = A @ Q
    X -= np.rint(X)
    err = np.max(np.abs(X) ** (1.0 / np.array(w.alpha)[:, None]), axis=0)
    records = []
    best = math.inf
    for idx in np.argsort(qnorm, kind="stable"):
        if float(err[idx]) < best:
            best = float(err[idx])
            records.append((float(qnorm[idx]), best))
    return records, int(Q.shape[1])


def test_q_box_records_match_masked_reference():
    rng = substream(36, "qbox", 0)
    for i in range(60):
        m, n = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)][i % 6]
        if i % 12 < 6:
            w = WeightPair.unweighted(m, n)
        else:
            alpha, beta = rng.dirichlet(np.ones(m) * 4), rng.dirichlet(np.ones(n) * 4)
            w = WeightPair(alpha=alpha / alpha.sum(), beta=beta / beta.sum())
        A = rng.random((m, n))
        T = float(rng.uniform(1.0, 1000.0)) if i % 5 else float(rng.integers(1, 1001))
        got = _q_box_records(A, T, w, 200_000)
        assert repr(got) == repr(_q_box_records_masked(A, T, w)), (A, T, w)


def test_exact_rational_scan_matches_float():
    # fixed-point input (num, den) and its float image agree at moderate T
    rng = substream(36, "fp", 0)
    a = float(rng.random())
    num, den = a.as_integer_ratio()
    psi = ConstantRatio(0.6, t0=2.0)
    rep_f = psi_dirichlet_scan(a, psi, 5000.0, W11)
    rep_t = psi_dirichlet_scan((num, den), psi, 5000.0, W11)
    assert rep_f.records == rep_t.records
    assert rep_f.uncovered == rep_t.uncovered
