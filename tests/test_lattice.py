import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_lab import lattice
from dirichlet_lab.approx import DimensionParams
from dirichlet_lab.errors import CapExceeded, DimensionTooLarge, ValidationError
from dirichlet_lab.lattice import (
    Box,
    UnimodularLattice,
    WeightPair,
    apply_flow,
    delta,
    enumerate_in_box,
    lattice_from_matrix,
    lll_reduce,
    random_unimodular,
    shortest_sup_norm,
    standard_lattice,
    weighted_quasi_norm,
)
from dirichlet_lab.rng import sample_torus, substream


def brute_force_min_sup(L, coeff_bound=None):
    """Independent shortest-vector oracle: scan a coefficient box derived
    from the inverse basis row sums."""
    B = L.basis
    inv = np.linalg.inv(B)
    if coeff_bound is None:
        bounds = [int(math.ceil(np.sum(np.abs(inv[j])) * 1.0)) + 1 for j in range(L.d)]
    else:
        bounds = [coeff_bound] * L.d
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    C = np.stack([g.ravel() for g in grids])
    V = B @ C
    sup = np.max(np.abs(V), axis=0)
    sup = sup[sup > 1e-12]
    return float(sup.min())


def test_weight_pair_validation():
    with pytest.raises(ValidationError):
        WeightPair(alpha=(0.5, 0.4), beta=(1.0,))
    with pytest.raises(ValidationError):
        WeightPair(alpha=(1.0,), beta=(-1.0, 2.0))


def test_weight_pair_omegas():
    w = WeightPair(alpha=(0.7, 0.3), beta=(1.0,))
    assert w.omega1 == pytest.approx(1.4)
    assert w.omega2 == pytest.approx(0.6)
    u = WeightPair.unweighted(1, 1)
    assert u.omega1 == u.omega2 == 1.0


def test_quasi_norm_scalar():
    assert weighted_quasi_norm([0.5], [1.0]) == 0.5


def test_quasi_norm_squares():
    assert weighted_quasi_norm([0.25, 0.5], [0.5, 0.5]) == pytest.approx(0.25)


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=5))
def test_quasi_norm_equal_weights_reduce_to_sup_power(xs):
    m = len(xs)
    w = [1.0 / m] * m
    expected = max(abs(x) for x in xs) ** m
    assert weighted_quasi_norm(xs, w) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_lattice_from_matrix_identity():
    L = lattice_from_matrix(np.zeros((1, 1)))
    assert np.allclose(L.basis, np.eye(2))


def test_lattice_from_matrix_column():
    L = lattice_from_matrix([[0.5]])
    assert np.allclose(L.basis, [[1.0, 0.5], [0.0, 1.0]])


def test_lattice_from_matrix_det_exact():
    rng = substream(0, "lfm", 0)
    for _ in range(10):
        A = rng.random((2, 3))
        L = lattice_from_matrix(A)
        assert abs(np.linalg.det(L.basis)) == pytest.approx(1.0, abs=1e-12)


def test_unimodular_validation():
    with pytest.raises(ValidationError):
        UnimodularLattice(np.diag([2.0, 1.0]), DimensionParams(1, 1))


def test_apply_flow_identity_and_diag():
    w = WeightPair.unweighted(1, 1)
    L = standard_lattice(DimensionParams(1, 1))
    assert np.allclose(apply_flow(L, 0.0, w).basis, L.basis)
    flowed = apply_flow(L, math.log(2.0), w)
    assert np.allclose(flowed.basis, np.diag([2.0, 0.5]))


def test_apply_flow_group_law():
    rng = substream(1, "flow", 0)
    w = WeightPair(alpha=(0.6, 0.4), beta=(1.0,))
    dims = DimensionParams(2, 1)
    for _ in range(5):
        L = random_unimodular(dims, rng)
        s1, s2 = rng.uniform(-1.5, 1.5, size=2)
        a = apply_flow(apply_flow(L, s1, w), s2, w)
        b = apply_flow(L, s1 + s2, w)
        assert np.allclose(a.basis, b.basis, rtol=1e-12, atol=1e-12)


def test_apply_flow_det_preserved():
    rng = substream(2, "flowdet", 0)
    w = WeightPair(alpha=(0.25, 0.75), beta=(0.5, 0.5))
    dims = DimensionParams(2, 2)
    for _ in range(10):
        L = random_unimodular(dims, rng)
        flowed = apply_flow(L, float(rng.uniform(-2, 2)), w)
        assert abs(abs(np.linalg.det(flowed.basis)) - 1.0) < 1e-9


def test_enumerate_z2_cube():
    L = standard_lattice(DimensionParams(1, 1))
    pts = enumerate_in_box(L, Box.open_cube(1.5, 2))
    assert len(pts) == 8
    as_set = {tuple(np.round(p).astype(int)) for p in pts}
    assert as_set == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_enumerate_empty_box():
    L = standard_lattice(DimensionParams(1, 1))
    pts = enumerate_in_box(L, Box.open_box((0.4, -0.1), (0.6, 0.1)))
    assert pts.shape == (0, 2)


def test_enumerate_matches_bruteforce_random():
    rng = substream(3, "enum", 0)
    dims = DimensionParams(1, 2)
    for trial in range(25):
        L = random_unimodular(dims, rng)
        lo = rng.uniform(-2.0, 0.0, size=3)
        hi = lo + rng.uniform(0.5, 2.5, size=3)
        box = Box.closed_box(tuple(lo), tuple(hi))
        pts = enumerate_in_box(L, box, cap=10_000)
        # brute force over a provably sufficient coefficient range
        inv = np.linalg.inv(L.basis)
        corner = np.max(np.abs(np.vstack([lo, hi])))
        bounds = [int(math.ceil(np.sum(np.abs(inv[j])) * corner)) + 1 for j in range(3)]
        grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
        C = np.stack([g.ravel() for g in grids])
        V = (L.basis @ C).T
        hits = [v for v in V if box.contains(v) and np.max(np.abs(v)) > 1e-12]
        assert len(hits) == len(pts)


def test_enumerate_cap():
    L = standard_lattice(DimensionParams(1, 1))
    with pytest.raises(CapExceeded):
        enumerate_in_box(L, Box.closed_cube(20.0, 2), cap=10)


def test_dimension_guard():
    dims = DimensionParams(4, 3)
    L = standard_lattice(dims)
    with pytest.raises(DimensionTooLarge):
        shortest_sup_norm(L)


def test_shortest_zd():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        L = standard_lattice(DimensionParams(m, n))
        assert shortest_sup_norm(L) == pytest.approx(1.0, abs=1e-12)


def test_shortest_diag():
    L = UnimodularLattice(np.diag([2.0, 0.5]), DimensionParams(1, 1))
    assert shortest_sup_norm(L) == pytest.approx(0.5, abs=1e-15)


def test_delta_values():
    assert delta(standard_lattice(DimensionParams(1, 1))) == pytest.approx(0.0, abs=1e-12)
    L = UnimodularLattice(np.diag([2.0, 0.5]), DimensionParams(1, 1))
    assert delta(L) == pytest.approx(math.log(2.0), abs=1e-12)


def test_delta_flowed_torus():
    # A = 0, s = 1: shortest vector e^-1 along the contracted axis
    w = WeightPair.unweighted(1, 1)
    L = apply_flow(lattice_from_matrix([[0.0]]), 1.0, w)
    assert delta(L) == pytest.approx(1.0, abs=1e-12)


def test_delta_matches_bruteforce_flowed():
    rng = substream(4, "deltabf", 0)
    w = WeightPair.unweighted(1, 1)
    for _ in range(20):
        A = rng.random((1, 1))
        L = apply_flow(lattice_from_matrix(A), 3.0, w)
        oracle = brute_force_min_sup(L, coeff_bound=100)
        assert shortest_sup_norm(L) == pytest.approx(oracle, rel=1e-9)


def test_delta_nonnegative_random():
    # module invariant: Delta >= 0 on 10^4 random unimodular lattices
    rng = substream(5, "deltapos", 0)
    for dims in (DimensionParams(1, 1), DimensionParams(2, 1)):
        for _ in range(5000):
            L = random_unimodular(dims, rng)
            assert delta(L) >= -1e-9


def test_delta_flow_lipschitz():
    rng = substream(6, "lip", 0)
    w = WeightPair(alpha=(0.7, 0.3), beta=(1.0,))
    dims = DimensionParams(2, 1)
    bound = max(w.alpha_max, w.beta_max)
    for _ in range(20):
        L = random_unimodular(dims, rng)
        s = float(rng.uniform(-2.0, 2.0))
        d0 = delta(L)
        d1 = delta(apply_flow(L, s, w))
        assert abs(d1 - d0) <= bound * abs(s) + 1e-9


def test_lll_preserves_lattice():
    rng = substream(7, "lll", 0)
    dims = DimensionParams(2, 1)
    for _ in range(10):
        L = random_unimodular(dims, rng)
        R = lll_reduce(L.basis)
        # the reduced basis generates the same lattice: unimodular transform
        U = np.linalg.solve(L.basis, R)
        assert np.allclose(U, np.round(U), atol=1e-6)
        assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-6


def _lll_full_recompute(basis, delta=0.99):
    """Reference LLL that recomputes the whole Gram-Schmidt data after every change."""
    B = np.array(basis, dtype=float)
    d = B.shape[1]

    def gso(Bm):
        Q = np.zeros_like(Bm)
        mu = np.zeros((d, d))
        norms = np.zeros(d)
        for i in range(d):
            v = Bm[:, i].copy()
            for j in range(i):
                if norms[j] > 0:
                    mu[i, j] = np.dot(Bm[:, i], Q[:, j]) / norms[j]
                    v -= mu[i, j] * Q[:, j]
            Q[:, i] = v
            norms[i] = np.dot(v, v)
        return Q, mu, norms

    Q, mu, norms = gso(B)
    k = 1
    guard = 0
    while k < d:
        guard += 1
        if guard > 10000:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[:, k] -= q * B[:, j]
                Q, mu, norms = gso(B)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            Q, mu, norms = gso(B)
            k = max(k - 1, 1)
    return B


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (1, 3), (2, 2), (3, 1)])
def test_lazy_lll_is_bit_identical_to_full_recompute(m, n):
    dims = DimensionParams(m, n)
    w = WeightPair.unweighted(m, n)
    for s in (0.0, 10.0, 15.0):
        for i in range(40):
            A = sample_torus(substream(8, f"lll-bits-{s}", i), m, n)
            basis = apply_flow(lattice_from_matrix(A, dims), s, w).basis
            assert np.array_equal(lll_reduce(basis), _lll_full_recompute(basis)), (m, n, s, i)


def test_lll_iteration_cap_raises(monkeypatch):
    dims = DimensionParams(1, 2)
    A = sample_torus(substream(9, "lll-cap", 0), 1, 2)
    basis = apply_flow(lattice_from_matrix(A, dims), 10.0, WeightPair.unweighted(1, 2)).basis
    lll_reduce(basis)
    monkeypatch.setattr(lattice, "LLL_MAX_ITERATIONS", 1)
    with pytest.raises(CapExceeded):
        lll_reduce(basis)


def test_reduction_is_computed_once_per_lattice(monkeypatch):
    calls = []
    original = lattice.lll_reduce
    monkeypatch.setattr(lattice, "lll_reduce", lambda B: calls.append(1) or original(B))
    L = random_unimodular(DimensionParams(2, 1), substream(10, "once", 0))
    shortest_sup_norm(L)
    enumerate_in_box(L, Box.closed_cube(1.5, 3))
    assert lattice.has_nonzero_point(L, Box.open_cube(1.5, 3))
    assert len(calls) == 1
    assert np.array_equal(L.reduced.B, original(L.basis))
