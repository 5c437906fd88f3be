import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_lab import lattice
from dirichlet_lab.approx import DimensionParams
from dirichlet_lab.errors import (
    BudgetExceeded,
    CapExceeded,
    DimensionTooLarge,
    DomainError,
    ValidationError,
)
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
        hits = V[box.contains_rows(V) & (np.max(np.abs(V), axis=1) > 1e-12)]
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


def _lll_reference(basis, delta=0.99):
    """The per-lattice LLL that lll_reduce_batch replaced, kept verbatim as the reference.

    Its Gram-Schmidt uses np.dot and its Lovasz test mu ** 2, so on a CPU
    with fma its values can differ in the last bit from the kernel's
    fixed-order sums and mu * mu; the reduced bases agree whenever no
    rounding or Lovasz decision lands on that bit.
    """
    B = np.array(basis, dtype=float)
    d = B.shape[1]
    Q = np.zeros_like(B)
    mu = np.zeros((d, d))
    norms = np.zeros(d)

    def gso_row(i):
        v = B[:, i].copy()
        for j in range(i):
            if norms[j] > 0:
                mu[i, j] = np.dot(B[:, i], Q[:, j]) / norms[j]
                v -= mu[i, j] * Q[:, j]
            else:
                mu[i, j] = 0.0
        Q[:, i] = v
        norms[i] = np.dot(v, v)

    for i in range(min(2, d)):
        gso_row(i)
    k = 1
    iterations = 0
    while k < d:
        iterations += 1
        if iterations > lattice.LLL_MAX_ITERATIONS:
            raise CapExceeded(f"LLL did not converge in {lattice.LLL_MAX_ITERATIONS} iterations")
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[:, k] -= q * B[:, j]
                gso_row(k)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
            if k < d:
                gso_row(k)
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            gso_row(k - 1)
            gso_row(k)
            k = max(k - 1, 1)
    return B


def _flowed_bases(m, n, s, count, label="lll-batch"):
    return _flowed_lattices(m, n, s, count, label)[0]


def _flowed_lattices(m, n, s, count, label):
    """Flowed bases g_s [[I, A], [0, I]], with the unflowed bases and the flow's diagonal."""
    dims = DimensionParams(m, n)
    w = WeightPair.unweighted(m, n)
    unflowed = [
        lattice_from_matrix(sample_torus(substream(12, f"{label}-{s}", i), m, n), dims)
        for i in range(count)
    ]
    flowed = np.stack([apply_flow(L, s, w).basis for L in unflowed])
    return flowed, np.stack([L.basis for L in unflowed]), np.exp(w.flow_exponents(s))


def _int_det(M):
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    M = [[int(x) for x in row] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if M[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _assert_lll_reduced(unflowed, scale, reduced, delta=0.99):
    """Size-reduced, Lovasz at delta, and an integral transition with |det| = 1, for every basis.

    The transition U solves diag(scale) unflowed U = reduced; dividing out
    the flow first keeps the solve well conditioned.  U is integral only to
    about 1e-2 at s = 15: the float column operations cancel entries up to
    ~1e6 down to ~1e-3, so U is tested against its rounding with 0.05.
    """
    _, R = np.linalg.qr(reduced)
    diag = np.diagonal(R, axis1=1, axis2=2)
    mu = R / diag[:, :, None]  # mu[n, j, i] = <b_i, q_j> / |q_j|^2 above the diagonal
    d = reduced.shape[1]
    upper = np.triu(np.ones((d, d), dtype=bool), 1)
    assert np.all(np.abs(mu[:, upper]) <= 0.5 + 1e-6)
    norms = diag**2
    for k in range(1, d):
        mu_k = mu[:, k - 1, k]
        assert np.all(norms[:, k] >= (delta - mu_k**2) * norms[:, k - 1] * (1.0 - 1e-9))
    U = np.linalg.solve(unflowed, reduced / scale[:, None])
    assert np.all(np.abs(U - np.round(U)) <= 0.05)
    assert all(abs(_int_det(u)) == 1 for u in np.round(U))


@pytest.mark.parametrize(
    "m,n,s_values,count",
    [
        (1, 2, (5.0, 10.0, 15.0), 1000),
        (2, 1, (5.0, 10.0, 15.0), 1000),
        (2, 2, (10.0,), 300),
        (3, 3, (10.0,), 300),
    ],
)
def test_batch_lll_is_bit_equal_to_the_reference(m, n, s_values, count):
    for s in s_values:
        bases, unflowed, scale = _flowed_lattices(m, n, s, count, "lll-batch")
        reduced = lattice.lll_reduce_batch(bases)
        want = np.stack([_lll_reference(b) for b in bases])
        assert np.array_equal(reduced, want), (m, n, s)
        _assert_lll_reduced(unflowed, scale, reduced)


def test_batch_lll_row_equals_its_single_reduction():
    # mixed flow times give the stack's bases different k at every pass
    bases = np.concatenate([_flowed_bases(1, 2, s, 20, "lll-rows") for s in (0.0, 5.0, 15.0)])
    bases = bases[substream(12, "lll-rows-order", 0).permutation(len(bases))]
    reduced = lattice.lll_reduce_batch(bases)
    for i in range(len(bases)):
        assert np.array_equal(reduced[i], lattice.lll_reduce_batch(bases[i : i + 1])[0]), i
        assert np.array_equal(reduced[i], lll_reduce(bases[i])), i


def test_batch_lll_cap_raises_and_never_returns_a_partial_stack(monkeypatch):
    bases = _flowed_bases(2, 1, 15.0, 40, "lll-batch-cap")
    full = lattice.lll_reduce_batch(bases)

    def needed(stack):
        # fewest iterations at which the stack reduces without tripping the cap
        lo, hi = 1, 10_000
        while lo < hi:
            mid = (lo + hi) // 2
            monkeypatch.setattr(lattice, "LLL_MAX_ITERATIONS", mid)
            try:
                lattice.lll_reduce_batch(stack)
                hi = mid
            except CapExceeded:
                lo = mid + 1
        return lo

    cap = needed(bases)
    singles = [needed(bases[i : i + 1]) for i in range(len(bases))]
    assert max(singles) == cap and min(singles) < cap  # most bases finish under the cap
    monkeypatch.setattr(lattice, "LLL_MAX_ITERATIONS", cap - 1)
    with pytest.raises(CapExceeded):
        lattice.lll_reduce_batch(bases)
    monkeypatch.setattr(lattice, "LLL_MAX_ITERATIONS", cap)
    assert np.array_equal(lattice.lll_reduce_batch(bases), full)


def test_reduce_lattices_seeds_what_first_use_computes():
    dims = DimensionParams(1, 2)
    bases = _flowed_bases(1, 2, 10.0, 30, "seed")
    seeded = [UnimodularLattice(b, dims) for b in bases]
    lattice.reduce_lattices(seeded)
    for b, L in zip(bases, seeded):
        alone = UnimodularLattice(b, dims).reduced
        for name in ("B", "Q", "T", "signs"):
            assert np.array_equal(getattr(L.reduced, name), getattr(alone, name)), name
            assert not getattr(L.reduced, name).flags.writeable


def test_reduced_basis_refuses_a_basis_off_det_one():
    with pytest.raises(BudgetExceeded):
        lattice.ReducedBasis.stack(np.stack([np.eye(3), np.diag([1.0, 1.0, 1.0 + 1e-6])]))


def _enumerate_ball_scalar(R, center, radius, guard):
    """Reference walk: the depth-first scalar enumeration, one coefficient tuple per leaf."""
    d = R.B.shape[1]
    T = R.T
    y = R.signs * (R.Q.T @ center)
    budget2 = radius * radius * (1.0 + 1e-9) + 1e-12

    c = np.zeros(d, dtype=np.int64)
    seen = 0

    def rec(j, acc2):
        nonlocal seen
        if acc2 > budget2:
            return
        if j < 0:
            yield tuple(int(v) for v in c)
            return
        shift = y[j] - sum(T[j, k] * c[k] for k in range(j + 1, d))
        room = math.sqrt(max(budget2 - acc2, 0.0))
        lo = math.ceil((shift - room) / T[j, j] - 1e-12)
        hi = math.floor((shift + room) / T[j, j] + 1e-12)
        for cj in range(lo, hi + 1):
            seen += 1
            if seen > guard:
                raise CapExceeded(f"ball enumeration guard ({guard}) tripped")
            c[j] = cj
            term = T[j, j] * cj - shift
            yield from rec(j - 1, acc2 + term * term)
        c[j] = 0

    yield from rec(d - 1, 0.0)


def _rows_until_cap(blocks):
    """Every row a walk yields before it ends, and whether it ended by CapExceeded."""
    rows = []
    try:
        for block in blocks:
            rows.extend(tuple(int(v) for v in row) for row in np.atleast_2d(block))
    except CapExceeded:
        return rows, True
    return rows, False


def _ball_cases():
    """(label, lattice, center, radius): flowed and random bases at d = 2..6."""
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        dims = DimensionParams(m, n)
        d = dims.d
        w = WeightPair.unweighted(m, n)
        radii = (0.9, 1.7, 3.0) if d <= 4 else (0.9, 1.7)
        for s in (0.0, 5.0, 10.0, 15.0):
            for i in range(3):
                A = sample_torus(substream(13, f"ball-{s}", i), m, n)
                L = apply_flow(lattice_from_matrix(A, dims), s, w)
                for radius in radii:
                    yield (m, n, s, i, radius), L, np.zeros(d), radius
        L = random_unimodular(dims, substream(13, "ball-random", d))
        for radius in radii:
            yield (m, n, "random", radius), L, np.zeros(d), radius
            center = np.zeros(d)
            center[0] = 1.0  # the slab's center
            yield (m, n, "random-shifted", radius), L, center, radius


def _stacked_ball_cases():
    """_ball_cases grouped into stacks that share a dimension, a center and a radius.

    The d = 2 stacks also hold Z^2 flowed to s = 10, whose short basis vector
    e^-10 e_2 gives one level-0 range of ~44 000 coefficients, longer than
    a pass, and every stack has a lattice whose ball around a shifted center
    holds no lattice point.
    """
    stacks = {}
    for label, L, center, radius in _ball_cases():
        key = (L.d, tuple(center), radius)
        stacks.setdefault(key, ([], []))
        stacks[key][0].append(label)
        stacks[key][1].append(L)
    long_range = apply_flow(
        lattice_from_matrix(np.zeros((1, 1)), DimensionParams(1, 1)), 10.0, WeightPair.unweighted(1, 1)
    )
    for (d, center, radius), (labels, lattices) in stacks.items():
        if d == 2 and radius == 0.9:
            labels.append("flowed Z^2")
            lattices.append(long_range)
        yield labels, lattices, np.array(center), radius
    for d in range(2, 7):
        dims = DimensionParams(1, d - 1)
        lattices = [standard_lattice(dims), random_unimodular(dims, substream(13, "ball-empty", d))]
        yield ["Z^d empty", "random empty"], lattices, np.full(d, 0.5), 1e-3


def _rows_by_owner(blocks, count):
    """The rows of a stacked walk's (C, owner) blocks, split by lattice."""
    rows = [[] for _ in range(count)]
    for C, owner in blocks:
        assert C.dtype == np.int64 and C.ndim == 2 and len(C) <= lattice._PASS_ROWS
        assert np.all(np.diff(owner) >= 0)  # lattice after lattice
        for c, o in zip(C.tolist(), owner.tolist()):
            rows[o].append(tuple(c))
    return rows


def test_block_ball_walk_matches_scalar_reference():
    # one stacked walk per (d, center, radius) equals the scalar walk lattice by lattice
    dims_seen, empty = set(), 0
    for labels, lattices, center, radius in _stacked_ball_cases():
        reduced = [L.reduced for L in lattices]
        blocks = list(lattice._enumerate_balls(reduced, center, radius, 10**7))
        for label, R, rows in zip(labels, reduced, _rows_by_owner(blocks, len(reduced))):
            assert rows == list(_enumerate_ball_scalar(R, center, radius, 10**7)), label
            empty += not rows
        dims_seen.add(lattices[0].d)
    assert dims_seen == {2, 3, 4, 5, 6} and empty >= 10


def test_block_ball_walk_splits_a_long_innermost_range():
    # Z^2 flowed to s = 10: one level-0 range of ~44 000 coefficients, more than a pass;
    # the N = 1 form yields it in several blocks, in the scalar walk's order
    dims = DimensionParams(1, 1)
    L = apply_flow(lattice_from_matrix(np.zeros((1, 1)), dims), 10.0, WeightPair.unweighted(1, 1))
    R = L.reduced
    blocks = list(lattice._enumerate_ball(R, np.zeros(2), 1.0, 10**7))
    assert len(blocks) > 1 and all(len(b) <= lattice._PASS_ROWS for b in blocks)
    rows, _ = _rows_until_cap(blocks)
    assert len(rows) > lattice._PASS_ROWS
    assert rows == list(_enumerate_ball_scalar(R, np.zeros(2), 1.0, 10**7))


@pytest.mark.parametrize("guard", [1, 7, 60, 500, 5000])
def test_block_ball_walk_guard_matches_scalar_reference(guard):
    # a walk raises CapExceeded exactly when the scalar walk, read to the end,
    # trips its guard: alone, and in a stack as soon as one lattice of it does
    # (the level-by-level walk counts a level before expanding it, so the rows
    # it yields before raising are not the scalar walk's)
    stacks = [
        (lattices, center, radius)
        for labels, lattices, center, radius in _stacked_ball_cases()
        if lattices[0].d <= 4 and radius != 1e-3
    ]
    trips = clean = 0
    for lattices, center, radius in stacks:
        reduced = [L.reduced for L in lattices]
        tripped = [_rows_until_cap(_enumerate_ball_scalar(R, center, radius, guard))[1] for R in reduced]
        for R, scalar_tripped in zip(reduced, tripped):
            rows, block_tripped = _rows_until_cap(lattice._enumerate_ball(R, center, radius, guard))
            assert block_tripped == scalar_tripped
            if not block_tripped:
                assert rows == list(_enumerate_ball_scalar(R, center, radius, guard))
            trips += block_tripped
        stacked = lattice._enumerate_balls(reduced, center, radius, guard)
        if any(tripped):
            with pytest.raises(CapExceeded):
                list(stacked)
        else:
            list(stacked)
            clean += 1
    assert trips > 0 and (clean > 0 or guard == 1)


def test_stacked_points_equal_single_products():
    for labels, lattices, center, radius in _stacked_ball_cases():
        reduced = [L.reduced for L in lattices]
        expected = [
            [
                v
                for v in (R.B @ np.array(c, dtype=float) for c in _enumerate_ball_scalar(R, center, radius, 10**7))
                if not all(abs(x) < 1e-12 for x in v)
            ]
            for R in reduced
        ]
        got = [[] for _ in reduced]
        for V, owner in lattice._ball_points(reduced, center, radius, 100_000):
            for v, o in zip(V, owner.tolist()):
                got[o].append(v)
        for label, want, have in zip(labels, expected, got):
            assert len(have) == len(want), label
            if want:
                assert np.array_equal(np.array(have), np.array(want)), label  # bit for bit


def test_batch_queries_equal_their_single_forms():
    dims = DimensionParams(1, 2)
    w = WeightPair.unweighted(1, 2)
    lattices = [
        apply_flow(lattice_from_matrix(sample_torus(substream(13, "batch-box", i), 1, 2), dims), 8.0, w)
        for i in range(40)
    ]
    lattice.reduce_lattices(lattices)
    answers = set()
    for box in (Box.open_cube(0.8, 3), Box.closed_cube(1.2, 3), lattice.r_box(0.3, 3), Box.closed_cube(2.7, 3)):
        points, owner = lattice.enumerate_in_box_batch(lattices, box)
        hits = lattice.has_nonzero_point_batch(lattices, box)
        for i, L in enumerate(lattices):
            alone = UnimodularLattice(L.basis, dims)  # no seeded reduction
            assert np.array_equal(points[owner == i], enumerate_in_box(alone, box))
            assert hits[i] == lattice.has_nonzero_point(alone, box) == bool(np.any(owner == i))
        answers.update(hits.tolist())
    assert answers == {False, True}
    with pytest.raises(CapExceeded):
        lattice.enumerate_in_box_batch(lattices, Box.closed_cube(2.7, 3), cap=20)
    assert lattice.enumerate_in_box_batch([], Box.closed_cube(1.0, 3))[0].shape == (0, 3)


def _contains_scalar(box, v):
    """Reference for Box.contains: the per-coordinate scalar test."""

    def tol(bound):
        return 1e-12 * max(1.0, abs(bound))

    for x, lo, hi, lo_open, hi_open in zip(v, box.lower, box.upper, box.lower_open, box.upper_open):
        if lo_open:
            if not lo < x - tol(x):
                return False
        elif x < lo - tol(lo):
            return False
        if hi_open:
            if not x < hi - tol(hi):
                return False
        elif x > hi + tol(hi):
            return False
    return True


def _around(x, steps=3):
    """x and its `steps` float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(steps):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("lower,upper", [((-1.5, 0.25), (0.75, 2.5)), ((-0.5, -3.0), (0.5, -2.0))])
def test_contains_rows_matches_scalar_test_at_every_face(lower, upper):
    values = []
    for i in range(2):
        vals = set()
        for b in (lower[i], upper[i]):
            t = 1e-12 * max(1.0, abs(b))
            for edge in (b, b - t, b + t, b / (1.0 - 1e-12), b / (1.0 + 1e-12)):
                vals.update(float(x) for x in _around(edge))
        vals.add(0.5 * (lower[i] + upper[i]))
        values.append(sorted(vals))
    V = np.array([(x, y) for x in values[0] for y in values[1]])
    for flags in range(16):
        lower_open = (bool(flags & 1), bool(flags & 2))
        upper_open = (bool(flags & 4), bool(flags & 8))
        box = Box(lower, upper, lower_open, upper_open)
        rows = box.contains_rows(V)
        expected = np.array([_contains_scalar(box, v) for v in V])
        assert np.array_equal(rows, expected), flags
        assert 0 < expected.sum() < len(V)
        assert [box.contains(v) for v in V] == expected.tolist()


def _pushed_by_formula(A, s, w):
    """g_s [[I, A], [0, I]] built entry by entry, as one lattice at a time was built."""
    m, n = A.shape
    basis = np.eye(m + n)
    basis[:m, m:] = A
    scale = np.exp(np.array([a * s for a in w.alpha] + [-b * s for b in w.beta]))
    return scale[:, None] * basis


@pytest.mark.parametrize(
    "w",
    [
        WeightPair.unweighted(1, 2),
        WeightPair.unweighted(2, 1),
        WeightPair((0.3, 0.7), (1.0,)),
        WeightPair.unweighted(2, 2),
        WeightPair((1.0,), (0.2, 0.3, 0.5)),
        WeightPair((0.25, 0.75), (0.6, 0.4)),
    ],
)
def test_flowed_lattices_bit_equal_to_one_lattice_at_a_time(w):
    dims = w.dims
    A = np.stack([sample_torus(substream(14, f"push-{w}", i), w.m, w.n) for i in range(60)])
    for s in (5.0, 10.0, -2.5):
        stack = lattice.flowed_lattices(lattice.matrix_bases(A), s, w)
        assert len(stack) == len(A)
        for a, L in zip(A, stack):
            assert L.dims == dims
            assert L.basis.tobytes() == apply_flow(lattice_from_matrix(a, dims), s, w).basis.tobytes()
            assert L.basis.tobytes() == _pushed_by_formula(a, s, w).tobytes()
            assert not L.basis.flags.writeable
    # one basis at a vector of times
    s = np.array([0.0, 1.0, 2.5, 7.0, 15.0])
    series = lattice.flowed_lattices(lattice_from_matrix(A[0], dims).basis, s, w)
    assert len(series) == len(s)
    for t, L in zip(s.tolist(), series):
        assert L.basis.tobytes() == apply_flow(lattice_from_matrix(A[0], dims), t, w).basis.tobytes()
        assert L.basis.tobytes() == _pushed_by_formula(A[0], t, w).tobytes()


def test_flowed_lattices_raise_what_one_lattice_raises():
    w = WeightPair.unweighted(1, 2)
    A = np.stack([sample_torus(substream(15, "push-guards", i), 1, 2) for i in range(4)])
    bases = lattice.matrix_bases(A)
    with pytest.raises(DomainError):
        lattice.flowed_lattices(bases, 500.5, w)
    with pytest.raises(DomainError):
        lattice.flowed_lattices(bases[0], np.array([1.0, -501.0]), w)
    with pytest.raises(DomainError):
        apply_flow(lattice_from_matrix(A[0]), 500.5, w)
    bad = A.copy()
    bad[2, 0, 1] = np.nan
    with pytest.raises(ValidationError):
        lattice.flowed_lattices(lattice.matrix_bases(bad), 3.0, w)
    with pytest.raises(ValidationError):
        lattice_from_matrix(bad[2])
    for other in (WeightPair.unweighted(1, 1), WeightPair.unweighted(2, 2)):
        with pytest.raises(ValidationError):
            lattice.flowed_lattices(bases, 3.0, other)
        with pytest.raises(ValidationError):
            apply_flow(lattice_from_matrix(A[0]), 3.0, other)
    with pytest.raises(ValidationError):  # same d, other (m, n)
        apply_flow(lattice_from_matrix(A[0]), 3.0, WeightPair.unweighted(2, 1))
    with pytest.raises(ValidationError):  # a stack at a vector of times
        lattice.flowed_lattices(bases, np.array([1.0, 2.0]), w)
    with pytest.raises(ValidationError):  # off |det| = 1, as UnimodularLattice refuses
        lattice.flowed_lattices(2.0 * bases, 3.0, w)
