import math

import numpy as np
import pytest

from dirichlet_lab import lattice, targets
from dirichlet_lab.approx import DimensionParams
from dirichlet_lab.errors import DimensionTooLarge, ValidationError
from dirichlet_lab.exact2d import Exact2D
from dirichlet_lab.exact2d import membership_profiles as exact_profiles
from dirichlet_lab.lattice import (
    Box,
    UnimodularLattice,
    WeightPair,
    apply_flow,
    boundary_tol,
    enumerate_in_box,
    flowed_lattices,
    has_nonzero_point,
    lattice_from_matrix,
    r_box,
    random_unimodular,
    standard_lattice,
)
from dirichlet_lab.rng import sample_torus, substream
from dirichlet_lab.targets import (
    KIND_PRIMED,
    KIND_SUB,
    KIND_THICK,
    KIND_THICK_PRIMED,
    TargetSpec,
    complement_within,
    in_target,
    in_target_grid_oracle,
    intersect_intervals,
    membership_profile,
    membership_profiles,
    merge_intervals,
    profile_keys,
    thickened_hits,
    thickened_witness_intervals,
    witness_from_logs,
)

W11 = WeightPair.unweighted(1, 1)
W21 = WeightPair(alpha=(0.6, 0.4), beta=(1.0,))
D11 = DimensionParams(1, 1)


def test_interval_utils():
    assert merge_intervals([(0, 1), (0.5, 2), (3, 4)]) == [(0, 2), (3, 4)]
    assert complement_within([(0.2, 0.5)], 0.0, 1.0) == [(0.0, 0.2), (0.5, 1.0)]
    assert intersect_intervals([(0, 1)], [(0.5, 2)]) == [(0.5, 1)]
    assert complement_within([], 0.0, 1.0) == [(0.0, 1.0)]


def test_spec_validation():
    with pytest.raises(ValidationError):
        TargetSpec(KIND_SUB, 1.5)
    with pytest.raises(ValidationError):
        TargetSpec(KIND_THICK, 0.5)  # weights missing
    with pytest.raises(ValidationError):
        TargetSpec("bogus", 0.5)


def test_zd_in_sub_any_radius():
    for r in (0.01, 0.3, 0.9):
        assert in_target(standard_lattice(D11), TargetSpec(KIND_SUB, r))
        assert in_target(standard_lattice(DimensionParams(2, 1)), TargetSpec(KIND_SUB, r))


def test_zd_primed_small_r():
    # (1, 0) lies in the slab (1 - r/4, 1 + r/4) x (-sqrt r, sqrt r)
    assert in_target(standard_lattice(D11), TargetSpec(KIND_PRIMED, 0.01))


def test_diag_flow_sub_boundary():
    # diag(e^0.5, e^-0.5) has Delta = 0.5 > 0.4: short vector inside the cube
    L = UnimodularLattice(np.diag([math.exp(0.5), math.exp(-0.5)]), D11)
    assert not in_target(L, TargetSpec(KIND_SUB, 0.4))
    assert in_target(L, TargetSpec(KIND_SUB, 0.6))


def test_nesting_primed_implies_sub():
    rng = substream(20, "nest", 0)
    hits = 0
    for _ in range(200):
        L = random_unimodular(D11, rng, shears=4, magnitude=2)
        r = float(rng.uniform(0.05, 0.9))
        if in_target(L, TargetSpec(KIND_PRIMED, r)):
            hits += 1
            assert in_target(L, TargetSpec(KIND_SUB, r))
    # the constructed ensemble contains integer lattices: primed does fire
    assert hits > 0


def test_nesting_thick_primed_implies_thick():
    rng = substream(21, "nest", 1)
    hits = 0
    for _ in range(150):
        L = random_unimodular(D11, rng, shears=4, magnitude=2)
        flowed = apply_flow(L, float(rng.uniform(0, 1)), W11)
        r = float(rng.uniform(0.05, 0.7))
        if in_target(flowed, TargetSpec(KIND_THICK_PRIMED, r, W11)):
            hits += 1
            assert in_target(flowed, TargetSpec(KIND_THICK, r, W11))
    assert hits > 0


def test_monotone_in_radius():
    rng = substream(22, "mono", 0)
    for kind in (KIND_SUB, KIND_PRIMED):
        for _ in range(100):
            L = random_unimodular(D11, rng, shears=4, magnitude=2)
            r1, r2 = sorted(rng.uniform(0.05, 0.9, size=2))
            if r2 - r1 < 1e-3:
                continue
            if in_target(L, TargetSpec(kind, float(r1))):
                assert in_target(L, TargetSpec(kind, float(r2)))


def test_thick_agrees_with_grid_oracle_unweighted():
    rng = substream(23, "grid", 0)
    disagreements = 0
    checked = 0
    for _ in range(350):
        L = random_unimodular(D11, rng, shears=4, magnitude=2)
        r = float(rng.uniform(0.05, 0.6))
        for kind in (KIND_THICK, KIND_THICK_PRIMED):
            spec = TargetSpec(kind, r, W11)
            ivs = thickened_witness_intervals(L, spec)
            endpoints = [e for iv in ivs for e in iv]
            # skip boundary-thin witnesses per the tolerance policy
            if ivs and sum(b - a for a, b in ivs) < 2e-3:
                continue
            got = in_target(L, spec)
            oracle = in_target_grid_oracle(L, spec, step=1e-4)
            checked += 1
            if got != oracle:
                disagreements += 1
    assert checked >= 550
    assert disagreements == 0


def test_thick_agrees_with_grid_oracle_weighted():
    rng = substream(24, "grid", 1)
    dims = DimensionParams(2, 1)
    checked = 0
    for _ in range(150):
        L = random_unimodular(dims, rng, shears=5, magnitude=2)
        r = float(rng.uniform(0.05, 0.5))
        for kind in (KIND_THICK, KIND_THICK_PRIMED):
            spec = TargetSpec(kind, r, W21)
            ivs = thickened_witness_intervals(L, spec)
            if ivs and sum(b - a for a, b in ivs) < 2e-3:
                continue
            assert in_target(L, spec) == in_target_grid_oracle(L, spec, step=1e-4)
            checked += 1
    assert checked >= 240


def test_thick_z2_explicit():
    # Z^2: already in sub(r) at s = 0, so thick holds for any r
    assert in_target(standard_lattice(D11), TargetSpec(KIND_THICK, 0.3, W11))


def test_membership_profile_matches_single_queries():
    dims = DimensionParams(1, 2)
    w = WeightPair.unweighted(1, 2)
    kinds = [KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED]
    radii = [0.05, 0.2, 0.5, 0.9]
    seen = {key: 0 for key in ((kind, r) for kind in kinds for r in radii)}
    for i in range(60):
        A = sample_torus(substream(12, "profile", i), 1, 2)
        L = apply_flow(lattice_from_matrix(A, dims), 10.0, w)
        profile = membership_profile(L, kinds, radii, w)
        assert set(profile) == set(seen)
        for (kind, r), hit in profile.items():
            fresh = UnimodularLattice(L.basis, L.dims)  # no cached reduction
            spec = TargetSpec(kind, r, w if kind in (KIND_THICK, KIND_THICK_PRIMED) else None)
            assert hit == in_target(fresh, spec), (i, kind, r)
            seen[(kind, r)] += hit
    # the samples reach both answers for every kind
    for kind in kinds:
        assert 0 < sum(seen[(kind, r)] for r in radii) < 60 * len(radii)


def test_membership_profile_validates():
    L = standard_lattice(DimensionParams(1, 2))
    with pytest.raises(ValidationError):
        membership_profile(L, ["bogus"], [0.2], None)
    with pytest.raises(ValidationError):
        membership_profile(L, [KIND_SUB], [1.5], None)
    with pytest.raises(ValidationError):
        membership_profile(L, [KIND_THICK], [0.2], None)
    with pytest.raises(ValidationError):
        membership_profile(L, [KIND_THICK], [0.2], W11)
    # the d = 2 table, on a float chunk and on a list of A, and its N = 1 form
    # answer no invalid key either, not even one whose every window the Delta
    # pre-filter would skip before any radius check
    assert Exact2D.of(0.3).delta_flowed(10.5) - 0.5 > 5.0 + 1e-9
    for kinds, radii in (
        (["bogus", KIND_SUB], [0.1]),
        ([KIND_SUB], [0.1, 1.5]),
        ([KIND_PRIMED], [-2.0]),
        ([KIND_THICK], [5.0]),
        ([KIND_THICK_PRIMED], [1.0]),
    ):
        for samples in (np.array([[0.3], [0.7]]), [0.3, (1, 3)]):
            with pytest.raises(ValidationError):
                exact_profiles(samples, 10.0, kinds, radii)
        with pytest.raises(ValidationError):
            Exact2D.of(0.3).membership_profile(10.0, kinds, radii)


def test_exact_witness_windows_check_r_before_the_prefilter():
    # Delta clears r by more than half the window at each bad window below, so
    # the pre-filter skips it; its radius is refused all the same
    ex = Exact2D.of(0.3)
    assert ex.delta_flowed(10.5) - 0.5 > 5.0 + 1e-9
    with pytest.raises(ValidationError):
        ex.hits_thick(10.0, 1.0, 5.0, False)
    with pytest.raises(ValidationError):
        ex.witness_intervals(10.0, 0.5, -1.0, True)
    good = [(k, 1.0, 0.1, primed) for k in (2.0, 5.0) for primed in (False, True)]
    want = ex.witness_intervals_batch(good)
    assert any(want)
    with pytest.raises(ValidationError):
        ex.witness_intervals_batch([*good[:2], (10.0, 1.0, 5.0, False), *good[2:]])


@pytest.mark.parametrize("kinds", [[KIND_PRIMED, KIND_SUB, KIND_PRIMED], [KIND_THICK, KIND_SUB, KIND_THICK]])
def test_both_tables_key_alike(kinds):
    # kinds outer, every repeat dropped in first-seen order, at d = 2 and d = 3
    radii = [0.2, 0.05, 0.2, 0.1]
    want = [(kind, r) for kind in dict.fromkeys(kinds) for r in (0.2, 0.05, 0.1)]
    w = WeightPair.unweighted(1, 2)
    L = apply_flow(lattice_from_matrix(np.array([[0.3, 0.6]]), w.dims), 5.0, w)
    keys, hits = membership_profiles([L], kinds, radii, w)
    assert keys == profile_keys(kinds, radii, w) == want and hits.shape == (1, len(want))
    keys, hits = exact_profiles(np.array([[0.3]]), 5.0, kinds, radii)
    assert keys == want and hits.shape == (1, len(want))
    # one pass over each argument, so iterators key alike too
    again, hits_again = exact_profiles([0.3], 5.0, iter(kinds), iter(radii))
    assert again == keys and hits_again.tolist() == hits.tolist()


def _single_query(L, kind, r, w):
    """One (kind, r) answer from its own has_nonzero_point / enumerate_in_box calls."""
    L = UnimodularLattice(L.basis, L.dims)  # no cached reduction
    if kind in (KIND_THICK, KIND_THICK_PRIMED):
        return bool(thickened_witness_intervals(L, TargetSpec(kind, r, w)))
    sub = not has_nonzero_point(L, Box.open_cube(math.exp(-r), L.d))
    if kind == KIND_SUB or not sub:
        return sub
    return has_nonzero_point(L, r_box(r, L.d))


@pytest.mark.parametrize(
    "w",
    [
        WeightPair.unweighted(1, 2),
        WeightPair.unweighted(2, 1),
        WeightPair(alpha=(1.0,), beta=(0.7, 0.3)),
        WeightPair.unweighted(2, 2),
        WeightPair(alpha=(0.6, 0.4), beta=(0.5, 0.5)),
        WeightPair.unweighted(1, 3),
    ],
)
def test_membership_profile_matches_separate_enumerations(w):
    dims = w.dims
    kinds = [KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED]
    radii = [0.02, 0.1, 0.3, 0.6, 0.95]
    kind_sets = [kinds, [KIND_SUB, KIND_PRIMED], [KIND_PRIMED], [KIND_SUB], [KIND_THICK_PRIMED, KIND_SUB]]
    seen = {kind: 0 for kind in kinds}
    for i in range(24):
        A = sample_torus(substream(14, f"profile-{w}", i), dims.m, dims.n)
        L = apply_flow(lattice_from_matrix(A, dims), (5.0, 10.0, 12.0)[i % 3], w)
        expected = {(kind, r): _single_query(L, kind, r, w) for r in radii for kind in kinds}
        for kind in kinds:
            seen[kind] += sum(expected[(kind, r)] for r in radii)
        for chosen in kind_sets:
            for rs in (radii, [radii[i % len(radii)]]):
                profile = membership_profile(UnimodularLattice(L.basis, dims), chosen, rs, w)
                assert list(profile) == [(kind, r) for kind in chosen for r in rs]
                for key, hit in profile.items():
                    assert type(hit) is bool and hit == expected[key], (i, chosen, key)
    # the samples reach both answers for every kind
    for kind in kinds:
        assert 0 < seen[kind] < 24 * len(radii), kind


_KIND_MIXES = [
    ([KIND_SUB, KIND_PRIMED], [0.02 * 10 ** (i / 7) for i in range(8)]),
    ([KIND_THICK, KIND_THICK_PRIMED], [0.2]),
    ([KIND_THICK], [0.1, 0.4]),
    ([KIND_THICK_PRIMED, KIND_SUB], [0.1, 0.4]),
    ([KIND_SUB, KIND_PRIMED], [0.9]),  # the slab probe
    ([KIND_PRIMED], [0.6]),
]


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2)])
def test_membership_profiles_equal_per_lattice_profiles(m, n):
    # every pass of the batched profile answers as the single lattice's own
    # profile, whatever the chunk; the samples reach both answers of every kind
    dims = DimensionParams(m, n)
    w = WeightPair.unweighted(m, n)
    bases = [
        apply_flow(lattice_from_matrix(sample_torus(substream(28, f"chunks-{m}{n}", i), m, n), dims), s, w).basis
        for i in range(30)
        for s in (6.0, 10.0)
    ]
    seen = set()
    for kinds, radii in _KIND_MIXES:
        want = [membership_profile(UnimodularLattice(b, dims), kinds, radii, w) for b in bases]
        seen.update((kind, hit) for profile in want for (kind, _), hit in profile.items())
        for chunk in (1, 7, 256):
            got = []
            for start in range(0, len(bases), chunk):
                part = [UnimodularLattice(b, dims) for b in bases[start : start + chunk]]
                keys, hits = membership_profiles(part, kinds, radii, w)
                assert hits.shape == (len(part), len(keys))
                got += [dict(zip(keys, row)) for row in hits.tolist()]
            assert got == want, (kinds, radii, chunk)
    kinds = {kind for mix, _ in _KIND_MIXES for kind in mix}
    assert seen == {(kind, hit) for kind in kinds for hit in (False, True)}


def test_cusp_lattice_profile_exits_early(monkeypatch):
    # A = 0 flowed to s = 15: the cube of half-width ~1 holds ~1e7 lattice
    # points, but the probe of the smallest cube finds one at once
    dims = DimensionParams(1, 2)
    w = WeightPair.unweighted(1, 2)
    L = apply_flow(lattice_from_matrix(np.zeros((1, 2)), dims), 15.0, w)

    def no_box_enumeration(*args, **kwargs):
        raise AssertionError("membership_profile enumerated a box")

    monkeypatch.setattr(targets, "enumerate_in_box_batch", no_box_enumeration)
    radii = [0.02, 0.05, 0.1, 0.2]
    profile = membership_profile(L, [KIND_SUB, KIND_PRIMED], radii, w)
    assert profile == {(kind, r): False for r in radii for kind in (KIND_SUB, KIND_PRIMED)}


# The per-point s-interval formulas that targets.witness_from_logs replaced,
# kept as the reference its interval lists must equal bit for bit.
def _not_empty(lo, hi):
    """The interval rule through boundary_tol: hi - lo above the band at the
    point of [lo, hi] nearest zero."""
    return hi - lo > boundary_tol(min(abs(lo), abs(hi)) if lo * hi > 0.0 else 0.0)


def _cube_entry_interval_reference(v, r, w):
    m = w.m
    lo, hi = -math.inf, math.inf
    for i, a in enumerate(w.alpha):
        x = abs(v[i])
        if x > 0.0:
            hi = min(hi, (-r - math.log(x)) / a)
    for j, b in enumerate(w.beta):
        x = abs(v[m + j])
        if x > 0.0:
            lo = max(lo, (r + math.log(x)) / b)
    return (lo, hi) if _not_empty(lo, hi) else None


def _slab_entry_interval_reference(v, r, w):
    m, d = w.m, w.m + w.n
    if v[0] <= 0.0:
        return None
    eps = r / (2 * d)
    half_log_r = 0.5 * math.log(r)
    lo = math.log1p(-eps) - math.log(v[0])
    hi = math.log1p(eps) - math.log(v[0])
    lo /= w.alpha[0]
    hi /= w.alpha[0]
    for i in range(1, m):
        x = abs(v[i])
        if x > 0.0:
            hi = min(hi, (half_log_r - math.log(x)) / w.alpha[i])
    for j, b in enumerate(w.beta):
        x = abs(v[m + j])
        if x > 0.0:
            lo = max(lo, (math.log(x) - half_log_r) / b)
    return (lo, hi) if _not_empty(lo, hi) else None


def _witness_intervals_reference(candidates, spec):
    cube_hits, slab_hits = [], []
    for v in candidates.tolist():
        iv = _cube_entry_interval_reference(v, spec.r, spec.weights)
        if iv is not None:
            cube_hits.append(iv)
        if spec.base_kind == KIND_PRIMED:
            iv = _slab_entry_interval_reference(v, spec.r, spec.weights)
            if iv is not None:
                slab_hits.append(iv)
    avoid = complement_within(merge_intervals(cube_hits), 0.0, spec.window)
    if spec.base_kind == KIND_SUB:
        return avoid
    return intersect_intervals(avoid, merge_intervals(slab_hits))


_KERNEL_WEIGHTS = [
    WeightPair.unweighted(1, 2),
    WeightPair.unweighted(2, 1),
    WeightPair(alpha=(1.0,), beta=(0.3, 0.7)),
    W21,
    WeightPair.unweighted(2, 2),
    WeightPair(alpha=(0.25, 0.75), beta=(0.6, 0.4)),
    WeightPair(alpha=(1.0,), beta=(0.5, 0.2, 0.3)),
]


@pytest.mark.parametrize("w", _KERNEL_WEIGHTS)
def test_witness_kernel_is_bit_equal_to_per_point_formulas(w):
    dims = w.dims
    nonempty = 0
    for i in range(12):
        A = sample_torus(substream(25, f"kernel-{w.alpha}-{w.beta}", i), dims.m, dims.n)
        L = apply_flow(lattice_from_matrix(A, dims), 2.0 + 0.5 * i, w)
        for kind in (KIND_THICK, KIND_THICK_PRIMED):
            cube = targets._candidate_cube(targets._WINDOWS[kind], dims.d)
            candidates = enumerate_in_box(L, cube)
            for r in (0.02, 0.1, 0.3, 0.7):
                spec = TargetSpec(kind, r, w)
                got = thickened_witness_intervals(L, spec)
                assert repr(got) == repr(_witness_intervals_reference(candidates, spec))
                nonempty += bool(got)
    assert nonempty >= 10


@pytest.mark.parametrize("w", _KERNEL_WEIGHTS)
def test_grouped_kernel_equals_one_call_per_query(w):
    dims = w.dims
    rng = substream(26, f"grouped-{w.alpha}-{w.beta}", 0)
    no_rows = np.zeros((0, dims.d))
    for i in range(6):
        A = sample_torus(substream(25, f"kernel-{w.alpha}-{w.beta}", i), dims.m, dims.n)
        L = apply_flow(lattice_from_matrix(A, dims), 2.0 + 0.5 * i, w)
        groups = []  # (candidates, query), one per query
        for kind in (KIND_THICK, KIND_THICK_PRIMED):
            candidates = enumerate_in_box(L, targets._candidate_cube(targets._WINDOWS[kind], dims.d))
            for r in (0.02, 0.1, 0.3, 0.7):
                spec = TargetSpec(kind, r, w)
                groups.append((candidates, targets._query(spec)))
                assert repr(thickened_witness_intervals(L, spec)) == repr(
                    _witness_intervals_reference(candidates, spec)
                )
        groups += [(no_rows, (0.1, False, 0.0, 1.0)), (no_rows, (0.1, True, 0.0, 0.5))]
        singles = [
            witness_from_logs(
                targets._log_moduli(rows), rows[:, 0] > 0.0, np.zeros(len(rows), dtype=np.intp), [query], w
            )[0]
            for rows, query in groups
        ]
        rows = np.concatenate([rows for rows, _ in groups])
        owner = np.repeat(np.arange(len(groups)), [len(rows) for rows, _ in groups])
        order = rng.permutation(len(rows))
        rows, owner = rows[order], owner[order]
        got = witness_from_logs(
            targets._log_moduli(rows), rows[:, 0] > 0.0, owner, [query for _, query in groups], w
        )
        assert repr(got) == repr(singles)
        assert got[-2:] == [[(0.0, 1.0)], []]  # a query without rows: sub holds, primed fails
        # the same queries over one table of distinct points, each entry naming its point:
        # thick and thick_primed at one r share the cube-entry endpoints of the e^0.5 cube
        points = groups[0][0]
        inside = np.flatnonzero(targets._candidate_cube(0.5, dims.d).contains_rows(points))
        assert np.array_equal(points[inside], groups[4][0])
        entries = [np.arange(len(points))] * 4 + [inside] * 4 + [inside[:0]] * 2
        point = np.concatenate(entries)[order]
        shared = witness_from_logs(
            targets._log_moduli(points), points[:, 0] > 0.0, owner, [query for _, query in groups], w, point
        )
        assert repr(shared) == repr(singles)


def _face_rows(box: Box):
    """One row per face of a closed box centred at 0, just outside the face
    and 0 in every other coordinate (log -inf there, the widest s-range)."""
    rows = []
    for k, hi in enumerate(box.upper):
        for sign in (1.0, -1.0):
            row = np.zeros(box.d)
            row[k] = sign * hi * (1.0 + 4e-12)
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("w", _KERNEL_WEIGHTS)
def test_candidate_box_leaves_out_only_rows_that_enter_no_base_target(w):
    # every row of the e^window cube outside a spec's _candidate_box, and
    # every row just outside one of the box's faces, enters neither the cube
    # nor (thick_primed) the slab on [0, window): alone, it keeps sub on the
    # whole window and gives primed nothing
    dims = w.dims
    lattices = [
        apply_flow(lattice_from_matrix(sample_torus(substream(25, f"kernel-{w.alpha}-{w.beta}", i), dims.m, dims.n), dims), 2.0 + 0.5 * i, w)
        for i in range(6)
    ]
    for kind in (KIND_THICK, KIND_THICK_PRIMED):
        window = targets._WINDOWS[kind]
        cube = targets._candidate_cube(window, dims.d)
        rows = np.concatenate([enumerate_in_box(L, cube) for L in lattices])
        for r in (0.02, 0.1, 0.3, 0.7):
            spec = TargetSpec(kind, r, w)
            box = targets._candidate_box([targets._query(spec)], w)
            faces = _face_rows(box)
            assert not box.contains_rows(faces).any() and cube.contains_rows(faces).all()
            out = rows[~box.contains_rows(rows)]
            assert out.shape[0] > 0
            out = np.concatenate([out, faces])
            logs, owner = targets._log_moduli(out), np.arange(len(out))
            queries = [(r, False, 0.0, window)] + ([(r, True, 0.0, window)] if spec.base_kind == KIND_PRIMED else [])
            for query in queries:
                got = witness_from_logs(logs, out[:, 0] > 0.0, owner, [query] * len(out), w)
                assert got == [[] if query[1] else [(0.0, window)]] * len(out), (kind, r, query)


@pytest.mark.parametrize("w", _KERNEL_WEIGHTS)
def test_thickened_hits_equal_the_answers_of_the_e_window_cube(w):
    # orbit-style: one A flowed to k = 1..14 at shrinking radii, each answer
    # the kernel's over every point of the e^window cube
    dims = w.dims
    radii = [0.7 * 0.8**k for k in range(1, 15)]
    seen = set()
    for i in range(3):
        A = sample_torus(substream(30, f"orbit-box-{w.alpha}-{w.beta}", i), dims.m, dims.n)
        flowed = flowed_lattices(lattice_from_matrix(A, dims).basis, np.arange(1.0, 15.0), w)
        for kind in (KIND_THICK, KIND_THICK_PRIMED):
            want = []
            for L, r in zip(flowed, radii):
                spec = TargetSpec(kind, r, w)
                points = enumerate_in_box(L, targets._candidate_cube(spec.window, dims.d), cap=targets._CAP)
                owner = np.zeros(len(points), dtype=np.intp)
                found = witness_from_logs(targets._log_moduli(points), points[:, 0] > 0.0, owner, [targets._query(spec)], w)
                want.append(bool(found[0]))
            assert thickened_hits(flowed, kind, radii, w) == want, (i, kind)
            seen.update(want)
    assert seen == {False, True}


def test_thickened_hits_needs_one_radius_per_lattice():
    # 4 radii for 6 lattices raised numpy's IndexError, and 8 answered 8 lattices
    w = WeightPair.unweighted(1, 2)
    A = sample_torus(substream(30, "radii-count", 0), 1, 2)
    flowed = flowed_lattices(lattice_from_matrix(A, w.dims).basis, np.arange(1.0, 7.0), w)
    for count in (4, 8, 0):
        with pytest.raises(ValidationError, match="one per lattice"):
            thickened_hits(flowed, KIND_THICK, [0.3] * count, w)
    assert len(thickened_hits(flowed, KIND_THICK, [0.3] * 6, w)) == 6


def test_table_guards_run_before_any_reduction(monkeypatch):
    # a list of mixed dimensions, d > 6 and thickened weights that do not fit
    # the lattices raise the lab's own errors, and no lattice is reduced first
    def no_reduction(bases):
        raise AssertionError("a lattice was reduced before the guards ran")

    monkeypatch.setattr(lattice, "lll_reduce_batch", no_reduction)
    w12 = WeightPair.unweighted(1, 2)
    mixed = [standard_lattice(DimensionParams(1, 2)), standard_lattice(DimensionParams(2, 2))]
    for kinds, radii in (([KIND_SUB], [0.1]), ([KIND_SUB, KIND_PRIMED], [0.1, 0.2]), ([KIND_PRIMED], [0.1])):
        with pytest.raises(ValidationError):
            membership_profiles(mixed, kinds, radii, None)
    with pytest.raises(ValidationError):
        thickened_hits(mixed, KIND_THICK, [0.1, 0.1], w12)
    big = [standard_lattice(DimensionParams(4, 3))] * 2
    with pytest.raises(DimensionTooLarge):
        membership_profiles(big, [KIND_SUB, KIND_PRIMED], [0.1], None)
    with pytest.raises(DimensionTooLarge):
        thickened_hits(big, KIND_THICK_PRIMED, [0.1, 0.1], WeightPair.unweighted(4, 3))
    other = [standard_lattice(DimensionParams(2, 1))] * 2
    with pytest.raises(ValidationError, match="weights"):
        membership_profiles(other, [KIND_SUB, KIND_THICK], [0.1], w12)
    with pytest.raises(ValidationError, match="weights"):
        thickened_hits(other, KIND_THICK, [0.1, 0.1], w12)
    with pytest.raises(ValidationError, match="weights"):
        thickened_witness_intervals(other[0], TargetSpec(KIND_THICK, 0.1, w12))


@pytest.mark.parametrize(
    "w", [WeightPair.unweighted(1, 2), WeightPair.unweighted(2, 1), WeightPair(alpha=(1.0,), beta=(0.3, 0.7))]
)
def test_thick_with_sub_and_primed_answers_each_key_as_asked_alone(w):
    # the box enumerated for thick must also hold the open cube and the slab
    # sub and primed test: the slab reaches 1 + r/2d in its first
    # coordinate, past every bound of the thickened cube
    dims = w.dims
    lattices = [
        apply_flow(lattice_from_matrix(sample_torus(substream(31, f"mixed-{w.alpha}-{w.beta}", i), dims.m, dims.n), dims), 0.25 * (i % 40), w)
        for i in range(200)
    ]
    keys, hits = membership_profiles(lattices, [KIND_THICK, KIND_SUB, KIND_PRIMED], [0.05, 0.7], w)
    for col, (kind, r) in enumerate(keys):
        alone = membership_profiles(lattices, [kind], [r], w)[1][:, 0]
        assert hits[:, col].tolist() == alone.tolist(), (kind, r)
        assert 0 < alone.sum() < len(lattices), (kind, r)


def test_membership_profile_answers_every_thick_query_from_one_kernel_call(monkeypatch):
    dims = DimensionParams(1, 2)
    w = WeightPair.unweighted(1, 2)
    kinds, radii = [KIND_THICK, KIND_THICK_PRIMED], [0.1, 0.3]
    calls = []

    def counted(*args):
        calls.append(len(args[3]))
        return witness_from_logs(*args)

    seen = set()
    for i in range(30):
        A = sample_torus(substream(27, "profile-thick", i), 1, 2)
        L = apply_flow(lattice_from_matrix(A, dims), 8.0, w)
        monkeypatch.setattr(targets, "witness_from_logs", counted)
        profile = membership_profile(L, kinds, radii, w)
        monkeypatch.undo()
        assert calls.pop() == 4 and not calls
        for (kind, r), hit in profile.items():
            assert hit == in_target(UnimodularLattice(L.basis, dims), TargetSpec(kind, r, w)), (i, kind, r)
            seen.add((kind, hit))
    assert seen == {(kind, hit) for kind in kinds for hit in (False, True)}


def test_thick_queries_reject_weights_of_other_dims():
    dims = DimensionParams(1, 2)
    A = sample_torus(substream(27, "dims", 0), 1, 2)
    L = apply_flow(lattice_from_matrix(A, dims), 5.0, WeightPair.unweighted(1, 2))
    for kind in (KIND_THICK, KIND_THICK_PRIMED):
        spec = TargetSpec(kind, 0.2, WeightPair.unweighted(2, 1))
        for query in (thickened_witness_intervals, in_target_grid_oracle, in_target):
            with pytest.raises(ValidationError, match="target weights do not match lattice dims"):
                query(L, spec)
