import math

import numpy as np
import pytest

from dirichlet_lab.approx import DimensionParams, LogDrift, MaxWithHalf
from dirichlet_lab.errors import ValidationError
from dirichlet_lab.experiments import (
    VARIANT_LOWER,
    VARIANT_NDI,
    VARIANT_UPPER,
    ContrastReport,
    construct_primed_lattice,
    cross_validate_dani,
    dani_table,
    empirical_zero_one,
    ensemble_bits,
    orbit_hit_series,
    verify_disjointness,
)
from dirichlet_lab import experiments, rate
from dirichlet_lab.exact2d import Exact2D
from dirichlet_lab.lattice import WeightPair
from dirichlet_lab.rate import RateFunction, dani_rate, dani_time, s0_of
from dirichlet_lab.rng import sample_torus, sample_torus_fixedpoint, substream
from dirichlet_lab.targets import KIND_PRIMED, TargetSpec, in_target

W11 = WeightPair.unweighted(1, 1)
D11 = DimensionParams(1, 1)
RATE03 = RateFunction.constant(0.3, D11)


def test_zero_matrix_orbit_never_hits():
    # g_k Z^2 = diag(e^k, e^-k) Z^2 has Delta ~ k: no sub-target hits for k >= 1
    for variant, kw in ((VARIANT_UPPER, {}), (VARIANT_NDI, {"a": 0.9})):
        series = orbit_hit_series((0, 1), RATE03, variant, (1, 12), W11, **kw)
        assert not series.hits.any()


def test_unweighted_constant_rate_upper_equals_lower():
    a = float(substream(60, "orb", 0).random())
    up = orbit_hit_series(a, RATE03, VARIANT_UPPER, (1, 14), W11)
    lo = orbit_hit_series(a, RATE03, VARIANT_LOWER, (1, 14), W11)
    assert np.array_equal(up.hits, lo.hits)
    assert np.allclose(up.radii, lo.radii)


def test_orbit_purity_recompute():
    a = float(substream(61, "orb", 1).random())
    s1 = orbit_hit_series(a, RATE03, VARIANT_NDI, (5, 20), W11, a=0.7)
    s2 = orbit_hit_series(a, RATE03, VARIANT_NDI, (5, 20), W11, a=0.7)
    assert np.array_equal(s1.hits, s2.hits)


def test_ndi_monotone_in_a():
    rng = substream(62, "orb", 2)
    for _ in range(8):
        a_mat = float(rng.random())
        small = orbit_hit_series(a_mat, RATE03, VARIANT_NDI, (3, 25), W11, a=0.4)
        big = orbit_hit_series(a_mat, RATE03, VARIANT_NDI, (3, 25), W11, a=0.8)
        assert not np.any(small.hits & ~big.hits)


def test_lower_hits_imply_upper_on_monotone_rate():
    # decreasing rate, C_r = 1, unweighted: lower radius <= upper radius at k
    rate = RateFunction.explicit(lambda s: 0.4 / math.sqrt(s), 1.0, D11)
    rng = substream(63, "orb", 3)
    for _ in range(6):
        a_mat = float(rng.random())
        up = orbit_hit_series(a_mat, rate, VARIANT_UPPER, (2, 25), W11)
        lo = orbit_hit_series(a_mat, rate, VARIANT_LOWER, (2, 25), W11)
        assert not np.any(lo.hits & ~up.hits)


def test_variant_radius_guard():
    big = RateFunction.constant(0.45, D11)
    with pytest.raises(ValidationError):
        # omega1 C_r r = 3 * 0.45 > 1
        orbit_hit_series(0.5, big, VARIANT_UPPER, (1, 5), W11, C_r=3.0)


def test_ensemble_bits_scales_with_horizon():
    assert ensemble_bits(100) >= 192
    assert ensemble_bits(200) >= 320


def test_empirical_zero_one_contrast_smoke():
    div_psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    conv_psi = MaxWithHalf(LogDrift(1.0, 2.0, t0=math.exp(2.0)))
    div_rate = RateFunction.from_psi(div_psi, D11)
    conv_rate = RateFunction.from_psi(conv_psi, D11)
    div = empirical_zero_one(div_rate, W11, 60, (10, 30), a=0.9, seed=71)
    conv = empirical_zero_one(conv_rate, W11, 60, (10, 30), a=0.9, seed=71)
    assert div.tail_frequency > conv.tail_frequency
    assert div.tail_frequency > 0.2
    assert conv.tail_frequency < 0.2
    assert isinstance(div.histogram(), dict)


def test_empirical_zero_one_determinism():
    rate = RateFunction.constant(0.2, D11)
    r1 = empirical_zero_one(rate, W11, 50, (5, 15), a=0.5, seed=73)
    r2 = empirical_zero_one(rate, W11, 50, (5, 15), a=0.5, seed=73)
    assert r1.hit_counts == r2.hit_counts


def test_empirical_zero_one_members_are_their_substreams_without_building_them(monkeypatch):
    seen = []
    orbit = experiments.orbit_hit_series

    def record(A, *args, **kwargs):
        seen.append(A)
        return orbit(A, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("a member built its own substream")

    monkeypatch.setattr(experiments, "orbit_hit_series", record)
    monkeypatch.setattr(experiments, "substream", refuse)
    empirical_zero_one(RATE03, W11, 50, (5, 15), a=0.5, seed=73)
    bits = ensemble_bits(16.0)
    want = []
    for i in range(50):
        num, den = sample_torus_fixedpoint(substream(73, "zeroone", i), 1, 1, bits)
        want.append((num[0][0], den))
    assert sorted(seen) == sorted(want)


def test_construct_primed_lattice_verified():
    rng = substream(75, "primed", 0)
    for r in (1e-3, 3e-4):
        L = construct_primed_lattice(r, D11, rng=rng)
        assert in_target(L, TargetSpec(KIND_PRIMED, r))
        assert abs(abs(np.linalg.det(L.basis)) - 1.0) < 1e-9


def test_disjointness_j_value_and_guard():
    with pytest.raises(ValidationError):
        verify_disjointness(0.02, D11, W11, 10, seed=1)  # above e^-4 cap
    rep = verify_disjointness(math.exp(-8.0), D11, W11, 40, seed=77)
    assert rep.J == 2
    assert rep.violation_count == 0


def test_crossval_zero_matrix_consistent():
    psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    rep = cross_validate_dani((0, 1), psi, D11, W11, S=10.0)
    assert rep.consistent
    assert not rep.uncovered


def test_crossval_random_ensemble_consistent():
    psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    rng = substream(79, "crossval", 0)
    for _ in range(6):
        a = float(rng.random())
        rep = cross_validate_dani(a, psi, D11, W11, S=12.0)
        assert rep.consistent, rep.counterexamples


def test_crossval_grows_one_ladder_per_A(monkeypatch):
    # T = t(16) is past the dense backend's limit, so the scan reads the ladder
    # that the Delta grid already grew
    made = []
    init = Exact2D.__init__

    def counting_init(self, num, den):
        made.append((num, den))
        init(self, num, den)

    monkeypatch.setattr(Exact2D, "__init__", counting_init)
    psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    a = float(substream(81, "crossval", 2).random())
    rep = cross_validate_dani(a, psi, D11, W11, S=16.0)
    assert rep.T > 2e6
    assert made == [a.as_integer_ratio()]


def test_dani_table_inverts_each_row_once(monkeypatch):
    psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    grid = np.arange(s0_of(psi, D11), 20.0 + 1e-12, 0.05)
    want = [(float(s), dani_rate(psi, D11, float(s)), dani_time(psi, D11, float(s))) for s in grid]
    calls = []
    invert = rate._invert_time
    monkeypatch.setattr(rate, "_invert_time", lambda *args: calls.append(args) or invert(*args))
    rows = dani_table(psi, D11, 20.0)
    assert rows == want
    assert len(calls) == len(rows)


def test_crossval_grid_refinement_stability():
    psi = MaxWithHalf(LogDrift(1.0, 0.5, t0=math.exp(4.0)))
    rng = substream(80, "crossval", 1)
    for _ in range(3):
        a = float(rng.random())
        coarse = cross_validate_dani(a, psi, D11, W11, S=10.0, s_step=0.05)
        fine = cross_validate_dani(a, psi, D11, W11, S=10.0, s_step=0.025)
        assert coarse.consistent == fine.consistent


def test_float_orbit_and_disjointness_hits_equal_in_target(monkeypatch):
    # the float orbit series and verify_disjointness answer their flowed lists
    # in batched passes; every hit equals the lattice's own in_target answer
    from dirichlet_lab import experiments
    from dirichlet_lab.lattice import UnimodularLattice

    calls = []
    batched = experiments.thickened_hits

    def recorded(lattices, kind, radii, w):
        hits = batched(lattices, kind, radii, w)
        calls.append((lattices, kind, list(radii), w, hits))
        return hits

    monkeypatch.setattr(experiments, "thickened_hits", recorded)
    w21 = WeightPair(alpha=(0.6, 0.4), beta=(1.0,))
    A21 = sample_torus(substream(94, "worbit", 0), 2, 1)
    rate21 = RateFunction.constant(0.3, DimensionParams(2, 1), s0=1.0)
    orbit_hit_series(A21, rate21, VARIANT_NDI, (1, 8), w21, a=0.8)  # the cross-invariants case
    w12 = WeightPair.unweighted(1, 2)
    for i in range(4):
        A12 = sample_torus(substream(95, "worbit-12", i), 1, 2)
        rate12 = RateFunction.constant(0.3, DimensionParams(1, 2), s0=1.0)
        for variant in (VARIANT_NDI, VARIANT_UPPER):
            orbit_hit_series(A12, rate12, variant, (1, 14), w12, a=0.9)
    verify_disjointness(math.exp(-8.0), D11, W11, 40, seed=77)
    answers = set()
    for lattices, kind, radii, w, hits in calls:
        assert len(hits) == len(lattices) == len(radii)
        for L, r, hit in zip(lattices, radii, hits):
            assert hit == in_target(UnimodularLattice(L.basis, L.dims), TargetSpec(kind, r, w))
            answers.add(hit)
    assert len(calls) == 1 + 8 + 40 and answers == {False, True}
