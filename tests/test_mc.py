import math

import numpy as np
import pytest

from dirichlet_lab import lattice, mc
from dirichlet_lab.approx import DimensionParams
from dirichlet_lab.errors import BudgetExceeded, DomainError, ValidationError
from dirichlet_lab.exact2d import MAX_SIGMA, Exact2D
from dirichlet_lab.lattice import UnimodularLattice, WeightPair
from dirichlet_lab.mc import (
    CoordinateRegion,
    McEstimate,
    estimate_measure_equidist,
    fit_scaling,
    lower_bound_region_volume,
    measure_profile,
    pair_correlation,
    sample_region_lattice,
    wilson_interval,
)
from dirichlet_lab.rate import RateFunction
from dirichlet_lab.rng import sample_torus, substream
from dirichlet_lab.targets import (
    KIND_PRIMED,
    KIND_SUB,
    KIND_THICK,
    KIND_THICK_PRIMED,
    TargetSpec,
    in_target,
)

W11 = WeightPair.unweighted(1, 1)
D11 = DimensionParams(1, 1)


def test_wilson_interval_contains_p_hat():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0


def test_wilson_calibration():
    # synthetic Bernoulli(p): the 95% interval covers p in >= 90/100 runs
    p = 0.3
    n = 500
    covered = 0
    for run in range(100):
        g = substream(50, "wilson", run)
        hits = int((g.random(n) < p).sum())
        lo, hi = wilson_interval(hits, n)
        covered += lo <= p <= hi
    assert covered >= 90


def test_estimate_determinism():
    spec = TargetSpec(KIND_SUB, 0.3)
    a = estimate_measure_equidist(spec, W11, 6.0, 2000, seed=7)
    b = estimate_measure_equidist(spec, W11, 6.0, 2000, seed=7)
    assert a == b
    c = estimate_measure_equidist(spec, W11, 6.0, 2000, seed=8)
    assert c.mean != a.mean or c.params_hash != a.params_hash


def test_estimate_preconditions():
    spec = TargetSpec(KIND_SUB, 0.3)
    with pytest.raises(ValidationError):
        estimate_measure_equidist(spec, W11, 3.0, 2000, seed=1)
    with pytest.raises(ValidationError):
        estimate_measure_equidist(spec, W11, 6.0, 10, seed=1)


def test_estimate_sanity_bands():
    # large radius: strictly inside (0,1); tiny radius: tiny mean
    big = estimate_measure_equidist(TargetSpec(KIND_SUB, 0.69), W11, 8.0, 5000, seed=3)
    assert 0.0 < big.mean < 1.0
    small = estimate_measure_equidist(TargetSpec(KIND_SUB, 0.01), W11, 8.0, 5000, seed=3)
    assert small.mean < 0.01


def test_estimate_push_stability():
    # s_push = 8 vs 12 on the same sample count: difference within CI slack
    spec = TargetSpec(KIND_SUB, 0.3)
    e1 = estimate_measure_equidist(spec, W11, 8.0, 20_000, seed=5)
    e2 = estimate_measure_equidist(spec, W11, 12.0, 20_000, seed=5)
    slack = (e1.ci_high - e1.ci_low) / 2 + (e2.ci_high - e2.ci_low) / 2
    assert abs(e1.mean - e2.mean) <= slack


def test_profile_monotone_in_radius_shared_samples():
    rs = [0.05, 0.1, 0.2, 0.4]
    prof = measure_profile([KIND_SUB, KIND_PRIMED], rs, W11, 8.0, 4000, seed=11)
    sub_means = [prof[(KIND_SUB, r)].mean for r in rs]
    assert all(b >= a for a, b in zip(sub_means, sub_means[1:]))
    for r in rs:
        assert prof[(KIND_PRIMED, r)].mean <= prof[(KIND_SUB, r)].mean


def test_profile_matches_float_path_small():
    # exact scalar path vs generic float path on the same substreams
    rs = [0.3]
    prof = measure_profile([KIND_SUB], rs, W11, 6.0, 1500, seed=13)
    from dirichlet_lab.lattice import apply_flow, lattice_from_matrix
    from dirichlet_lab.rng import sample_torus

    hits = 0
    for i in range(1500):
        A = sample_torus(substream(13, "measure", i), 1, 1)
        L = apply_flow(lattice_from_matrix(A), 6.0, W11)
        hits += in_target(L, TargetSpec(KIND_SUB, 0.3))
    assert prof[(KIND_SUB, 0.3)].mean == pytest.approx(hits / 1500)


def test_region_guards():
    with pytest.raises(DomainError):
        CoordinateRegion(r=0.01, d=2)  # above the cap for c0 = 0.1
    CoordinateRegion(r=1e-4, d=2)


def test_region_extra_condition_shrinks_volume():
    r = 1e-4
    on = lower_bound_region_volume(CoordinateRegion(r=r, d=2, extra=True), 20_000, seed=17)
    off = lower_bound_region_volume(
        CoordinateRegion(r=r, d=2, extra=False), 20_000, seed=17
    )
    assert on.mean <= off.mean + 1e-12


def test_region_volume_matches_quadrature_d2():
    # exact d = 2 volume: (r/4) * integral_0^{sqrt r} min(c0/2, r/(2u)) du / zeta(2)
    from scipy.integrate import quad

    c0 = 0.1
    for r in (1e-4, 1e-3):
        est = lower_bound_region_volume(CoordinateRegion(r=r, d=2, c0=c0), 200_000, seed=19)
        integral, _ = quad(lambda u: min(c0 / 2.0, r / (2.0 * u)) if u > 0 else c0 / 2.0, 0, math.sqrt(r))
        exact = (r / 4.0) * integral / 1.6449340668482264
        assert est.ci_low <= exact <= est.ci_high
        assert est.mean == pytest.approx(exact, rel=0.05)


def test_region_scaling_two_point_slope():
    # ratio between r = 1e-3 and 1e-4 volumes tracks r^2 log(1/r) within 2x
    v1 = lower_bound_region_volume(CoordinateRegion(r=1e-4, d=2), 100_000, seed=23).mean
    v2 = lower_bound_region_volume(CoordinateRegion(r=1e-3, d=2), 100_000, seed=23).mean
    predicted = (1e-3 / 1e-4) ** 2 * math.log(1e3) / math.log(1e4)
    assert predicted / 2 <= v2 / v1 <= predicted * 2


def test_region_sample_projects_into_primed_target():
    rng = substream(29, "regionlat", 0)
    r_region = 1e-3
    region = CoordinateRegion(r=r_region, d=2)
    r_target = -math.log(1.0 - r_region)
    for _ in range(25):
        basis = sample_region_lattice(region, rng)
        L = UnimodularLattice(basis, D11)
        assert abs(abs(np.linalg.det(L.basis)) - 1.0) < 1e-9
        assert in_target(L, TargetSpec(KIND_PRIMED, r_target))


def test_fit_scaling_recovers_synthetic_exponent():
    dims = D11  # kappa on the plain targets is kappa_d + 1 = 2 at d = 2
    rs = np.geomspace(0.02, 0.2, 8)
    mus = [3.0 * r**2 * math.log(1 / r) for r in rs]
    fit = fit_scaling(rs, mus, dims, thickened=False, freeze_lambda=True)
    assert fit.kappa_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.reference_exponent == 2.0
    fit2 = fit_scaling(rs, mus, dims, thickened=True)
    assert fit2.reference_exponent == 1.0


def test_fit_scaling_guards():
    with pytest.raises(ValidationError):
        fit_scaling([0.1, 0.2, 0.3], [1, 2, 3], D11)
    with pytest.raises(ValidationError):
        fit_scaling([0.01, 0.03, 0.1, 0.2], [1.0, 2.0, 0.0, 3.0], D11)


def test_fit_scaling_counts_distinct_radii():
    # four radii but two distinct ones: a fit over them reads se ~ 1e-15
    with pytest.raises(ValidationError, match="distinct"):
        fit_scaling([0.02, 0.02, 0.02, 0.2], [0.01, 0.01, 0.01, 0.3], D11)
    assert mc.fit_refusal([0.1, 0.12, 0.15, 0.2], [1, 2, 3, 4]) is not None
    rs = [0.02, 0.05, 0.1, 0.2]
    assert mc.fit_refusal(rs, [1, 2, 3, 4]) is None
    assert mc.fit_refusal(rs, [1, 2, 0, 4]) is not None


def test_pair_correlation_guards():
    rate = RateFunction.constant(0.3, D11)
    rho = lambda k: 0.5 * 0.9 * rate(float(k + 1))
    with pytest.raises(ValidationError):
        pair_correlation(5, 5, rho, W11, 1000, seed=1)


def test_pair_correlation_independent_sanity():
    rate = RateFunction.constant(0.3, D11)
    rho = lambda k: 0.5 * 0.9 * rate(float(k + 1))
    rep = pair_correlation(6, 21, rho, W11, 4000, seed=31, independent=True)
    assert not rep.zero_hit
    # independent samples decorrelate: centered moment within a few sigma of 0
    sigma = math.sqrt(rep.b_i * rep.b_j / rep.count) + 1e-12
    assert abs(rep.b_ij) <= 5 * sigma


def test_pair_correlation_gap_decorrelates():
    rate = RateFunction.constant(0.3, D11)
    rho = lambda k: 0.5 * 0.9 * rate(float(k + 1))
    rep = pair_correlation(6, 21, rho, W11, 8000, seed=37)
    assert not rep.zero_hit
    assert rep.ratio < 1.0


def _pair_correlation_reference(i, j, rho, N, seed, independent, label="paircorr"):
    """pair_correlation from one Exact2D per sample and its hits_thick."""
    r_i, r_j = 2.0 * float(rho(i)), 2.0 * float(rho(j))
    window = 0.5  # thick_primed
    c_i = c_j = c_ij = 0
    for k in range(N):
        ex1 = Exact2D.of(sample_torus(substream(seed, label, k), 1, 1))
        h_i = ex1.hits_thick(float(i), window, r_i, primed=True)
        ex2 = Exact2D.of(sample_torus(substream(seed, label + "-indep", k), 1, 1)) if independent else ex1
        h_j = ex2.hits_thick(float(j), window, r_j, primed=True)
        c_i += h_i
        c_j += h_j
        c_ij += h_i and h_j
    b_i, b_j = c_i / N, c_j / N
    b_ij = c_ij / N - b_i * b_j
    zero = c_i == 0 or c_j == 0
    ratio = math.inf if zero else abs(b_ij) / (b_i * b_j)
    params_hash = mc._params_hash(i, j, r_i, r_j, N, seed, independent, label)
    return mc.PairCorrelationReport(i, j, b_i, b_j, b_ij, ratio, N, zero, params_hash)


@pytest.mark.parametrize("independent", [False, True])
def test_pair_correlation_matches_a_per_sample_loop(independent):
    # N = 600 leaves a last chunk of 600 - 512 = 88 samples; repr prints
    # every float field round-trip exact, so equal reprs are equal bits
    rate = RateFunction.constant(0.3, D11)
    rho = lambda k: 0.5 * 0.9 * rate(float(k + 1))
    rep = pair_correlation(3, 8, rho, W11, 600, seed=41, independent=independent)
    assert 600 % mc._CHUNK == 88
    assert repr(rep) == repr(_pair_correlation_reference(3, 8, rho, 600, 41, independent))
    assert not rep.zero_hit


@pytest.mark.parametrize("dims", [(1, 1), (1, 2)])
def test_measure_profile_answers_a_repeated_key_once(dims):
    w = WeightPair.unweighted(*dims)
    unique = measure_profile([KIND_SUB, KIND_PRIMED], [0.1, 0.05], w, 10.0, 1000, seed=8)
    repeated = measure_profile([KIND_SUB, KIND_PRIMED, KIND_SUB], [0.1, 0.05, 0.1], w, 10.0, 1000, seed=8)
    assert list(repeated) == list(unique) and repeated == unique
    assert unique[(KIND_PRIMED, 0.1)].mean > 0


def test_measure_profile_reduces_each_sample_once(monkeypatch):
    singles, stacks = [], []
    single, batch = lattice.lll_reduce, lattice.lll_reduce_batch
    monkeypatch.setattr(lattice, "lll_reduce", lambda B: singles.append(1) or single(B))
    monkeypatch.setattr(lattice, "lll_reduce_batch", lambda B: stacks.append(len(B)) or batch(B))
    w = WeightPair.unweighted(1, 2)
    radii = [0.02 * 10 ** (i / 7) for i in range(8)]
    profile = measure_profile([KIND_SUB, KIND_PRIMED], radii, w, 10.0, 1000, seed=0)
    assert singles == [] and sum(stacks) == 1000
    assert stacks == [mc._CHUNK, 1000 - mc._CHUNK] == [512, 488]
    assert len(profile) == 16


@pytest.mark.parametrize(
    "chunk, dims",
    [pytest.param(chunk, (1, 2), id=str(chunk)) for chunk in (1, 7, 1000)]
    + [pytest.param(chunk, (1, 1), id=f"d2-{chunk}") for chunk in (1, 7, 1000)],
)
def test_measure_profile_does_not_depend_on_the_lll_chunk(monkeypatch, chunk, dims):
    w = WeightPair.unweighted(*dims)
    args = (["sub", "primed"], [0.05, 0.2], w, 10.0, 1000)
    want = measure_profile(*args, seed=4)
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    assert measure_profile(*args, seed=4) == want


def test_torus_chunks_draw_each_chunk_once(monkeypatch):
    # a range past two chunks, ending in a short one: the same rows as one
    # substream per index, one torus_samples call per chunk
    N = 2 * mc._CHUNK + 300
    draws = []
    draw = mc.torus_samples
    monkeypatch.setattr(mc, "torus_samples", lambda *args: draws.append(args[2:4]) or draw(*args))
    stacks = list(mc._torus_chunks(6, "measure", N, 1, 2))
    assert draws == [(0, mc._CHUNK), (mc._CHUNK, 2 * mc._CHUNK), (2 * mc._CHUNK, N)]
    assert [len(A) for A in stacks] == [mc._CHUNK, mc._CHUNK, 300]
    want = np.stack([sample_torus(substream(6, "measure", i), 1, 2) for i in range(N)])
    assert np.concatenate(stacks).tobytes() == want.tobytes()


def test_measure_profile_d3_matches_a_per_sample_loop():
    # N = 1000 leaves a last chunk of 1000 - 512 = 488 samples
    w = WeightPair.unweighted(1, 2)
    dims = w.dims
    kinds, radii = [KIND_SUB, KIND_PRIMED], [0.08, 0.2]
    profile = measure_profile(kinds, radii, w, 10.0, 1000, seed=21)
    assert 1000 % mc._CHUNK == 488
    scale = np.exp(np.array([a * 10.0 for a in w.alpha] + [-b * 10.0 for b in w.beta]))
    counts = dict.fromkeys(profile, 0)
    for i in range(1000):
        basis = np.eye(3)
        basis[:1, 1:] = sample_torus(substream(21, "measure", i), 1, 2)
        L = UnimodularLattice(scale[:, None] * UnimodularLattice(basis, dims).basis, dims)
        for kind, r in counts:
            counts[(kind, r)] += in_target(L, TargetSpec(kind, r, w))
    assert {key: est.mean for key, est in profile.items()} == {key: c / 1000 for key, c in counts.items()}
    assert counts[(KIND_SUB, 0.2)] > 0


def test_measure_profile_d2_matches_a_per_sample_loop():
    # N = 1000 leaves a last chunk of 1000 - 512 = 488 samples
    kinds = [KIND_SUB, KIND_PRIMED, KIND_THICK, KIND_THICK_PRIMED]
    radii = [0.08, 0.2]
    profile = measure_profile(kinds, radii, W11, 10.0, 1000, seed=22)
    assert 1000 % mc._CHUNK == 488
    counts = dict.fromkeys(profile, 0)
    for i in range(1000):
        ex = Exact2D.of(sample_torus(substream(22, "measure", i), 1, 1))
        for key, hit in ex.membership_profile(10.0, kinds, radii).items():
            counts[key] += hit
    assert {key: est.mean for key, est in profile.items()} == {key: c / 1000 for key, c in counts.items()}
    assert all(counts[(kind, 0.2)] > 0 for kind in kinds)


def test_measure_profile_d2_keeps_the_flow_horizon():
    with pytest.raises(BudgetExceeded):
        measure_profile([KIND_SUB, KIND_PRIMED], [0.1, 0.2], W11, MAX_SIGMA + 1.0, 1000, seed=0)
