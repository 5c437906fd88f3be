import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirichlet_lab.approx import (
    ConstantRatio,
    DimensionParams,
    LogDrift,
    MaxWithHalf,
    PowerDrift,
    Tabulated,
    VERDICT_CONVERGENT,
    VERDICT_DIVERGENT,
    classify_series,
    critical_series_partial,
    f_psi,
    min_with_power,
    reduce_lower_bound,
    validate_psi,
)
from dirichlet_lab.errors import DomainError, ValidationError

D2 = DimensionParams(1, 1)


def test_dimension_params_closed_forms():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        p = DimensionParams(m, n)
        d = m + n
        assert p.d == d
        assert p.kappa_d == (d * d + d - 4) / 2
        assert p.lambda_d == d * (d - 1) / 2
        assert p.kappa_d >= p.lambda_d
        assert p.d >= 2


def test_f_constant_ratio():
    # t*psi(t) = c identically forces F = 1 - c
    psi = ConstantRatio(c=0.5, t0=2.0)
    assert f_psi(psi, 10.0) == 0.5


def test_f_log_drift_at_e2():
    psi = LogDrift(c=1.0, a=1.0)
    assert abs(f_psi(psi, math.e**2) - 0.5) < 1e-14


def test_f_tabulated_matches_closed_form():
    base = LogDrift(c=1.0, a=0.5, t0=math.e**2)
    grid = np.exp(np.linspace(2.0, 10.0, 4001))
    tab = Tabulated.from_psi(base, grid)
    t = math.e**4
    # independent closed-form evaluation of the sampled family
    expected = 1.0 - t * ((1.0 - (math.log(t)) ** (-0.5)) / t)
    assert abs(f_psi(tab, t) - expected) < 1e-6


def test_domain_error_below_t0():
    psi = ConstantRatio(0.5, t0=2.0)
    with pytest.raises(DomainError):
        f_psi(psi, 1.5)


def _knots_06(t_end):
    """Knots of psi = 0.6/t at t = 2, 4, ..., t_end.

    On a segment with knot ratio 2 the interpolant reaches t psi = 0.6 (1 +
    1/8) = 0.675 < 1 at its midpoint, and psi >= 0.6/t >= 1/(2t).
    """
    ts = [2.0]
    while ts[-1] < t_end:
        ts.append(2.0 * ts[-1])
    return [(t, 0.6 / t) for t in ts]


def test_tabulated_rejects_psi_above_one_over_t_between_knots():
    # t psi = 0.6 at t = 2 and 0.75 at t = 50, but the chord reaches ~4.1 near t = 26
    with pytest.raises(ValidationError, match="below 1/t"):
        Tabulated([(2.0, 0.3), (50.0, 0.015), (500.0, 0.0015), (5000.0, 0.00015)])
    with pytest.raises(ValidationError):
        Tabulated([(2.0, 0.25), (4.0, 0.25)])  # t psi = 1 at the last knot
    # a chord of 0.6/t with knot ratio 2 peaks at 0.675 (t = 3): accepted
    tab = Tabulated(_knots_06(8.0))
    assert tab.psi(3.0) * 3.0 == pytest.approx(0.675)


def test_array_values_equal_scalar_values_bit_for_bit():
    families = [
        (ConstantRatio(0.4, t0=2.0), 1e8),
        (LogDrift(c=1.0, a=0.5), 1e8),
        (PowerDrift(c=0.5, a=0.3), 1e8),
        (Tabulated(_knots_06(4096.0)), 4096.0),
        (MaxWithHalf(LogDrift(c=1.0, a=0.5)), 1e8),
    ]
    for psi, t_hi in families:
        grid = np.geomspace(psi.t0, t_hi, 2000)
        for method in (psi.psi, psi.f):
            scalar = [method(t) for t in grid.tolist()]
            assert method(grid).tolist() == scalar, (psi, method.__name__)
            assert method(grid.reshape(40, 50)).ravel().tolist() == scalar


def test_reduced_tabulated_keeps_its_domain():
    tab = Tabulated(_knots_06(512.0))
    reduced = reduce_lower_bound(tab)
    assert (reduced.t0, reduced.t_end) == (2.0, 512.0)
    assert reduced.psi(512.0) == tab.psi(512.0)
    for t in (513.0, np.array([100.0, 513.0])):
        with pytest.raises(DomainError):
            reduced.psi(t)
        with pytest.raises(DomainError):
            reduced.f(t)


def test_validate_constant_ratio_passes():
    psi = ConstantRatio(0.5, t0=2.0)
    rep = validate_psi(psi, np.geomspace(10, 1e6, 200))
    assert rep.ok
    assert not rep.lower_bound_violations
    assert abs(rep.c_hat - 1.0) < 1e-12


def test_validate_log_drift_c_hat_near_one():
    psi = LogDrift(1.0, 1.0)
    rep = validate_psi(psi, np.geomspace(psi.t0, 1e6, 300))
    assert rep.ok
    # F decreasing, so window maxima sit at the left edge
    assert rep.c_hat <= 1.0 + 1e-9


def test_validate_flags_nonmonotone_tabulated():
    knots = [(2.0, 0.2), (3.0, 0.15), (4.0, 0.18), (5.0, 0.1)]
    rep = validate_psi(Tabulated(knots), np.array([2.0, 3.0, 4.0, 5.0]))
    assert rep.monotonicity_violations
    assert rep.monotonicity_violations[0] == (3.0, 4.0)


def test_validate_flags_lower_bound():
    rep = validate_psi(ConstantRatio(0.25, t0=2.0), np.geomspace(2, 100, 50))
    assert rep.ok  # 1/t bound fine
    assert rep.lower_bound_violations  # psi < 1/(2t) everywhere


def test_critical_series_partial_nine_terms():
    # independent oracle: explicit sum of the nine summands k = 2..10
    psi = ConstantRatio(0.5, t0=2.0)
    expected = sum(0.5 * math.log(3.0) / k for k in range(2, 11))
    got = critical_series_partial(psi, D2, 10)
    assert abs(got - expected) < 1e-12


def test_critical_series_single_term():
    psi = ConstantRatio(0.3, t0=2.0)
    got = critical_series_partial(psi, D2, 2)
    f = 0.7
    assert abs(got - f * math.log(1 + 1 / f) / 2.0) < 1e-15


def test_critical_series_monotone_in_kmax():
    psi = LogDrift(1.0, 2.0)
    vals = [critical_series_partial(psi, D2, k) for k in (10, 20, 40, 80, 160)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_partial_sums_bounded_for_convergent_family():
    # integral comparison: sum k^-1 (log k)^-2 polylog converges
    psi = LogDrift(1.0, 2.0)
    s1 = critical_series_partial(psi, D2, 1_000)
    s2 = critical_series_partial(psi, D2, 2_000)
    s3 = critical_series_partial(psi, D2, 4_000)
    assert s3 - s2 < s2 - s1  # Cauchy tails shrink


def test_classify_closed_forms():
    assert classify_series(ConstantRatio(0.5, 2.0), D2, [100, 200]).verdict == VERDICT_DIVERGENT
    v = classify_series(LogDrift(1.0, 2.0), D2, [100, 200])
    assert v.verdict == VERDICT_CONVERGENT and not v.heuristic
    assert classify_series(LogDrift(1.0, 0.5), D2, [100, 200]).verdict == VERDICT_DIVERGENT
    assert classify_series(PowerDrift(0.5, 1.0), D2, [100, 200]).verdict == VERDICT_CONVERGENT


def test_classify_partial_sums_equal_one_horizon_calls():
    horizons = [1000, 2000, 4000, 8000, 16000]
    for psi in (LogDrift(1.0, 0.5), ConstantRatio(0.5, 2.0), MaxWithHalf(PowerDrift(0.5, 0.3))):
        got = classify_series(psi, D2, horizons).partial_sums
        want = [(h, critical_series_partial(psi, D2, h)) for h in horizons]
        assert repr(got) == repr(want), psi
    with pytest.raises(DomainError):
        classify_series(LogDrift(1.0, 0.5), D2, [5, 100])


def test_classify_heuristic_tabulated():
    base = ConstantRatio(0.5, 2.0)
    grid = np.geomspace(2.0, 100_000.0, 20_000)
    tab = Tabulated.from_psi(base, grid)
    v = classify_series(tab, D2, [1_000, 2_000, 4_000, 8_000, 16_000])
    assert v.heuristic
    assert v.verdict == VERDICT_DIVERGENT


def _j_sum(psi, dims, j_max):
    total = 0.0
    for j in range(max(1, math.ceil(math.log(psi.t0))), j_max + 1):
        f = float(psi.f(math.exp(j)))
        total += f**dims.kappa_d * math.log(1 + 1 / f) ** dims.lambda_d
    return total


def test_series_equivalence_convergent_side():
    # both index conventions stay under an integral-tail bound at every horizon
    psi = LogDrift(1.0, 2.0)
    dims = D2
    k0 = 1_000
    base = critical_series_partial(psi, dims, k0)
    # term(k) <= (log k)^-2 (2 log log k + 1)/k; integral of the bound from k0:
    u0 = math.log(k0)
    tail = (2.0 * math.log(u0) + 3.0) / u0
    bound = base + tail
    for k_max in (2_000, 4_000, 8_000, 16_000):
        assert critical_series_partial(psi, dims, k_max) < bound
    j_bound = _j_sum(psi, dims, 7) + sum(
        j**-2.0 * (2 * math.log(j) + 1) for j in range(8, 2_000)
    )
    for j_max in (9, 11, 13):
        assert _j_sum(psi, dims, j_max) < j_bound


def test_series_equivalence_divergent_side():
    # both index conventions keep growing past a fixed threshold
    psi = LogDrift(1.0, 0.5)
    dims = D2
    k_first = critical_series_partial(psi, dims, 100)
    k_last = critical_series_partial(psi, dims, 100_000)
    assert k_last > 1.5 * k_first
    j_first = _j_sum(psi, dims, 5)
    j_last = _j_sum(psi, dims, 12)
    assert j_last > 1.5 * j_first


def test_reduce_lower_bound_identity_when_already_above():
    psi = ConstantRatio(0.7, t0=2.0)  # 0.7/t >= 1/(2t)
    red = reduce_lower_bound(psi)
    grid = np.geomspace(2, 1e5, 64)
    assert np.allclose(red.psi(grid), psi.psi(grid), rtol=0, atol=0)


def test_reduce_lower_bound_small_c():
    # 0.25/t < 1/(2t) everywhere: the reduction behaves like ConstantRatio(0.5)
    red = reduce_lower_bound(ConstantRatio(0.25, t0=2.0))
    ref = ConstantRatio(0.5, t0=2.0)
    grid = np.geomspace(2, 1e5, 64)
    assert np.allclose(red.psi(grid), ref.psi(grid))


def test_reduce_lower_bound_kink():
    # power drift crossing 1/(2t): solve c*t^-a = 1/2 for the kink
    psi = PowerDrift(c=0.9, a=0.5, t0=2.0)
    t_star = (2 * 0.9) ** (1 / 0.5)
    red = reduce_lower_bound(psi)
    below = t_star * 0.9
    above = t_star * 1.1
    assert float(red.f(below)) == 0.5  # clamped where F_base > 1/2
    assert float(red.f(above)) == pytest.approx(0.9 * above**-0.5)


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=2.5, max_value=1e5))
def test_f_clamp_law(c, t):
    # F of the reduction equals min(F_base, 1/2) pointwise
    base = PowerDrift(c=c, a=0.7, t0=2.0)
    red = reduce_lower_bound(base)
    assert abs(float(red.f(t)) - min(float(base.f(t)), 0.5)) <= 1e-12


@given(
    st.sampled_from(["constant", "log", "power"]),
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(min_value=1.01, max_value=3.0),
)
def test_psi_positive_and_nonincreasing(kind, t, factor):
    psi = {
        "constant": ConstantRatio(0.4, t0=9.0),
        "log": LogDrift(1.0, 1.0, t0=9.0),
        "power": PowerDrift(0.7, 0.4, t0=9.0),
    }[kind]
    v1 = float(psi.psi(t))
    v2 = float(psi.psi(t * factor))
    assert v1 > 0 and v2 > 0
    assert v2 <= v1 * (1 + 1e-12)


def test_min_with_power_basics():
    assert min_with_power([1.0] * 4, 0.5)[3] == 0.5
    seq = [1.0 / k for k in range(1, 101)]
    assert min_with_power(seq, 0.5)[99] == pytest.approx(1.0 / 100)


def test_min_with_power_desk_scale_divergence():
    # constant a_k = c: partial sums of min(c, k^-1/2) must cross 10
    c = 0.1
    n = 20_000
    b = min_with_power([c] * n, 0.5)
    partial = np.cumsum(b)
    crossing = int(np.argmax(partial > 10.0))
    assert partial[-1] > 10.0
    assert 0 < crossing < n


def test_min_with_power_rejects_bad_alpha():
    with pytest.raises(ValidationError):
        min_with_power([1.0], 1.5)


def test_min_with_power_random_quasi_decreasing():
    # slowly-divergent quasi-decreasing input: clamping keeps the sums growing
    n = 20_000
    a = [1.0 / math.log(k + 2.0) for k in range(n)]
    partial = np.cumsum(min_with_power(a, 0.5))
    assert partial[-1] > partial[n // 10] + 1.0


def test_classify_heuristic_inconclusive():
    # a convergent-but-slow family sampled as a table: increments shrink too
    # slowly for the heuristic to call either way at these horizons
    base = LogDrift(1.0, 2.0)
    grid = np.geomspace(base.t0, 40_000.0, 30_000)
    tab = Tabulated.from_psi(base, grid)
    v = classify_series(tab, D2, [1_000, 2_000, 4_000, 8_000, 16_000])
    assert v.heuristic
    assert v.verdict == "inconclusive"
