import json
import math

import pytest

from dirichlet_lab.approx import ConstantRatio, LogDrift
from dirichlet_lab.cf import (
    cf_expand,
    cf_is_psi_dirichlet,
    cf_uncovered_intervals,
)
from dirichlet_lab.cli import cli_main
from dirichlet_lab.dirichlet import psi_dirichlet_scan
from dirichlet_lab.errors import ValidationError
from dirichlet_lab.exact2d import Exact2D
from dirichlet_lab.lattice import WeightPair
from dirichlet_lab.rng import substream

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
W11 = WeightPair.unweighted(1, 1)


def test_golden_mean_quotients_and_fibonacci():
    cf = cf_expand(GOLDEN_MEAN, 20)
    assert cf.partial_quotients == [1] * 20
    fib = [0, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    for k, (p, q) in enumerate(cf.convergents):
        assert (p, q) == (fib[k], fib[k + 1])


def test_sqrt2_minus_one_quotients():
    cf = cf_expand(math.sqrt(2.0) - 1.0, 15)
    assert cf.partial_quotients == [2] * 15


def test_rational_truncates():
    cf = cf_expand(0.5, 10)
    assert cf.partial_quotients == [2]
    assert cf.truncated
    assert cf.convergents == [(0, 1), (1, 2)]


def test_recurrences_and_determinant():
    cf = cf_expand(float(substream(40, "cf", 0).random()), 25)
    ps = [p for p, _ in cf.convergents]
    qs = [q for _, q in cf.convergents]
    aq = cf.partial_quotients
    for k in range(2, len(cf.convergents)):
        assert qs[k] == aq[k - 1] * qs[k - 1] + qs[k - 2]
        assert ps[k] == aq[k - 1] * ps[k - 1] + ps[k - 2]
    for k in range(len(cf.convergents) - 1):
        assert ps[k + 1] * qs[k] - ps[k] * qs[k + 1] in (1, -1)
    assert all(q2 > q1 for q1, q2 in zip(qs[1:], qs[2:]))
    errs = cf.errors()
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # convergents alternate around alpha (exact signs via the integer ratio)
    num, den = cf.alpha.as_integer_ratio()
    signs = [1 if q * num - p * den > 0 else -1 for p, q in cf.convergents]
    assert all(s1 != s2 for s1, s2 in zip(signs, signs[1:]))


def test_golden_mean_product_limits():
    # |q_k alpha - p_k| = 1/(q_{k+1} + q_k (phi - 1)), so
    #   q_k     * err_k -> 1/sqrt5            ~ 0.4472
    #   q_{k+1} * err_k -> phi/sqrt5          ~ 0.7236
    # both limits sit below 0.9 and above 0.2, driving the verdict tests
    cf = cf_expand(GOLDEN_MEAN, 30)
    errs = cf.errors()
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    for k in range(18, 26):
        assert cf.convergents[k][1] * errs[k] == pytest.approx(
            1.0 / math.sqrt(5.0), abs=5e-3
        )
        assert cf.convergents[k + 1][1] * errs[k] == pytest.approx(
            phi / math.sqrt(5.0), abs=5e-3
        )


def test_golden_mean_verdicts():
    passes = cf_is_psi_dirichlet(GOLDEN_MEAN, ConstantRatio(0.9, t0=2.0), K=25)
    assert passes.pass_up_to
    fails = cf_is_psi_dirichlet(GOLDEN_MEAN, ConstantRatio(0.2, t0=2.0), K=25)
    assert not fails.pass_up_to
    # 0.447 > 0.2: every block beyond burn-in fails
    assert len(fails.failures) >= 20


def test_k_guard():
    with pytest.raises(ValidationError):
        cf_is_psi_dirichlet(GOLDEN_MEAN, ConstantRatio(0.9, t0=2.0), K=2)


def _intervals_match(a, b, rel=1e-6):
    if len(a) != len(b):
        return False
    for (lo1, hi1), (lo2, hi2) in zip(a, b):
        scale = max(1.0, abs(lo1), abs(hi1))
        if abs(lo1 - lo2) > rel * scale or abs(hi1 - hi2) > rel * scale:
            return False
    return True


@pytest.mark.parametrize(
    "psi",
    [
        ConstantRatio(0.6, t0=2.0),
        ConstantRatio(0.9, t0=2.0),
        LogDrift(1.0, 1.0, t0=math.e**2),
    ],
    ids=["c06", "c09", "log11"],
)
def test_oracle_agrees_with_scan(psi):
    rng = substream(41, "agree", 0)
    for _ in range(40):
        alpha = float(rng.random())
        cf = cf_expand(alpha, 60)
        qs = [q for _, q in cf.convergents if q <= 10_000]
        horizon = float(qs[-1])
        if horizon <= psi.t0 + 1:
            continue
        scan = psi_dirichlet_scan(alpha, psi, horizon, W11)
        oracle = cf_uncovered_intervals(alpha, psi, horizon)
        assert _intervals_match(scan.uncovered, oracle), (
            alpha,
            scan.uncovered,
            oracle,
        )


def test_truncated_only_when_the_ratio_is_exhausted():
    # Euclid on the float's exact ratio: the expansion ends with the ratio
    # itself, whose error is exactly zero, and never stops at a size cap
    alpha = float(substream(42, "cf", 0).random())
    cf = cf_expand(alpha, 10_000)
    assert cf.truncated
    num, den = alpha.as_integer_ratio()
    assert cf.convergents[-1] == (num, den)
    assert cf.errors()[-1] == 0.0
    assert cf.convergents[-2][1] > 10**6
    assert not cf_expand(alpha, 5).truncated


def test_convergents_are_the_exact2d_ladder():
    # one Euclid routine: cf_expand's convergents of a float A are the rungs of Exact2D's ladder
    rng = substream(44, "cf-ladder", 0)
    for alpha in [float(rng.random()) for _ in range(20)] + [GOLDEN_MEAN, 2.0**-64, 0.5 + 2.0**-53]:
        cf = cf_expand(alpha, 10_000)
        assert cf.truncated and cf.errors()[-1] == 0.0
        num, den = alpha.as_integer_ratio()
        ex = Exact2D.of(alpha)
        while ex._grow():
            pass
        rungs = ex._points
        assert rungs[1:] == [(q * num - p * den, q) for p, q in cf.convergents]


_CRITERION_6_PSI = [
    ("constant_ratio", "0.6", 2.0),
    ("constant_ratio", "0.9", 2.0),
    ("log_drift", "1,1", math.e**2),
]


@pytest.mark.parametrize("T", ["1e8", "1e10"])
def test_oracles_agree_past_a_million(T, tmp_path):
    rng = substream(43, "cf-deep", 0)
    for idx in range(8):
        alpha = float(rng.random())
        for family, params, t0 in _CRITERION_6_PSI:
            out = tmp_path / f"{idx}-{family}-{params}"
            argv = [
                "check", "--oracle", "both", "--T", T, "--A", repr(alpha),
                "--set", f"psi.family={family}", "--set", f"psi.params={params}",
                "--set", f"psi.t0={t0!r}", "--out", str(out),
            ]
            assert cli_main(argv) == 0
            result = json.loads((out / "check.json").read_text())
            assert result["oracles_agree"], (alpha, family, result["uncovered"], result["cf_uncovered"])
