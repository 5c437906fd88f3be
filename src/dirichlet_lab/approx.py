"""Approximating functions psi and the critical series.

A psi function is a positive, continuous, non-increasing function on
[t0, oo) with psi(t) < 1/t.  The derived quantity F(t) = 1 - t*psi(t)
drives everything: the critical series

    sum_k  k^{-1} F(k)^kappa * log^lambda(1 + 1/F(k))

decides the zero-one dichotomy, and F feeds the time-change to the
diagonal-flow rate (see rate.py).  Each family stores F in closed form so
small values of F never suffer cancellation from computing 1 - t*psi(t),
and states psi and F once, on one float; arrays are evaluated through the
same formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class DimensionParams:
    """Dimension pair (m, n); the series exponents are derived, never stored."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValidationError("m and n must be positive integers")

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def kappa_d(self) -> float:
        d = self.d
        return (d * d + d - 4) / 2

    @property
    def lambda_d(self) -> float:
        d = self.d
        return d * (d - 1) / 2


def _as_array(t):
    return np.asarray(t, dtype=float)


class PsiFunction:
    """Base class; subclasses provide psi(t) and the cancellation-free F(t).

    Each family states one closed form per quantity, `_psi` and `_f`, on
    one float; an array is evaluated point by point through the same two
    methods, so every t has one value however it is asked for.  The domain
    is [t0, t_end]; only families with a finite end check it.
    """

    family: str = "base"
    t0: float
    t_end: float = math.inf

    def psi(self, t):
        if isinstance(t, (int, float)):
            self._check(t)
            return self._psi(float(t))
        return self._map(self._psi, t)

    def f(self, t):
        """F(t) = 1 - t*psi(t), evaluated in closed form per family."""
        if isinstance(t, (int, float)):
            self._check(t)
            return self._f(float(t))
        return self._map(self._f, t)

    def _psi(self, t):
        raise NotImplementedError

    def _f(self, t):
        raise NotImplementedError

    def _check(self, t):
        if t < self.t0 * (1.0 - 1e-12):
            raise DomainError(f"t below domain start t0={self.t0}")

    def _map(self, formula, t):
        arr = _as_array(t)
        out = []
        for x in arr.ravel().tolist():
            self._check(x)
            out.append(formula(x))
        return np.array(out, dtype=float).reshape(arr.shape)

    def params(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner}, t0={self.t0!r})"

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.params() == other.params()
            and self.t0 == other.t0
        )

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.params().items())), self.t0))


class ConstantRatio(PsiFunction):
    """psi(t) = c/t with c in (0,1); F is the constant 1 - c."""

    family = "constant_ratio"

    def __init__(self, c: float, t0: float = 2.0):
        if not 0.0 < c < 1.0:
            raise ValidationError("ConstantRatio needs c in (0,1)")
        if t0 <= 1.0:
            raise ValidationError("t0 must exceed 1")
        self.c = float(c)
        self.t0 = float(t0)

    def _psi(self, t):
        return self.c / t

    def _f(self, t):
        return 1.0 - self.c

    def params(self):
        return {"c": self.c}


class LogDrift(PsiFunction):
    """psi(t) = (1 - c*(log t)^-a)/t; F(t) = c*(log t)^-a."""

    family = "log_drift"

    def __init__(self, c: float, a: float, t0: float | None = None):
        if c <= 0 or a <= 0:
            raise ValidationError("LogDrift needs c > 0 and a > 0")
        if t0 is None:
            # smallest u = log t with c u^-a (1 + a/u) <= 1, where psi turns
            # non-increasing; bisect since the left side is decreasing in u
            lo = max(c ** (1.0 / a), 1e-9)
            hi = max(2.0 * lo, 2.0)
            while c * hi ** (-a) * (1 + a / hi) > 1.0:
                hi *= 2.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if c * mid ** (-a) * (1 + a / mid) > 1.0:
                    lo = mid
                else:
                    hi = mid
            t0 = math.exp(hi) * (1.0 + 1e-9)
        if t0 <= 1.0 or c * math.log(t0) ** (-a) >= 1.0:
            raise ValidationError("t0 too small: psi must stay positive on [t0, oo)")
        self.c = float(c)
        self.a = float(a)
        self.t0 = float(t0)

    def _psi(self, t):
        return (1.0 - self.c * math.log(t) ** (-self.a)) / t

    def _f(self, t):
        return self.c * math.log(t) ** (-self.a)

    def params(self):
        return {"c": self.c, "a": self.a}


class PowerDrift(PsiFunction):
    """psi(t) = (1 - c*t^-a)/t; F(t) = c*t^-a."""

    family = "power_drift"

    def __init__(self, c: float, a: float, t0: float = 2.0):
        if c <= 0 or a <= 0:
            raise ValidationError("PowerDrift needs c > 0 and a > 0")
        if t0 <= 1.0 or c * t0 ** (-a) >= 1.0:
            raise ValidationError("t0 too small: psi must stay positive on [t0, oo)")
        self.c = float(c)
        self.a = float(a)
        self.t0 = float(t0)

    def _psi(self, t):
        return (1.0 - self.c * t ** (-self.a)) / t

    def _f(self, t):
        return self.c * t ** (-self.a)

    def params(self):
        return {"c": self.c, "a": self.a}


class Tabulated(PsiFunction):
    """Piecewise-linear interpolation of (t, psi) knots on [t_first, t_last]."""

    family = "tabulated"

    def __init__(self, knots):
        knots = [(float(t), float(p)) for t, p in knots]
        if len(knots) < 2:
            raise ValidationError("Tabulated needs at least two knots")
        ts = [t for t, _ in knots]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValidationError("knot abscissae must be strictly increasing")
        if ts[0] <= 1.0:
            raise ValidationError("t0 must exceed 1")
        if any(p <= 0 for _, p in knots):
            raise ValidationError("psi values must be positive")
        for (t1, p1), (t2, p2) in zip(knots, knots[1:]):
            # t psi(t) = t (p1 + s (t - t1)) is a quadratic on the segment, so
            # its maximum is at an end or, when s < 0, at the vertex
            s = (p2 - p1) / (t2 - t1)
            top = max(t1 * p1, t2 * p2)
            if s < 0:
                vertex = (s * t1 - p1) / (2.0 * s)
                if t1 < vertex < t2:
                    top = max(top, vertex * (p1 + s * (vertex - t1)))
            if top >= 1.0:
                raise ValidationError(
                    f"t*psi reaches {top:.6g} on [{t1:g}, {t2:g}]: psi must stay below 1/t"
                )
        self.knots = tuple(knots)
        self.t0 = ts[0]
        self.t_end = ts[-1]
        self._ts = np.array(ts)
        self._ps = np.array([p for _, p in knots])

    def _check(self, t):
        super()._check(t)
        if t > self.t_end * (1.0 + 1e-12):
            raise DomainError(f"t beyond last knot t={self.t_end}")

    def _psi(self, t):
        return float(np.interp(t, self._ts, self._ps))

    def _f(self, t):
        return 1.0 - t * self._psi(t)

    def params(self):
        return {"knots": self.knots}

    @classmethod
    def from_psi(cls, base: PsiFunction, grid) -> "Tabulated":
        grid = _as_array(grid)
        return cls(list(zip(grid.tolist(), base.psi(grid).tolist())))


class MaxWithHalf(PsiFunction):
    """Pointwise max of a base family with 1/(2t): F becomes min(F_base, 1/2)."""

    family = "max_with_half"

    def __init__(self, base: PsiFunction):
        self.base = base
        self.t0 = base.t0
        self.t_end = base.t_end

    def _check(self, t):
        self.base._check(t)

    def _psi(self, t):
        return max(self.base._psi(t), 0.5 / t)

    def _f(self, t):
        return min(self.base._f(t), 0.5)

    def params(self):
        return {"base": self.base}


def f_psi(psi: PsiFunction, t):
    """F(t) = 1 - t*psi(t)."""
    out = psi.f(t)
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def reduce_lower_bound(psi: PsiFunction) -> MaxWithHalf:
    """Replace psi by max(psi, 1/(2t)); clamps F at 1/2 wherever psi dipped below."""
    return MaxWithHalf(psi)


@dataclass
class ValidationReport:
    eta: float
    c_hat: float
    monotonicity_violations: list = field(default_factory=list)
    upper_bound_violations: list = field(default_factory=list)  # psi(t) >= 1/t
    lower_bound_violations: list = field(default_factory=list)  # psi(t) < 1/(2t)

    @property
    def ok(self) -> bool:
        return not (self.monotonicity_violations or self.upper_bound_violations)


def validate_psi(psi: PsiFunction, grid, eta: float = 0.5) -> ValidationReport:
    """Check psi on a grid: monotonicity, the 1/t and 1/(2t) side bounds, and
    the empirical quasi-decreasing constant C_hat for F over window pairs
    t1 <= t2 <= t1 * exp((log t1)^eta)."""
    grid = _as_array(grid)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid must be a 1-d array with >= 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing")
    vals = np.asarray(psi.psi(grid), dtype=float)
    fvals = np.asarray(psi.f(grid), dtype=float)

    report = ValidationReport(eta=eta, c_hat=0.0)
    tol = 1e-12
    for i in range(grid.size - 1):
        if vals[i + 1] > vals[i] * (1.0 + tol) + tol:
            report.monotonicity_violations.append((float(grid[i]), float(grid[i + 1])))
    inv_t = 1.0 / grid
    for i in range(grid.size):
        if vals[i] >= inv_t[i] * (1.0 - tol):
            report.upper_bound_violations.append(float(grid[i]))
        if vals[i] < 0.5 * inv_t[i] * (1.0 - tol):
            report.lower_bound_violations.append(float(grid[i]))

    # empirical quasi-decreasing bound over admissible window pairs
    c_hat = 0.0
    j_hi = 0
    for i in range(grid.size):
        window_end = grid[i] * math.exp(math.log(grid[i]) ** eta)
        j_hi = max(j_hi, i)
        while j_hi + 1 < grid.size and grid[j_hi + 1] <= window_end:
            j_hi += 1
        fi = fvals[i]
        if fi <= 0:
            continue
        block = fvals[i : j_hi + 1]
        block = block[block > 0]
        if block.size:
            c_hat = max(c_hat, float(block.max() / fi))
    report.c_hat = c_hat
    return report


def critical_series_partial(psi: PsiFunction, dims: DimensionParams, k_max: int) -> float:
    """Partial sum of the critical series from k = ceil(t0) to k_max, low-to-high."""
    return _critical_series_partials(psi, dims, [k_max])[0]


def _critical_series_partials(psi: PsiFunction, dims: DimensionParams, horizons) -> list:
    """critical_series_partial at each of the increasing horizons, from one pass.

    The terms are evaluated once up to the last horizon and each partial
    sum is read off their running sum, which adds low-to-high, so every
    value is the one-horizon sum bit for bit.
    """
    k_lo = math.ceil(psi.t0)
    if horizons[0] < k_lo:
        raise DomainError(f"k_max must be >= ceil(t0) = {k_lo}")
    k = np.arange(k_lo, horizons[-1] + 1, dtype=float)
    fv = np.asarray(psi.f(k), dtype=float)
    if np.any(fv <= 0):
        raise ValidationError("F <= 0 on the summation range; psi violates psi < 1/t")
    terms = fv**dims.kappa_d * np.log1p(1.0 / fv) ** dims.lambda_d / k
    sums = np.cumsum(terms)
    return [float(sums[h - k_lo]) for h in horizons]


VERDICT_CONVERGENT = "convergent"
VERDICT_DIVERGENT = "divergent"
VERDICT_INCONCLUSIVE = "inconclusive"

METHOD_CLOSED_FORM = "closed_form_integral_test"
METHOD_HEURISTIC = "partial_sum_heuristic"


@dataclass
class SeriesVerdict:
    verdict: str
    method: str
    partial_sums: list  # (k_max, value), non-decreasing in k_max
    note: str = ""

    @property
    def heuristic(self) -> bool:
        return self.method == METHOD_HEURISTIC


def _closed_form_verdict(psi: PsiFunction, dims: DimensionParams):
    """Integral-test verdict for the shipped closed forms, else None.

    ConstantRatio: F constant in (0,1), summand ~ 1/k -> divergent.
    LogDrift(c,a): F ~ c(log t)^-a, summand ~ (log k)^{-a*kappa} polylog / k;
        substituting u = log k the tail is integral du u^{-a*kappa} (log u)^lambda,
        convergent iff a*kappa > 1.
    PowerDrift: F decays polynomially, summand ~ k^{-1-a*kappa} polylog -> convergent.
    MaxWithHalf: clamping F at 1/2 only matters where F_base > 1/2; for the
        shipped bases F is eventually constant or -> 0, so the verdict is the
        base verdict unless psi_base < 1/(2t) persistently, which forces F = 1/2
        on an unbounded set and hence divergence.
    """
    if isinstance(psi, ConstantRatio):
        return VERDICT_DIVERGENT, "summand comparable to the harmonic series"
    if isinstance(psi, LogDrift):
        ak = psi.a * dims.kappa_d
        if ak > 1.0:
            return VERDICT_CONVERGENT, f"a*kappa_d = {ak:g} > 1"
        return VERDICT_DIVERGENT, f"a*kappa_d = {ak:g} <= 1"
    if isinstance(psi, PowerDrift):
        return VERDICT_CONVERGENT, "F decays polynomially"
    if isinstance(psi, MaxWithHalf):
        base = psi.base
        if isinstance(base, ConstantRatio):
            return VERDICT_DIVERGENT, "F constant after clamping"
        if isinstance(base, (LogDrift, PowerDrift)):
            return _closed_form_verdict(base, dims)
    return None


def classify_series(psi: PsiFunction, dims: DimensionParams, horizons) -> SeriesVerdict:
    """Convergence/divergence verdict for the critical series.

    Closed-form families get an analytic verdict; anything else is judged
    from partial-sum growth across the supplied horizons and may come back
    inconclusive.  Heuristic verdicts are labeled as such in `method`.
    """
    horizons = [int(h) for h in horizons]
    if len(horizons) < 2 or any(h2 <= h1 for h1, h2 in zip(horizons, horizons[1:])):
        raise ValidationError("horizons must be >= 2 increasing integers")
    partials = list(zip(horizons, _critical_series_partials(psi, dims, horizons)))

    closed = _closed_form_verdict(psi, dims)
    if closed is not None:
        verdict, note = closed
        return SeriesVerdict(verdict, METHOD_CLOSED_FORM, partials, note)

    increments = [b[1] - a[1] for a, b in zip(partials, partials[1:])]
    if any(g <= 0 for g in increments):
        return SeriesVerdict(
            VERDICT_INCONCLUSIVE, METHOD_HEURISTIC, partials, "vanishing increments"
        )
    ratios = [g2 / g1 for g1, g2 in zip(increments, increments[1:])]
    if increments[-1] < 0.1 * increments[0]:
        return SeriesVerdict(
            VERDICT_CONVERGENT, METHOD_HEURISTIC, partials, "increments decay geometrically"
        )
    if ratios and min(ratios) >= 0.95:
        return SeriesVerdict(
            VERDICT_DIVERGENT, METHOD_HEURISTIC, partials, "increments do not decay"
        )
    return SeriesVerdict(
        VERDICT_INCONCLUSIVE, METHOD_HEURISTIC, partials, "growth pattern ambiguous"
    )


def min_with_power(a_seq, alpha: float):
    """b_k = min(a_k, k^-alpha) for a 1-indexed sequence; divergence-preserving."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0,1)")
    return [min(float(a), (k + 1.0) ** (-alpha)) for k, a in enumerate(a_seq)]
