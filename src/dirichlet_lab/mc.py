"""Monte Carlo measure estimation on the space of lattices.

Estimators push the torus of matrices A forward under the diagonal flow
(g_{s_push} applied to the lattice of A) and count target membership:
the push equidistributes toward the invariant measure with a bias that
decays exponentially in s_push, so adequacy is checked by comparing
estimates at different push times rather than by a closed-form bound.

Every sample i draws from substream(seed, label, i): estimates are
bit-identical regardless of evaluation order, and common random numbers
across an r-grid come for free by reusing (seed, label).  One chunk of
_CHUNK indices is the unit of work from draw to count: one call of
rng.torus_samples, whose numpy Philox kernel makes row i bit-equal to
sample_torus(substream(seed, label, i), m, n) without building a
generator, draws it.  At d >= 3 the chunk is pushed as one stack
(lattice.flowed_lattices) and reduced by one lockstep LLL; at m = n = 1
it runs one lockstep Euclid ladder in int64 arrays
(exact2d.membership_profiles), where every value that decides a count comes
from math.log.  Both answer a chunk as one table of targets.profile_keys
columns by sample rows, and the estimators sum its columns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .approx import DimensionParams
from .errors import DomainError, ValidationError
from .exact2d import membership_profiles as exact_profiles
from .lattice import WeightPair, flowed_lattices, matrix_bases, reduce_lattices
from .rng import substream, torus_samples
from .targets import KIND_THICK_PRIMED, TargetSpec, membership_profiles, profile_keys

_Z95 = 1.959963984540054
# samples drawn, pushed, reduced (one lockstep LLL at d >= 3, one lockstep
# Euclid ladder at d = 2) and counted together: enough to spread the fixed
# cost of a draw call (the Philox kernel takes about 0.19 ms for 1 row and
# 0.39 ms for 1 024 rows on a 2-core Xeon) and of a pass, few enough that a
# chunk's arrays stay small
_CHUNK = 512

# zeta(2)..zeta(6); enumeration is capped at d = 6 anyway
_ZETA = {
    2: 1.6449340668482264,
    3: 1.2020569031595943,
    4: 1.0823232337111382,
    5: 1.0369277551433699,
    6: 1.0173430619844491,
}


def wilson_interval(hits: int, n: int, z: float = _Z95):
    """Wilson 95% score interval; preferred over Wald for small probabilities."""
    if n <= 0:
        raise ValidationError("need n > 0")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class McEstimate:
    mean: float
    count: int
    ci_low: float
    ci_high: float
    params_hash: str
    scale: float = 1.0  # 1 for plain indicators; box volume factors otherwise

    def __post_init__(self):
        if not self.ci_low - 1e-12 <= self.mean <= self.ci_high + 1e-12:
            raise ValidationError("confidence interval must contain the mean")


def _params_hash(*parts) -> str:
    text = "|".join(repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _estimate(hits: int, n: int, scale: float, hash_parts) -> McEstimate:
    lo, hi = wilson_interval(hits, n)
    return McEstimate(
        mean=scale * hits / n,
        count=n,
        ci_low=scale * lo,
        ci_high=scale * hi,
        params_hash=_params_hash(*hash_parts),
        scale=scale,
    )


def measure_profile(
    kinds,
    r_values,
    w: WeightPair,
    s_push: float,
    N: int,
    seed: int,
    label: str = "measure",
):
    """McEstimate for every (kind, r) on shared samples (common random numbers).

    The keys are targets.profile_keys, and there must be at least one.
    Samples are taken _CHUNK at a time, each chunk is answered by one
    membership table with those keys, and the counts are its column sums.
    At m = n = 1 that is exact2d.membership_profiles: one lockstep Euclid
    ladder over the chunk's exact (num, den) gives every Delta, bit-equal to
    Exact2D.delta_flowed, and the slab is enumerated on the ladders of the
    samples with Delta <= max r.  Otherwise the float path pushes the chunk
    as one stack, reduces it with one lockstep LLL and answers it with one
    targets.membership_profiles table, whose enumerations and kernel calls
    each cover many lattices at once.
    """
    if s_push < 5.0:
        raise ValidationError("s_push must be >= 5 (push-time bias guard)")
    if N < 1000:
        raise ValidationError("N must be >= 1000")
    kinds = list(kinds)
    r_values = [float(r) for r in r_values]
    keys = profile_keys(kinds, r_values, w)
    if not keys:
        raise ValidationError("need at least one kind and one radius")
    counts = np.zeros(len(keys), dtype=np.int64)
    dims = w.dims
    for A in _torus_chunks(seed, label, N, dims.m, dims.n):
        if dims.m == 1 and dims.n == 1:
            _, hits = exact_profiles(A, s_push, kinds, r_values)
        else:
            chunk = flowed_lattices(matrix_bases(A), s_push, w)
            reduce_lattices(chunk)
            _, hits = membership_profiles(chunk, kinds, r_values, w)
        counts += hits.sum(axis=0)
    return {
        key: _estimate(count, N, 1.0, (key[0], key[1], dims.m, dims.n, s_push, N, seed, label))
        for key, count in zip(keys, counts.tolist())
    }


def _torus_chunks(seed: int, label: str, N: int, m: int, n: int):
    """The torus samples of indices 0..N-1, as _CHUNK-row stacks, one
    rng.torus_samples call each; row i is the sample of index i however the
    range is cut."""
    for first in range(0, N, _CHUNK):
        yield torus_samples(seed, label, first, min(first + _CHUNK, N), m, n)


def estimate_measure_equidist(
    spec: TargetSpec,
    w: WeightPair,
    s_push: float,
    N: int,
    seed: int,
    label: str = "measure",
) -> McEstimate:
    """Fraction of torus samples whose pushed lattice lies in the target."""
    profile = measure_profile([spec.kind], [spec.r], w, s_push, N, seed, label)
    return profile[(spec.kind, spec.r)]


@dataclass(frozen=True)
class CoordinateRegion:
    """Explicit coordinate region whose projection lands inside the primed set.

    The region lives in the (b, x) coordinates of the parabolic/unipotent
    factorization; the invariant measure there is a constant multiple of
    Lebesgue, so its volume is a lower bound for the projected measure.
    """

    r: float
    d: int
    c0: float = 0.1
    extra: bool = True

    def __post_init__(self):
        if self.d < 2 or self.d > 6:
            raise ValidationError("need 2 <= d <= 6")
        if not 0.0 < self.c0 < 1.0:
            raise ValidationError("c0 must lie in (0,1)")
        cap = (self.c0 / self.d) ** 2 if self.extra else self.c0 / self.d
        if self.extra:
            cap = min(cap, self.c0**2 / self.d ** (2 * self.d - 2))
        if not 0.0 < self.r < cap:
            raise DomainError(f"r must lie in (0, {cap:g}) for this region")

    def entry_ranges(self):
        """Uniform sampling ranges for every coordinate, keyed by name."""
        d, r, c0 = self.d, self.r, self.c0
        ranges = {}
        for ell in range(1, d):
            ranges[("b", ell, ell)] = (1.0 - r / (2 * d), 1.0)
        for j in range(1, d):
            for i in range(j + 1, d):  # strictly lower triangle, cols 1..d-1
                lo = -math.sqrt(r) if (self.extra and j == 1) else -c0
                ranges[("b", i, j)] = (lo, 0.0)
        for j in range(1, d):
            for i in range(1, j):  # strictly upper triangle
                ranges[("b", i, j)] = (0.0, c0)
        for j in range(1, d):  # last row
            lo = -math.sqrt(r) if (self.extra and j == 1) else -c0
            ranges[("b", d, j)] = (lo, 0.0)
        for j in range(1, d):
            ranges[("x", j)] = (0.0, c0 / d)
        return ranges

    def box_volume(self) -> float:
        vol = 1.0
        for lo, hi in self.entry_ranges().values():
            vol *= hi - lo
        return vol


def _sample_region_coords(region: CoordinateRegion, rng):
    """One uniform draw from the bounding box; None if a coupled condition rejects."""
    d, r = region.d, region.r
    ranges = region.entry_ranges()
    b = np.zeros((d + 1, d + 1))  # 1-indexed
    x = np.zeros(d + 1)
    for key, (lo, hi) in ranges.items():
        val = float(rng.uniform(lo, hi))
        if key[0] == "b":
            b[key[1], key[2]] = val
        else:
            x[key[1]] = val
    for i in range(3, d + 1):
        for j in range(2, min(i, d)):
            if not b[i, j] < d * b[i, j - 1]:
                return None
    for j in range(1, d - 1):
        for i in range(j + 1, d):
            if not abs(b[i, j] * b[j, i]) < r / math.factorial(d):
                return None
    if not sum(abs(b[d, j]) * x[j] for j in range(1, d)) < r / 2.0:
        return None
    for j in range(1, d + 1):
        for k in range(j + 1, d + 1):
            for i in range(k + 1, d + 1):
                if j < d and not b[k, j] > b[i, j]:
                    return None
    return b, x


def region_matrix(region: CoordinateRegion, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Assemble g = p_{b_1..b_{d-1}} u_x from sampled coordinates."""
    d = region.d
    p = np.zeros((d, d))
    for j in range(1, d):
        for i in range(1, d + 1):
            p[i - 1, j - 1] = b[i, j]
    minor = p[: d - 1, : d - 1]
    det_minor = np.linalg.det(minor)
    if abs(det_minor) < 1e-12:
        raise ValidationError("degenerate minor in region sample")
    p[d - 1, d - 1] = 1.0 / det_minor
    u = np.eye(d)
    u[: d - 1, d - 1] = x[1:d]
    return p @ u


def sample_region_lattice(region: CoordinateRegion, rng, max_attempts: int = 10_000):
    """Rejection-sample the region; returns a unimodular lattice basis."""
    for _ in range(max_attempts):
        coords = _sample_region_coords(region, rng)
        if coords is None:
            continue
        return region_matrix(region, *coords)
    raise ValidationError("region sampler exhausted its attempts (empty region?)")


def lower_bound_region_volume(
    region: CoordinateRegion, N: int, seed: int, label: str = "region"
) -> McEstimate:
    """Invariant volume of the region: box volume times the acceptance rate
    over the coupled conditions, divided by zeta(2)...zeta(d)."""
    if N < 1000:
        raise ValidationError("N must be >= 1000")
    rng = substream(seed, label, 0)
    hits = 0
    for _ in range(N):
        if _sample_region_coords(region, rng) is not None:
            hits += 1
    zeta_prod = 1.0
    for k in range(2, region.d + 1):
        zeta_prod *= _ZETA[k]
    scale = region.box_volume() / zeta_prod
    return _estimate(hits, N, scale, (region, N, seed, label))


@dataclass
class FitReport:
    kappa_hat: float
    se: float
    lambda_frozen: bool
    lambda_value: float
    reference_exponent: float
    residuals: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "kappa_hat": self.kappa_hat,
            "se": self.se,
            "lambda_frozen": self.lambda_frozen,
            "lambda_value": self.lambda_value,
            "reference_exponent": self.reference_exponent,
        }


def fit_refusal(r_values, means) -> str | None:
    """Why fit_scaling refuses these points, or None when it fits them: it
    needs >= 4 distinct radii spanning a decade and every estimate positive."""
    radii = {float(r) for r in r_values}
    if len(radii) < 4 or max(radii) / min(radii) < 10.0 - 1e-9:
        return "need >= 4 distinct radii spanning a decade"
    if any(m <= 0 for m in means):
        return "estimates must be positive for a log fit"
    return None


def fit_scaling(
    r_values,
    estimates,
    dims: DimensionParams,
    thickened: bool = False,
    freeze_lambda: bool = True,
) -> FitReport:
    """Least squares for log mu = kappa log r + lambda log log(1/r) + const.

    With freeze_lambda the log-log term is pinned at lambda_d and only
    (kappa, const) are fit.  Reference exponents: kappa_d + 1 for the
    plain/primed targets, kappa_d for the thickened ones.  The points must
    pass fit_refusal.
    """
    r_values = np.asarray([float(r) for r in r_values])
    mu = np.asarray([e.mean if isinstance(e, McEstimate) else float(e) for e in estimates])
    refusal = fit_refusal(r_values, mu)
    if refusal:
        raise ValidationError(refusal)
    y = np.log(mu)
    lx = np.log(r_values)
    llx = np.log(np.log(1.0 / r_values))
    lam = dims.lambda_d
    if freeze_lambda:
        X = np.column_stack([lx, np.ones_like(lx)])
        y_adj = y - lam * llx
    else:
        X = np.column_stack([lx, llx, np.ones_like(lx)])
        y_adj = y
    if np.linalg.cond(X) > 1e10:
        raise ValidationError("ill-conditioned design matrix")
    coef, res, rank, _ = np.linalg.lstsq(X, y_adj, rcond=None)
    fitted = X @ coef
    resid = y_adj - fitted
    dof = max(len(y) - X.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    kappa = float(coef[0])
    se = float(math.sqrt(cov[0, 0]))
    lam_val = lam if freeze_lambda else float(coef[1])
    reference = dims.kappa_d if thickened else dims.kappa_d + 1.0
    return FitReport(
        kappa_hat=kappa,
        se=se,
        lambda_frozen=freeze_lambda,
        lambda_value=lam_val,
        reference_exponent=reference,
        residuals=resid.tolist(),
    )


@dataclass
class PairCorrelationReport:
    i: int
    j: int
    b_i: float
    b_j: float
    b_ij: float
    ratio: float  # |b_ij| / (b_i b_j)
    count: int
    zero_hit: bool
    params_hash: str = ""


def pair_correlation(
    i: int,
    j: int,
    rho,
    w: WeightPair,
    N: int,
    seed: int,
    independent: bool = False,
    label: str = "paircorr",
) -> PairCorrelationReport:
    """Shared-sample estimates of b_i, b_j and the centered cross moment.

    h_k(A) is the indicator of g_k L_A hitting the thickened primed target
    of radius 2 rho(k).  With independent=True the second indicator uses a
    fresh sample (decorrelation sanity check).  Each chunk of _CHUNK samples
    takes two d = 2 tables (exact2d.membership_profiles), at sigma = i and j.
    """
    if not j > i >= 1:
        raise ValidationError("need j > i >= 1")
    if (w.m, w.n) != (1, 1):
        raise ValidationError("pair correlation is implemented for m = n = 1")
    if N < 100:
        raise ValidationError("N must be >= 100")
    r_i = 2.0 * float(rho(i))
    r_j = 2.0 * float(rho(j))
    c_i = c_j = c_ij = 0
    second = _torus_chunks(seed, label + "-indep", N, 1, 1) if independent else None
    for A in _torus_chunks(seed, label, N, 1, 1):
        h_i = exact_profiles(A, float(i), [KIND_THICK_PRIMED], [r_i])[1][:, 0]
        B = next(second) if independent else A
        h_j = exact_profiles(B, float(j), [KIND_THICK_PRIMED], [r_j])[1][:, 0]
        c_i += int(h_i.sum())
        c_j += int(h_j.sum())
        c_ij += int((h_i & h_j).sum())
    b_i = c_i / N
    b_j = c_j / N
    b_ij = c_ij / N - b_i * b_j
    zero = c_i == 0 or c_j == 0
    ratio = math.inf if zero else abs(b_ij) / (b_i * b_j)
    return PairCorrelationReport(
        i=i,
        j=j,
        b_i=b_i,
        b_j=b_j,
        b_ij=b_ij,
        ratio=ratio,
        count=N,
        zero_hit=zero,
        params_hash=_params_hash(i, j, r_i, r_j, N, seed, independent, label),
    )
