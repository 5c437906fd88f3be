"""Shrinking-target orbit experiments.

Hit series follow the orbit g_k L_A through shrinking thickened targets;
the upper/lower variants bracket non-improvability between the two weight
constants, and the "ndi" variant is the primed-target family whose
infinitely-often hitting characterizes the divergence side.  "Infinitely
many k" is finitized as "at least one hit in the last half of the range",
which is scale-free and monotone under horizon extension.

Scalar (m = n = 1) orbits run on exact fixed-point arithmetic, so hit
decisions stay sound at flow times far beyond double precision; the
ensemble bit width is chosen from the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import DimensionParams, PsiFunction
from .dirichlet import psi_dirichlet_scan
from .errors import BudgetExceeded, ConstructionError, ValidationError
from .exact2d import Exact2D
from .lattice import (
    UnimodularLattice,
    WeightPair,
    apply_flow,
    flowed_lattices,
    lattice_from_matrix,
)
from .mc import CoordinateRegion, sample_region_lattice
from .parallel import indexed_map
from .rate import RateFunction, dani_row, s0_of
from .reports import basis_rows
from .rng import substream, torus_samples_fixedpoint
from .targets import (
    _WINDOWS,
    KIND_PRIMED,
    KIND_THICK,
    KIND_THICK_PRIMED,
    TargetSpec,
    in_target,
    thickened_hits,
)

VARIANT_UPPER = "upper"
VARIANT_LOWER = "lower"
VARIANT_NDI = "ndi"

# beyond this flow time the float-basis path has no precision left
FLOAT_FLOW_HORIZON = 15.0


@dataclass
class HitSeries:
    variant: str
    k_lo: int
    k_hi: int
    hits: np.ndarray
    radii: np.ndarray
    constants: dict

    @property
    def k_values(self):
        return np.arange(self.k_lo, self.k_hi + 1)

    def tail_hit(self) -> bool:
        """At least one hit in the last half of the range."""
        half = (self.k_lo + self.k_hi) // 2
        return bool(self.hits[self.k_values > half].any())


def _variant_radius(variant: str, rate: RateFunction, w: WeightPair, k: int, C_r: float, a):
    if variant == VARIANT_UPPER:
        return w.omega1 * C_r * rate(float(k))
    if variant == VARIANT_LOWER:
        return w.omega2 / C_r * rate(float(k + 1))
    if variant == VARIANT_NDI:
        return a * rate(float(k + 1))
    raise ValidationError(f"unknown variant {variant!r}")


def orbit_hit_series(
    A,
    rate: RateFunction,
    variant: str,
    k_range,
    w: WeightPair,
    C_r: float = 1.0,
    a: float | None = None,
    radii=None,
) -> HitSeries:
    """hits[k] = [g_k L_A lies in the variant's target at radius(k)].

    A may be a float matrix or, for m = n = 1, an exact (num, den) pair.
    Ensemble callers precompute `radii` once; they depend only on k.
    """
    if variant == VARIANT_NDI and not (a is not None and 0.0 < a < 1.0):
        raise ValidationError("ndi variant needs a in (0,1)")
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_hi < k_lo:
        raise ValidationError("empty k range")
    scalar = (w.m, w.n) == (1, 1)
    if radii is None:
        radii = np.array(
            [_variant_radius(variant, rate, w, k, C_r, a) for k in range(k_lo, k_hi + 1)]
        )
    else:
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (k_hi - k_lo + 1,):
            raise ValidationError("radii length must match the k range")
    if np.any((radii <= 0) | (radii >= 1)):
        raise ValidationError("variant radii must lie in (0,1) over the range")
    primed = variant == VARIANT_NDI
    kind = KIND_THICK_PRIMED if primed else KIND_THICK
    window = _WINDOWS[kind]
    hits = np.zeros(k_hi - k_lo + 1, dtype=bool)
    if scalar:
        found = Exact2D.of(A).witness_intervals_batch(
            [(float(k), window, r, primed) for k, r in zip(range(k_lo, k_hi + 1), radii.tolist())]
        )
        hits[:] = [bool(ivs) for ivs in found]
    else:
        if k_hi + window > FLOAT_FLOW_HORIZON:
            raise BudgetExceeded(
                f"float-basis orbits are only exact up to flow time {FLOAT_FLOW_HORIZON}"
            )
        L = lattice_from_matrix(np.asarray(A, dtype=float), w.dims)
        flowed = flowed_lattices(L.basis, np.arange(k_lo, k_hi + 1, dtype=float), w)
        hits[:] = thickened_hits(flowed, kind, radii.tolist(), w)
    constants = {"C_r": C_r, "omega1": w.omega1, "omega2": w.omega2, "a": a}
    return HitSeries(
        variant=variant,
        k_lo=k_lo,
        k_hi=k_hi,
        hits=hits,
        radii=radii,
        constants=constants,
    )


@dataclass
class ContrastReport:
    ensemble: int
    k_lo: int
    k_hi: int
    a: float
    tail_frequency: float
    hit_counts: list
    tail_hits: list
    hit_series: list  # per member: list of 0/1 over the k range
    seed: int
    rate_label: str

    def histogram(self):
        vals, counts = np.unique(np.array(self.hit_counts), return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def ensemble_bits(k_hi: float, margin: float = 40.0) -> int:
    """Fixed-point bits so the rational orbit blowup sits past the horizon."""
    bits = int(math.ceil((k_hi + margin) / math.log(2.0))) + 32
    return ((bits + 31) // 32) * 32


def empirical_zero_one(
    rate: RateFunction,
    w: WeightPair,
    ensemble: int,
    k_range,
    a: float,
    seed: int,
    label: str = "zeroone",
) -> ContrastReport:
    """Tail hit frequency of the primed shrinking-target series over an ensemble.

    Divergent rate series predict persistent tail hitting; convergent ones
    predict vanishing tail frequency.  Member i's fixed-point A is
    sample_torus_fixedpoint(substream(seed, label, i), 1, 1, bits), all
    members drawn by one rng.torus_samples_fixedpoint call before the
    orbits run, so evaluation order cannot affect any number.
    """
    if ensemble < 50:
        raise ValidationError("ensemble must be >= 50")
    if (w.m, w.n) != (1, 1):
        raise ValidationError("zero-one contrast runs on m = n = 1")
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    bits = ensemble_bits(k_hi + 1.0)
    radii = np.array(
        [_variant_radius(VARIANT_NDI, rate, w, k, 1.0, a) for k in range(k_lo, k_hi + 1)]
    )

    nums, den = torus_samples_fixedpoint(seed, label, 0, ensemble, 1, 1, bits)

    def member(idx: int):
        series = orbit_hit_series(
            (nums[idx][0][0], den), rate, VARIANT_NDI, (k_lo, k_hi), w, a=a, radii=radii
        )
        return int(series.hits.sum()), series.tail_hit(), series.hits.astype(int).tolist()

    results = indexed_map(member, ensemble)
    hit_counts = [r[0] for r in results]
    tail_hits = [r[1] for r in results]
    return ContrastReport(
        ensemble=ensemble,
        k_lo=k_lo,
        k_hi=k_hi,
        a=a,
        tail_frequency=float(np.mean(tail_hits)),
        hit_counts=hit_counts,
        tail_hits=tail_hits,
        hit_series=[r[2] for r in results],
        seed=seed,
        rate_label=rate.label,
    )


def construct_primed_lattice(
    r: float,
    dims: DimensionParams,
    c0: float = 0.1,
    rng=None,
    seed: int | None = None,
    max_attempts: int = 1000,
) -> UnimodularLattice:
    """Sample the explicit coordinate region and return a lattice certified
    to lie in the primed target at radius r.

    The region is taken at parameter 1 - e^-r, whose projection is contained
    in the primed set at radius r; membership is re-verified and the draw
    rejected on (numerically marginal) failure.
    """
    if rng is None:
        if seed is None:
            raise ValidationError("pass rng or seed")
        rng = substream(seed, "primed-region", 0)
    region = CoordinateRegion(r=1.0 - math.exp(-r), d=dims.d, c0=c0)
    spec = TargetSpec(KIND_PRIMED, r)
    for _ in range(max_attempts):
        basis = sample_region_lattice(region, rng)
        L = UnimodularLattice(basis, dims)
        if in_target(L, spec):
            return L
    raise ConstructionError(
        "constructed lattices kept failing primed-target verification"
    )


@dataclass
class DisjointnessReport:
    r: float
    J: int
    samples: int
    violations: list = field(default_factory=list)  # (sample index, k)
    seed: int = 0

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def verify_disjointness(
    r: float,
    dims: DimensionParams,
    w: WeightPair,
    samples: int,
    seed: int,
    c0: float = 0.1,
) -> DisjointnessReport:
    """Flow translates of the thickened primed target must stay disjoint for
    k = 1..J with J = floor(log(1/r)/4); counts violations (theory: none).
    """
    cap = min(dims.d * w.alpha_min / (2 * dims.d + 1), w.beta_min / 2.0, math.exp(-4.0))
    if not 0.0 < r < cap:
        raise ValidationError(f"r must lie in (0, {cap:g}) for the disjointness range")
    # floor with the usual boundary tolerance so r = e^-4J lands on J exactly
    J = int(math.floor(0.25 * math.log(1.0 / r) + 1e-12))
    spec = TargetSpec(KIND_THICK_PRIMED, r, w)
    report = DisjointnessReport(r=r, J=J, samples=samples, seed=seed)
    for idx in range(samples):
        rng = substream(seed, "disjoint", idx)
        base = construct_primed_lattice(r, dims, c0=c0, rng=rng)
        u = float(rng.uniform(0.0, 0.5))
        member = apply_flow(base, -u, w)  # lies in the thickened primed set
        flowed = flowed_lattices(member.basis, np.arange(1, J + 1, dtype=float), w)
        for k, hit in enumerate(thickened_hits(flowed, spec.kind, [spec.r] * J, w), start=1):
            if hit:
                report.violations.append(
                    {"sample": idx, "k": k, "basis": basis_rows(member.basis)}
                )
    return report


@dataclass
class CrossvalReport:
    S: float
    s0: float
    t_start: float
    T: float
    counterexamples: list = field(default_factory=list)
    uncovered: list = field(default_factory=list)
    grid: list = field(default_factory=list)  # (s, delta, r, t) witness rows
    all_above: bool = False

    @property
    def consistent(self) -> bool:
        return not self.counterexamples


def dani_table(psi: PsiFunction, dims: DimensionParams, S: float, s_step: float = 0.05):
    """Shared (s, r(s), t(s)) grid rows; ensembles reuse one table."""
    if not s_step > 0.0:
        raise ValidationError("s_step must be positive")
    s0 = s0_of(psi, dims)
    if S <= s0 + s_step:
        raise ValidationError("horizon S must exceed s0 by at least one step")
    grid = np.arange(s0, S + 1e-12, s_step)
    return [dani_row(psi, dims, float(s)) for s in grid]


def cross_validate_dani(
    A,
    psi: PsiFunction,
    dims: DimensionParams,
    w: WeightPair,
    S: float,
    s_step: float = 0.05,
    rate_table=None,
) -> CrossvalReport:
    """Finite-horizon consistency of the time-change correspondence.

    (i) if Delta(g_s L_A) > omega1 r(s) with a one-Lipschitz-step margin at
    every grid point, the scan's uncovered set must be empty;
    (ii) at grid points with Delta(g_s L_A) <= omega2 r(s) - margin, the
    time t(s) must itself be uncovered.
    Counterexamples carry full witness data.
    """
    if (dims.m, dims.n) != (1, 1):
        raise ValidationError("cross-validation is implemented for m = n = 1")
    ex = Exact2D.of(A)
    if rate_table is None:
        rate_table = dani_table(psi, dims, S, s_step)
    s0 = rate_table[0][0]
    lip = max(w.alpha_max, w.beta_max)
    rows = [(s, ex.delta_flowed(s), r_val, t_val) for s, r_val, t_val in rate_table]
    t_start = rows[0][3]
    T = rows[-1][3]
    scan = psi_dirichlet_scan(ex, psi, T, w, t_start=t_start)
    report = CrossvalReport(
        S=S, s0=s0, t_start=t_start, T=T, uncovered=scan.uncovered, grid=rows
    )

    def in_uncovered(t, slack):
        return any(lo - slack < t <= hi + slack for lo, hi in scan.uncovered)

    # r-variation along the grid enters the Lipschitz band
    r_vals = [row[2] for row in rows]
    bands = []
    for i in range(len(rows)):
        dr = 0.0
        if i > 0:
            dr = max(dr, abs(r_vals[i] - r_vals[i - 1]))
        if i + 1 < len(rows):
            dr = max(dr, abs(r_vals[i + 1] - r_vals[i]))
        bands.append(lip * s_step + w.omega1 * 1.5 * dr)

    all_above = all(
        row[1] > w.omega1 * row[2] + band for row, band in zip(rows, bands)
    )
    report.all_above = all_above
    if all_above and scan.uncovered:
        report.counterexamples.append(
            {
                "kind": "uncovered despite margin above omega1 r",
                "uncovered": scan.uncovered[:5],
            }
        )
    for (s, d_val, r_val, t_val), band in zip(rows, bands):
        if t_val <= t_start or t_val > T:
            continue
        if d_val <= w.omega2 * r_val - 1e-9:
            slack = 1e-6 * max(1.0, t_val)
            if not in_uncovered(t_val, slack):
                report.counterexamples.append(
                    {
                        "kind": "solvable at t(s) despite Delta <= omega2 r(s)",
                        "s": s,
                        "delta": d_val,
                        "r": r_val,
                        "t": t_val,
                    }
                )
        if d_val > w.omega1 * r_val + 1e-9:
            # pointwise: strictly above omega1 r makes t(s) solvable
            if in_uncovered(t_val, -1e-9 * max(1.0, t_val)):
                report.counterexamples.append(
                    {
                        "kind": "uncovered at t(s) despite Delta > omega1 r(s)",
                        "s": s,
                        "delta": d_val,
                        "r": r_val,
                        "t": t_val,
                    }
                )
    return report
