"""Exact psi-Dirichlet solvability checks and horizon scans.

A pair (p, q) solves the system at time t when

    ||A q - p||_alpha < psi(t)   and   ||q||_beta < t,

so for the componentwise-nearest p the pair covers the open t-interval
( ||q||_beta , psi^{-1}(err) ).  The scan computes the union of these
intervals over every admissible q exactly (no t-grid) and reports the
uncovered complement of (t_start, T]: intervals.sweep, under the interval
algebra's one tolerance rule, with the near-ties that rule decided.

Only "record" pairs matter: a q whose error is not a strict running
minimum in order of increasing ||q||_beta is subsumed by an earlier one.
One dispatcher, _records, finds them for the scan and dirichlet_solvable
alike: A goes through Exact2D.of at m = n = 1 and must be (m, n)
otherwise, and one of three backends runs:

  * dense      -- m = n = 1, power-of-two denominator, T moderate: exact
                  integer distances vectorized over all q (uint64 wraparound
                  is exact modulo 2^64, so q*num mod 2^e is branch-free);
  * walk       -- m = n = 1, any horizon: the records are the convergent
                  rungs of Exact2D's ladder (Lagrange's best-approximation
                  theorem), read off one Euclid pass with no box query;
  * general    -- any (m, n): enumerate the q-box, vectorized errors.

classic_mode reproduces the original Dirichlet inequality system
(non-strict first inequality, psi(t) = 1/t, unweighted quasi-norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import PsiFunction
from .errors import BudgetExceeded, ValidationError
from .exact2d import Exact2D, log_int
from .intervals import sweep as _sweep
from .lattice import WeightPair, boundary_tol, strictly_less

_DENSE_LIMIT = 2_000_000
_CHUNK = 1 << 22


@dataclass
class ScanReport:
    t_start: float
    T: float
    uncovered: list = field(default_factory=list)  # maximal uncovered intervals
    records: list = field(default_factory=list)  # (q_norm, err) strict records
    boundary_points: list = field(default_factory=list)  # near-ties of intervals.sweep
    classic_mode: bool = False
    n_considered: int = 0

    @property
    def passes(self) -> bool:
        return not self.uncovered


def psi_inverse(psi: PsiFunction, err: float, t_lo: float, t_cap: float) -> float:
    """sup{t in [t_lo, t_cap]: psi(t) > err}; +inf when err < psi(t_cap), t_lo when err >= psi(t_lo)."""
    if err <= 0.0:
        return math.inf
    # domain-bounded families (tabulated) clamp the bisection cap
    t_cap = min(t_cap, psi.t_end)
    p_lo = float(psi.psi(t_lo))
    if err >= p_lo:
        return t_lo
    if err < float(psi.psi(t_cap)):
        return math.inf
    # every midpoint lies inside the checked endpoints: evaluate the formula
    formula = psi._psi
    lo, hi = t_lo, t_cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if formula(mid) > err:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def _records_dense(num: int, den_exp: int, T: int):
    """Strict error records for m = n = 1, denominator 2^den_exp <= 2^64."""
    den_i = 1 << den_exp
    num %= den_i
    if num == 0:
        return [(1, 0)] if T >= 1 else []
    mask = np.uint64(den_i - 1)
    # den - w in uint64; den = 2^64 wraps to 0, and 0 - w wraps to 2^64 - w
    den_w = np.uint64(den_i & 0xFFFFFFFFFFFFFFFF)
    num_u = np.uint64(num)
    records = []
    carry = den_i // 2 + 1  # every distance is at most den / 2
    size = min(_CHUNK, T)  # a short horizon needs no full chunk
    q = np.arange(1, 1 + size, dtype=np.uint64)
    work = np.empty(size, dtype=np.uint64)
    q0 = 1
    while q0 <= T:
        n = min(_CHUNK, T - q0 + 1)
        qv = q[:n]
        wv = work[:n]
        np.multiply(qv, num_u, out=wv)
        np.bitwise_and(wv, mask, out=wv)
        lo = int(wv.min())
        hi = int(wv.max())
        if min(lo, den_i - hi) < carry:
            dist = np.minimum(wv, den_w - wv)
            np.minimum(dist, np.uint64(carry), out=dist)
            cm = np.minimum.accumulate(dist)
            prev = np.concatenate(([np.uint64(carry)], cm[:-1]))
            for i in np.flatnonzero(cm < prev):
                records.append((q0 + int(i), int(cm[i])))
            carry = int(cm[-1])
            if carry == 0:
                break
        np.add(qv, np.uint64(n), out=qv)
        q0 += n
    return records


def _records_walk(ex: Exact2D, T: int):
    """Strict error records (q, den * ||qA||) for 1 <= q <= T, exact for any horizon.

    By Lagrange's best-approximation theorem (Khinchin, Continued Fractions,
    Thms 16-17) they are the convergent rungs (q_k, |N_k|) of ex's ladder.
    Where a_1 = 1 the ladder holds q = 1 twice; the later, smaller rung wins.
    """
    records = []
    # every rung has |N| <= den, so the box's rungs are those with q <= T
    for n, q in ex._points[1 : ex._box_rungs(ex.den, T).stop]:
        if records and records[-1][0] == q:
            records.pop()
        records.append((q, abs(n)))
    return records


def _ratio(n: int, den: int) -> float:
    if n == 0:
        return 0.0
    if n < 2**53 and den < 2**53:
        return n / den
    return math.exp(log_int(n) - log_int(den))


def _int_strictly_below(t: float) -> int:
    """Largest integer q with q < t under the boundary tolerance policy."""
    return int(math.ceil(t - boundary_tol(t))) - 1


def _q_box_records(A: np.ndarray, T: float, w: WeightPair, budget: int):
    """Pareto records ((q_norm, err)) over the q-box for an (m, n) float array A."""
    bounds = [max(_int_strictly_below(T ** w.beta[j]), 0) for j in range(w.n)]
    count = 1
    for b in bounds:
        count *= 2 * b + 1
    if count > budget:
        raise BudgetExceeded(f"q-box has {count} points, budget {budget}")
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    Q = np.stack([g.ravel() for g in grids], axis=0).astype(float)  # (n, K)
    # canonical sign, first nonzero coordinate positive: the grid is symmetric
    # and lexicographic with q = 0 at its centre, so keep what follows it
    Q = Q[:, Q.shape[1] // 2 + 1 :]
    beta = np.array(w.beta)
    qnorm = np.max(np.abs(Q) ** (1.0 / beta[:, None]), axis=0)
    keep = strictly_less(qnorm, T)
    Q = Q[:, keep]
    qnorm = qnorm[keep]
    X = A @ Q
    X -= np.rint(X)
    alpha = np.array(w.alpha)
    err = np.max(np.abs(X) ** (1.0 / alpha[:, None]), axis=0)
    order = np.argsort(qnorm, kind="stable")
    records = []
    best = math.inf
    for idx in order:
        e = float(err[idx])
        if e < best:
            best = e
            records.append((float(qnorm[idx]), e))
    return records, int(Q.shape[1])


def _records(A, T: float, w: WeightPair, budget: int):
    """(records, q_considered) over 0 < ||q||_beta < T: the one backend choice.

    At m = n = 1 the records are exact (dense for a power-of-two denominator
    within _DENSE_LIMIT, else the ladder); elsewhere A must be (m, n)."""
    if w.m == 1 and w.n == 1:
        ex = Exact2D.of(A)
        q_hi = _int_strictly_below(T)
        den_exp = ex.den.bit_length() - 1
        if ex.den == 1 << den_exp and den_exp <= 64 and q_hi <= _DENSE_LIMIT:
            int_records = _records_dense(ex.num, den_exp, q_hi)
        else:
            int_records = _records_walk(ex, q_hi)
        return [(float(q), _ratio(nv, ex.den)) for q, nv in int_records], q_hi
    A = np.asarray(A, dtype=float)
    if A.shape != (w.m, w.n):
        raise ValidationError(f"A has shape {A.shape}, dims need ({w.m}, {w.n})")
    return _q_box_records(A, T, w, budget)


def psi_dirichlet_scan(
    A,
    psi: PsiFunction | None,
    T: float,
    w: WeightPair,
    t_start: float | None = None,
    classic_mode: bool = False,
    budget: int = 5_000_000,
) -> ScanReport:
    """Exact interval-cover decision on (t_start, T].

    Every admissible q contributes the open interval
    (||q||_beta, psi^{-1}(||Aq - p||_alpha)); the report lists the maximal
    intervals of (t_start, T] left uncovered (empty list <=> A passes up
    to T).  Exact up to bisection tolerance; no t-grid is involved.
    """
    if classic_mode:
        w = WeightPair.unweighted(w.m, w.n)
        t_start = 1.0 if t_start is None else float(t_start)
    else:
        if psi is None:
            raise ValidationError("psi required unless classic_mode")
        t_start = float(psi.t0) if t_start is None else max(float(t_start), psi.t0)
    if T <= t_start:
        raise ValidationError("T must exceed t_start")

    records, considered = _records(A, T, w, budget)
    t_cap = 10.0 * T
    intervals = []
    for qn, err in records:
        if classic_mode:
            right = math.inf if err == 0.0 else 1.0 / err
            # non-strict first inequality: t = right itself is solvable
            right = right * (1 + 1e-15) if math.isfinite(right) else right
        else:
            right = psi_inverse(psi, err, t_start, t_cap)
        if right > qn:
            intervals.append((qn, min(right, t_cap)))
    uncovered, boundary = _sweep(intervals, t_start, T)
    return ScanReport(
        t_start=t_start,
        T=float(T),
        uncovered=uncovered,
        records=records,
        boundary_points=boundary,
        classic_mode=classic_mode,
        n_considered=considered,
    )


def dirichlet_solvable(
    A,
    psi: PsiFunction | None,
    t: float,
    w: WeightPair,
    classic_mode: bool = False,
    budget: int = 5_000_000,
) -> bool:
    """Is the system solvable at the single time t?

    For each candidate q the optimal p is the componentwise nearest integer
    to Aq (ties to even); strict inequalities follow the boundary tolerance
    policy.  classic_mode uses psi(t) = 1/t and a non-strict first
    inequality, reproducing the original Dirichlet statement.
    """
    if classic_mode:
        w = WeightPair.unweighted(w.m, w.n)
        bound = 1.0 / t
    else:
        if psi is None:
            raise ValidationError("psi required unless classic_mode")
        if t < psi.t0:
            raise ValidationError(f"t below psi domain start {psi.t0}")
        bound = float(psi.psi(t))
    if t <= 1.0:
        raise ValidationError("t must exceed 1")

    records, _ = _records(A, t, w, budget)
    err = min((e for _, e in records), default=math.inf)
    if classic_mode:
        return err <= bound * (1 + 1e-12)
    return bool(strictly_less(err, bound))
