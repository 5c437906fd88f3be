"""Continued-fraction oracle for the scalar (m = n = 1) case.

Cross-check of the lattice-based scanner: convergents p_k/q_k
are the best rational approximations of the second kind, so on each block
t in (q_k, q_{k+1}] the system is solvable for all t iff
|q_k alpha - p_k| < psi(q_{k+1}) (psi decreasing makes the right endpoint
the worst case).  A float is a rational, so the expansion runs Euclid's
algorithm on its exact integer ratio: every partial quotient and
convergent is exact, and the expansion ends (in under ~80 steps for a
53-bit denominator) when the ratio is exhausted.  The Euclid step is
exact2d.partial_quotients, the one the convergent ladder of Exact2D runs,
so at m = n = 1 `check --oracle both` compares two readings of one Euclid
step: the agreement checks the psi inversion and the interval algebra.
Failing blocks are joined into the uncovered list by
intervals.merge_intervals, under the scan's one tolerance rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from .approx import PsiFunction
from .dirichlet import psi_inverse
from .errors import ValidationError
from .exact2d import partial_quotients
from .intervals import merge_intervals
from .lattice import strictly_less

# partial quotients cf_uncovered_intervals expands at most; a float's
# expansion ends well before (its denominator is at most 2^1074, whose
# Euclid pass takes under 1 600 steps)
_MAX_QUOTIENTS = 10_000


@dataclass
class ContinuedFraction:
    alpha: float
    partial_quotients: list  # a_1, a_2, ... (alpha in (0,1), so a_0 = 0)
    convergents: list  # (p_k, q_k) for k = 0, 1, ...; starts at (0, 1)
    truncated: bool = False

    def errors(self):
        """|q_k alpha - p_k| per convergent.

        Evaluated through the float's exact integer ratio: the direct float
        product q*alpha loses the answer entirely once q*err is below the
        rounding noise.
        """
        num, den = self.alpha.as_integer_ratio()
        return [abs(q * num - p * den) / den for p, q in self.convergents]


def cf_expand(alpha: float, K: int) -> ContinuedFraction:
    """First K partial quotients of alpha in (0,1), by Euclid on its exact ratio.

    `truncated` is set when the expansion of the float's rational value
    ends before K quotients.  The convergent list starts at the 0th
    convergent (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0,1)")
    if K < 1:
        raise ValidationError("K must be >= 1")
    quotients = []
    convergents = [(0, 1)]
    p_prev, q_prev = 1, 0  # p_{-1}, q_{-1}
    p_cur, q_cur = 0, 1  # p_0, q_0
    for a in islice(partial_quotients(*alpha.as_integer_ratio()), K):
        quotients.append(a)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        convergents.append((p_cur, q_cur))
    return ContinuedFraction(alpha, quotients, convergents, truncated=len(quotients) < K)


@dataclass
class FiniteHorizonVerdict:
    alpha: float
    horizon_q: int
    failures: list = field(default_factory=list)  # indices k failing the criterion
    failure_intervals: list = field(default_factory=list)  # uncovered (lo, hi] per failure
    truncated: bool = False
    burn_in_q: float = 0.0

    @property
    def pass_up_to(self) -> bool:
        return not self.failures


def cf_is_psi_dirichlet(alpha: float, psi: PsiFunction, K: int) -> FiniteHorizonVerdict:
    """Check |q_k alpha - p_k| < psi(q_{k+1}) along the first K convergents.

    The verdict passes up to q_K iff no failures occur beyond the burn-in
    (blocks whose right endpoint is below psi's domain start psi.t0 are
    skipped).  Strictness follows the same tolerance policy as the lattice
    checker.
    """
    if K < 3:
        raise ValidationError("K must be >= 3")
    cf = cf_expand(alpha, K + 1)
    burn = psi.t0
    verdict = FiniteHorizonVerdict(
        alpha=alpha,
        horizon_q=cf.convergents[-1][1] if cf.convergents else 0,
        truncated=cf.truncated,
        burn_in_q=burn,
    )
    errs = cf.errors()
    t_cap = 10.0 * max(burn, verdict.horizon_q or 1)
    for k in range(len(cf.convergents) - 1):
        q_next = cf.convergents[k + 1][1]
        if q_next < burn:
            continue
        bound = float(psi.psi(q_next))
        err = errs[k]
        if strictly_less(err, bound):
            continue
        verdict.failures.append(k)
        q_k = cf.convergents[k][1]
        lo = max(float(q_k), psi_inverse(psi, err, burn, t_cap))
        verdict.failure_intervals.append((lo, float(q_next)))
    return verdict


def cf_uncovered_intervals(alpha: float, psi: PsiFunction, T: float):
    """Uncovered subset of (psi.t0, T] predicted by the convergent blocks.

    Per failing block the uncovered part is [psi^{-1}(err_k), q_{k+1}]
    clipped to the scan domain; the blocks are joined by
    intervals.merge_intervals, the scan's rule.
    """
    cf = cf_expand(alpha, _MAX_QUOTIENTS)
    t_start = psi.t0
    t_cap = 10.0 * T
    out = []
    errs = cf.errors()
    for k in range(len(cf.convergents)):
        q_k = cf.convergents[k][1]
        if q_k >= T:
            break
        q_next = cf.convergents[k + 1][1] if k + 1 < len(cf.convergents) else math.inf
        block_hi = min(float(q_next), float(T))
        block_lo = max(float(q_k), t_start)
        if block_hi <= block_lo:
            continue
        err = errs[k]
        cross = psi_inverse(psi, err, t_start, t_cap)
        if cross < block_hi:
            out.append((max(block_lo, cross), block_hi))
    return merge_intervals(out)
