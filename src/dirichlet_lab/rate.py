"""Time-changed flow rate r(s) and its transforms.

The change of variables between approximation time t and flow time s is

    s = (m/d) log t - (n/d) log psi(t),    e^{-d r(s)} = t psi(t),
    t = e^{s - n r(s)}.

The map t -> s is strictly increasing for a valid psi, so r(s) is obtained
by bisection in log t.  Computations route through F = 1 - t psi(t) and
log1p so that rates of order 1e-12 survive cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .approx import DimensionParams, PsiFunction
from .errors import DomainError, ValidationError

_BISECT_REL_TOL = 1e-12
_IDENTITY_TOL = 1e-9


def _s_of_logt(psi: PsiFunction, dims: DimensionParams, u: float) -> float:
    # s(t) = log t - (n/d) log(1 - F(t)) with t = e^u
    f = float(psi.f(math.exp(u)))
    if f <= 0.0 or f >= 1.0:
        raise ValidationError(f"F(t) = {f} outside (0,1); psi violates a side condition")
    return u - (dims.n / dims.d) * math.log1p(-f)


def s0_of(psi: PsiFunction, dims: DimensionParams) -> float:
    """Domain start s0 = (m/d) log t0 - (n/d) log psi(t0)."""
    return _s_of_logt(psi, dims, math.log(psi.t0))


def _invert_time(psi: PsiFunction, dims: DimensionParams, s: float) -> float:
    """Solve s(t) = s for log t by bisection to relative tolerance 1e-12 in t."""
    u_lo = math.log(psi.t0)
    s_lo = _s_of_logt(psi, dims, u_lo)
    if s < s_lo - 1e-9:
        raise DomainError(f"s = {s} below s0 = {s_lo}")
    if s <= s_lo:
        return u_lo
    # s(t) >= log t, so u = s is always an upper bracket
    u_hi = s
    if _s_of_logt(psi, dims, u_hi) < s:
        raise ValidationError("bisection bracket failure; psi is not monotone")
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        if _s_of_logt(psi, dims, u_mid) < s:
            u_lo = u_mid
        else:
            u_hi = u_mid
        if u_hi - u_lo <= _BISECT_REL_TOL:
            break
    return 0.5 * (u_lo + u_hi)


def dani_rate(psi: PsiFunction, dims: DimensionParams, s: float) -> float:
    """r(s) in (0, 1/d): invert t(s), then r = -log(t psi(t)) / d."""
    u = _invert_time(psi, dims, s)
    f = float(psi.f(math.exp(u)))
    r = -math.log1p(-f) / dims.d
    # identity e^{-d r} = t psi(t) must hold at the solved t
    t = math.exp(u)
    residual = abs(math.exp(-dims.d * r) - t * float(psi.psi(t)))
    if residual > _IDENTITY_TOL:
        raise ValidationError(f"dani identity residual {residual:g} exceeds 1e-9")
    return r


def dani_row(psi: PsiFunction, dims: DimensionParams, s: float) -> tuple:
    """(s, r(s), t(s)) with t(s) = e^{s - n r(s)}, from one inversion of t -> s."""
    r = dani_rate(psi, dims, s)
    return s, r, math.exp(s - dims.n * r)


def dani_time(psi: PsiFunction, dims: DimensionParams, s: float) -> float:
    """t(s) = e^{s - n r(s)}."""
    return dani_row(psi, dims, s)[2]


@dataclass(frozen=True)
class RateFunction:
    """r: [s0, oo) -> (0, 1/d), either derived from psi or explicit.

    Clamps, when set, compose as min(max(r(s), s^-gamma), s^-gamma_prime),
    lower clamp first.
    """

    fn: Callable[[float], float]
    s0: float
    dims: DimensionParams
    label: str = "explicit"
    gamma: float | None = None
    gamma_prime: float | None = None

    @classmethod
    def from_psi(cls, psi: PsiFunction, dims: DimensionParams) -> "RateFunction":
        return cls(
            fn=lambda s: dani_rate(psi, dims, s),
            s0=s0_of(psi, dims),
            dims=dims,
            label=f"dani[{psi.family}]",
        )

    @classmethod
    def explicit(cls, fn, s0: float, dims: DimensionParams, label="explicit"):
        return cls(fn=fn, s0=float(s0), dims=dims, label=label)

    @classmethod
    def constant(cls, value: float, dims: DimensionParams, s0: float = 1.0):
        if not 0.0 < value < 1.0 / dims.d:
            raise ValidationError(f"constant rate must lie in (0, 1/{dims.d})")
        return cls(fn=lambda s: value, s0=s0, dims=dims, label=f"const[{value:g}]")

    def __call__(self, s: float) -> float:
        if s < self.s0 - 1e-9:
            raise DomainError(f"s = {s} below s0 = {self.s0}")
        r = float(self.fn(s))
        if self.gamma is not None:
            r = max(r, s ** (-self.gamma))
        if self.gamma_prime is not None:
            r = min(r, s ** (-self.gamma_prime))
        # rates live in (0, 1/d); a derived rate escapes only when psi was
        # not reduced to satisfy psi >= 1/(2t) first
        if not 0.0 < r < 1.0 / self.dims.d + 1e-12:
            raise ValidationError(f"rate r({s}) = {r} outside (0, 1/{self.dims.d})")
        return r


def clamp_rate(
    rate: RateFunction,
    gamma_d: float,
    gamma_d_prime: float,
    eta: float = 0.5,
) -> RateFunction:
    """Polynomial clamp: s -> min(max(r(s), s^-gamma_d), s^-gamma_d_prime).

    Requires gamma_d > 1/kappa_d and 0 < gamma_d_prime < eta/kappa_d.
    """
    kappa = rate.dims.kappa_d
    if gamma_d <= 1.0 / kappa:
        raise ValidationError(f"gamma_d must exceed 1/kappa_d = {1.0 / kappa:g}")
    if not 0.0 < gamma_d_prime < eta / kappa:
        raise ValidationError(f"gamma_d_prime must lie in (0, eta/kappa_d) = (0, {eta / kappa:g})")
    return RateFunction(
        fn=rate.fn,
        s0=rate.s0,
        dims=rate.dims,
        label=rate.label + "+clamp",
        gamma=gamma_d,
        gamma_prime=gamma_d_prime,
    )


def rho_schedule(rate: RateFunction, a: float, k: int) -> float:
    """Target-radius schedule rho_k = a * r(k+1) / 2."""
    if not 0.0 < a < 1.0:
        raise ValidationError("a must lie in (0,1)")
    if k + 1 < rate.s0:
        raise DomainError(f"k+1 = {k + 1} below s0 = {rate.s0}")
    return 0.5 * a * rate(k + 1.0)
