"""Unimodular lattices, the diagonal flow, and exact point enumeration.

A lattice is stored as a d x d basis matrix with |det| = 1 (columns are
basis vectors).  Enumeration of lattice points in an axis-aligned box is
exact for d <= 6: the basis is LLL-reduced (once per lattice object; the
reduction and its QR data are cached on it), candidates inside the box's
circumscribed ball are generated depth-first from the QR data with
per-level interval pruning, and the box membership test (with open/closed
endpoint flags and the boundary tolerance policy) makes the final call.

Strict inequalities follow one policy everywhere:
    value < bound  is evaluated as  value < bound - 1e-12 * max(1, |bound|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .approx import DimensionParams
from .errors import (
    CapExceeded,
    DimensionTooLarge,
    DomainError,
    ValidationError,
)

MAX_EXACT_DIM = 6
_DET_TOL = 1e-9
# LLL loop iterations before lll_reduce gives up and raises CapExceeded
LLL_MAX_ITERATIONS = 10_000


def boundary_tol(bound: float) -> float:
    return 1e-12 * max(1.0, abs(bound))


def strictly_less(value: float, bound: float) -> bool:
    return value < bound - boundary_tol(bound)


@dataclass(frozen=True)
class WeightPair:
    """Weight vectors (alpha, beta), positive entries summing to 1 each."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not alpha or not beta:
            raise ValidationError("weight vectors must be nonempty")
        if any(a <= 0 for a in alpha) or any(b <= 0 for b in beta):
            raise ValidationError("weights must be positive")
        for name, vec in (("alpha", alpha), ("beta", beta)):
            if abs(sum(vec) - 1.0) > 1e-12:
                raise ValidationError(f"{name} entries must sum to 1 within 1e-12")

    @classmethod
    def unweighted(cls, m: int, n: int) -> "WeightPair":
        return cls(alpha=(1.0 / m,) * m, beta=(1.0 / n,) * n)

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def n(self) -> int:
        return len(self.beta)

    @property
    def dims(self) -> DimensionParams:
        return DimensionParams(self.m, self.n)

    @property
    def omega1(self) -> float:
        m, n = self.m, self.n
        return max(max(m * a for a in self.alpha), max(n * b for b in self.beta))

    @property
    def omega2(self) -> float:
        m, n = self.m, self.n
        return min(min(m * a for a in self.alpha), min(n * b for b in self.beta))

    @property
    def alpha_min(self):
        return min(self.alpha)

    @property
    def alpha_max(self):
        return max(self.alpha)

    @property
    def beta_min(self):
        return min(self.beta)

    @property
    def beta_max(self):
        return max(self.beta)

    def flow_exponents(self, s: float) -> np.ndarray:
        return np.array([a * s for a in self.alpha] + [-b * s for b in self.beta])


def weighted_quasi_norm(x, weights) -> float:
    """max_i |x_i|^(1/w_i) for positive weights w."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != w.shape:
        raise ValidationError("vector and weight shapes differ")
    if np.any(w <= 0):
        raise ValidationError("weights must be positive")
    return float(np.max(np.abs(x) ** (1.0 / w)))


@dataclass(frozen=True)
class UnimodularLattice:
    """Rank-d lattice basis * Z^d with |det(basis)| = 1 within 1e-9."""

    basis: np.ndarray  # columns are basis vectors
    dims: DimensionParams

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValidationError("basis must be a square matrix")
        if basis.shape[0] != self.dims.d:
            raise ValidationError("basis size does not match dims")
        if not np.all(np.isfinite(basis)):
            raise ValidationError("basis entries must be finite")
        det = np.linalg.det(basis)
        if abs(abs(det) - 1.0) > _DET_TOL * max(1.0, abs(det)):
            raise ValidationError(f"|det(basis)| = {abs(det)} is not 1 within 1e-9")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def d(self) -> int:
        return self.dims.d

    @cached_property
    def reduced(self) -> "ReducedBasis":
        """LLL basis and its QR data, computed once per lattice on first use."""
        return ReducedBasis.of(lll_reduce(self.basis))


@dataclass(frozen=True)
class ReducedBasis:
    """An LLL-reduced basis with its QR factors: B = Q diag(signs) T.

    `signs` makes T's diagonal nonnegative, so that the interval
    arithmetic of `_enumerate_ball` has fixed signs.
    """

    B: np.ndarray
    Q: np.ndarray
    T: np.ndarray
    signs: np.ndarray

    @classmethod
    def of(cls, B: np.ndarray) -> "ReducedBasis":
        Q, T = np.linalg.qr(B)
        signs = np.sign(np.diag(T))
        signs[signs == 0] = 1.0
        T = signs[:, None] * T
        for array in (B, Q, T, signs):
            array.setflags(write=False)  # shared by every query on the lattice
        return cls(B, Q, T, signs)


def standard_lattice(dims: DimensionParams) -> UnimodularLattice:
    return UnimodularLattice(np.eye(dims.d), dims)


def lattice_from_matrix(A, dims: DimensionParams | None = None) -> UnimodularLattice:
    """Lattice with basis [[I_m, A], [0, I_n]] acting on Z^d; det is exactly 1."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if dims is None:
        dims = DimensionParams(m, n)
    elif (dims.m, dims.n) != (m, n):
        raise ValidationError("matrix shape does not match dims")
    basis = np.eye(m + n)
    basis[:m, m:] = A
    return UnimodularLattice(basis, dims)


def apply_flow(L: UnimodularLattice, s: float, w: WeightPair) -> UnimodularLattice:
    """diag(e^{alpha_i s}, e^{-beta_j s}) * L; unimodularity is preserved."""
    if abs(s) > 500:
        raise DomainError("flow time |s| > 500 would overflow the basis")
    if (w.m, w.n) != (L.dims.m, L.dims.n):
        raise ValidationError("weight dimensions do not match the lattice")
    scale = np.exp(w.flow_exponents(s))
    return UnimodularLattice(scale[:, None] * L.basis, L.dims)


def random_unimodular(dims: DimensionParams, rng, shears: int = 8, magnitude: int = 3):
    """Product of random integer shear matrices: unit determinant exactly."""
    d = dims.d
    B = np.eye(d)
    for _ in range(shears):
        i, j = rng.integers(0, d, size=2)
        while j == i:
            j = int(rng.integers(0, d))
        S = np.eye(d)
        S[i, j] = float(rng.integers(-magnitude, magnitude + 1))
        B = B @ S
    return UnimodularLattice(B, dims)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with per-coordinate open/closed endpoint flags."""

    lower: tuple
    upper: tuple
    lower_open: tuple
    upper_open: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise ValidationError("lower/upper length mismatch")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValidationError("box needs lower < upper in every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "lower_open", tuple(bool(v) for v in self.lower_open))
        object.__setattr__(self, "upper_open", tuple(bool(v) for v in self.upper_open))

    @classmethod
    def open_box(cls, lower, upper) -> "Box":
        lower = tuple(lower)
        upper = tuple(upper)
        d = len(lower)
        return cls(lower, upper, (True,) * d, (True,) * d)

    @classmethod
    def closed_box(cls, lower, upper) -> "Box":
        lower = tuple(lower)
        upper = tuple(upper)
        d = len(lower)
        return cls(lower, upper, (False,) * d, (False,) * d)

    @classmethod
    def open_cube(cls, half_width: float, d: int) -> "Box":
        return cls.open_box((-half_width,) * d, (half_width,) * d)

    @classmethod
    def closed_cube(cls, half_width: float, d: int) -> "Box":
        return cls.closed_box((-half_width,) * d, (half_width,) * d)

    @property
    def d(self) -> int:
        return len(self.lower)

    def center(self) -> np.ndarray:
        return 0.5 * (np.array(self.lower) + np.array(self.upper))

    def circumradius(self) -> float:
        half = 0.5 * (np.array(self.upper) - np.array(self.lower))
        return float(np.linalg.norm(half))

    def contains(self, v) -> bool:
        for x, lo, hi, lo_open, hi_open in zip(
            v, self.lower, self.upper, self.lower_open, self.upper_open
        ):
            if lo_open:
                if not strictly_less(lo, x):
                    return False
            elif x < lo - boundary_tol(lo):
                return False
            if hi_open:
                if not strictly_less(x, hi):
                    return False
            elif x > hi + boundary_tol(hi):
                return False
        return True


def r_box(r: float, d: int) -> Box:
    """The slab (1 - r/2d, 1 + r/2d) x (-sqrt r, sqrt r)^{d-1} near e_1."""
    if not 0.0 < r < 1.0:
        raise ValidationError("r must lie in (0,1)")
    eps = r / (2 * d)
    root = math.sqrt(r)
    return Box.open_box((1.0 - eps,) + (-root,) * (d - 1), (1.0 + eps,) + (root,) * (d - 1))


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Float LLL on columns (d <= 6), with Gram-Schmidt kept up to date lazily.

    Row i of (Q, mu, norms) depends only on columns 0..i, so a
    size-reduction of column k recomputes row k, a swap rows k-1 and k, and
    advancing k computes row k+1; rows past k are never read.  Each row is
    evaluated exactly as a full recomputation would evaluate it, so the
    result is bit-identical to recomputing all d rows after every change.
    Raises CapExceeded after LLL_MAX_ITERATIONS passes of the main loop.
    """
    B = np.array(basis, dtype=float)
    d = B.shape[1]
    Q = np.zeros_like(B)
    mu = np.zeros((d, d))
    norms = np.zeros(d)

    def gso_row(i):
        v = B[:, i].copy()
        for j in range(i):
            if norms[j] > 0:
                mu[i, j] = np.dot(B[:, i], Q[:, j]) / norms[j]
                v -= mu[i, j] * Q[:, j]
            else:
                mu[i, j] = 0.0
        Q[:, i] = v
        norms[i] = np.dot(v, v)

    for i in range(min(2, d)):
        gso_row(i)
    k = 1
    iterations = 0
    while k < d:
        iterations += 1
        if iterations > LLL_MAX_ITERATIONS:
            raise CapExceeded(f"LLL did not converge in {LLL_MAX_ITERATIONS} iterations")
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[:, k] -= q * B[:, j]
                gso_row(k)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
            if k < d:
                gso_row(k)
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            gso_row(k - 1)
            gso_row(k)
            k = max(k - 1, 1)
    return B


def _enumerate_ball(R: ReducedBasis, center: np.ndarray, radius: float, guard: int):
    """Integer coefficient vectors c with ||R.B c - center||_2 <= radius.

    Depth-first with per-level interval pruning from the QR factorization.
    Yields coefficient tuples; raises CapExceeded past `guard` candidates.
    """
    d = R.B.shape[1]
    T = R.T
    y = R.signs * (R.Q.T @ center)
    budget2 = radius * radius * (1.0 + 1e-9) + 1e-12

    c = np.zeros(d, dtype=np.int64)
    seen = 0

    def rec(j, acc2):
        nonlocal seen
        if acc2 > budget2:
            return
        if j < 0:
            yield tuple(int(v) for v in c)
            return
        # residual term at level j: (T[j,j] c_j + sum_{k>j} T[j,k] c_k - y[j])^2
        shift = y[j] - sum(T[j, k] * c[k] for k in range(j + 1, d))
        room = math.sqrt(max(budget2 - acc2, 0.0))
        lo = math.ceil((shift - room) / T[j, j] - 1e-12)
        hi = math.floor((shift + room) / T[j, j] + 1e-12)
        for cj in range(lo, hi + 1):
            seen += 1
            if seen > guard:
                raise CapExceeded(f"ball enumeration guard ({guard}) tripped")
            c[j] = cj
            term = T[j, j] * cj - shift
            yield from rec(j - 1, acc2 + term * term)
        c[j] = 0

    yield from rec(d - 1, 0.0)


def _nonzero_points(L: UnimodularLattice, center, radius: float, cap: int):
    """Nonzero lattice points within `radius` of `center`, from the cached reduction."""
    R = L.reduced
    guard = max(1_000_000, 50 * cap)
    for coeff in _enumerate_ball(R, center, radius, guard):
        v = R.B @ np.array(coeff, dtype=float)
        if not all(abs(x) < 1e-12 for x in v):
            yield v


def enumerate_in_box(L: UnimodularLattice, box: Box, cap: int = 100_000):
    """All nonzero lattice points in the box, exactly.

    Returns an array of shape (k, d).  Raises CapExceeded when more than
    `cap` points qualify (a degenerate query) and DimensionTooLarge for
    d > 6.
    """
    if L.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"exact enumeration limited to d <= {MAX_EXACT_DIM}")
    if box.d != L.d:
        raise ValidationError("box dimension does not match lattice")
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    out = []
    for v in _nonzero_points(L, box.center(), box.circumradius(), cap):
        if box.contains(v):
            out.append(v)
            if len(out) > cap:
                raise CapExceeded(f"more than cap={cap} lattice points in box")
    if not out:
        return np.zeros((0, L.d))
    return np.array(out)


def has_nonzero_point(L: UnimodularLattice, box: Box, cap: int = 100_000) -> bool:
    """True iff some nonzero lattice point lies in the box (early exit)."""
    if L.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"exact enumeration limited to d <= {MAX_EXACT_DIM}")
    return any(box.contains(v) for v in _nonzero_points(L, box.center(), box.circumradius(), cap))


def shortest_sup_norm(L: UnimodularLattice, cap: int = 200_000) -> float:
    """min ||v||_inf over nonzero lattice vectors.

    A reduced basis column gives an upper bound b; by Minkowski b can be
    taken <= 1 after reduction only for nice bases, so the search cube is
    the bound itself, shrunk to the minimum over all points found inside.
    """
    if L.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"exact enumeration limited to d <= {MAX_EXACT_DIM}")
    bound = float(np.min(np.max(np.abs(L.reduced.B), axis=0)))
    box = Box.closed_cube(bound * (1.0 + 1e-9), L.d)
    best = bound
    for v in _nonzero_points(L, box.center(), box.circumradius(), cap):
        sup = float(np.max(np.abs(v)))
        if sup < best:
            best = sup
    return best


def delta(L: UnimodularLattice) -> float:
    """Delta(L) = -log(shortest sup-norm); >= 0 up to float noise by Minkowski."""
    value = -math.log(shortest_sup_norm(L))
    if value < -1e-9:
        raise ValidationError(f"Delta = {value} < 0; basis is not unimodular")
    return value
