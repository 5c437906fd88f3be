"""Unimodular lattices, the diagonal flow, and exact point enumeration.

A lattice is stored as a d x d basis matrix with |det| = 1 (columns are
basis vectors).  Enumeration of lattice points in an axis-aligned box is
exact for d <= 6: the basis is LLL-reduced (once per lattice object; the
reduction and its QR data are cached on it, or seeded for a whole list of
lattices by one lockstep LLL), and the coefficient vectors
inside the box's circumscribed ball are walked depth-first from the QR
data with per-level interval pruning down to level 1.  The innermost level
is not walked: its coefficient ranges are collected and expanded, tested,
evaluated and filtered by the box in numpy blocks, with the same float
operations and in the same order as a scalar walk.  The box membership
test (with open/closed endpoint flags and the boundary tolerance policy)
makes the final call, row-wise.

Strict inequalities follow one policy everywhere (elementwise on arrays):
    value < bound  is evaluated as  value < bound - 1e-12 * max(1, |bound|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .approx import DimensionParams
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DimensionTooLarge,
    DomainError,
    ValidationError,
)

MAX_EXACT_DIM = 6
_DET_TOL = 1e-9
# LLL loop iterations on any one basis before lll_reduce_batch raises CapExceeded
LLL_MAX_ITERATIONS = 10_000
# most candidate coefficient rows _enumerate_ball expands and tests at once
_BLOCK_ROWS = 4096


def boundary_tol(bound):
    return 1e-12 * np.maximum(1.0, np.abs(bound))


def strictly_less(value, bound):
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
        """LLL basis and its QR data, computed once per lattice on first use
        unless `reduce_lattices` seeded it."""
        return ReducedBasis.stack(lll_reduce(self.basis)[None])[0]


def reduce_lattices(lattices) -> None:
    """Seed `reduced` on every lattice of a list from one lockstep LLL.

    Each lattice caches exactly what its first use of `reduced` would
    compute: the batch LLL and the stacked QR are bit-equal to their
    per-matrix forms.
    """
    if lattices:
        B = lll_reduce_batch(np.stack([L.basis for L in lattices]))
        for L, R in zip(lattices, ReducedBasis.stack(B)):
            L.__dict__["reduced"] = R  # where cached_property keeps its value


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
    def stack(cls, B: np.ndarray) -> list:
        """One ReducedBasis per LLL basis of an (N, d, d) stack.

        A stacked np.linalg.qr is bit-equal to per-matrix calls.  Raises
        BudgetExceeded when a reduced basis has drifted off |det| = 1: the
        float LLL ran out of precision and no longer spans the lattice.
        """
        det = np.abs(np.linalg.det(B))
        drift = np.abs(det - 1.0) > _DET_TOL * np.maximum(1.0, det)
        if drift.any():
            raise BudgetExceeded(f"LLL basis has |det| = {det[drift][0]}, not 1 within 1e-9")
        Q, T = np.linalg.qr(B)
        signs = np.sign(np.diagonal(T, axis1=1, axis2=2))
        signs[signs == 0] = 1.0
        T = signs[:, :, None] * T
        for array in (B, Q, T, signs):
            array.setflags(write=False)  # shared by every query on the lattice
        return [cls(*parts) for parts in zip(B, Q, T, signs)]


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

    def contains_rows(self, V) -> np.ndarray:
        """Membership of every row of a (k, d) array, as a boolean array of length k."""
        V = np.asarray(V, dtype=float)
        inside = np.ones(V.shape[0], dtype=bool)
        for i, (lo, hi, lo_open, hi_open) in enumerate(
            zip(self.lower, self.upper, self.lower_open, self.upper_open)
        ):
            x = V[:, i]
            inside &= strictly_less(lo, x) if lo_open else ~(x < lo - boundary_tol(lo))
            inside &= strictly_less(x, hi) if hi_open else ~(x > hi + boundary_tol(hi))
        return inside

    def contains(self, v) -> bool:
        return bool(self.contains_rows(np.reshape(v, (1, -1)))[0])


def r_box(r: float, d: int) -> Box:
    """The slab (1 - r/2d, 1 + r/2d) x (-sqrt r, sqrt r)^{d-1} near e_1."""
    if not 0.0 < r < 1.0:
        raise ValidationError("r must lie in (0,1)")
    eps = r / (2 * d)
    root = math.sqrt(r)
    return Box.open_box((1.0 - eps,) + (-root,) * (d - 1), (1.0 + eps,) + (root,) * (d - 1))


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Float LLL on the columns of one basis: the N = 1 form of lll_reduce_batch."""
    return lll_reduce_batch(np.asarray(basis, dtype=float)[None], delta)[0]


def lll_reduce_batch(bases: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Float LLL on every basis of an (N, d, d) stack (columns are basis vectors, d <= 6).

    The bases run in lockstep: one pass makes one iteration of the LLL main
    loop for every basis not yet reduced.  Each basis keeps its own k, and
    the bases that share a k value are advanced together.  Gram-Schmidt is
    kept up to date lazily: row i of (Q, mu, norms) depends only on columns
    0..i, so a size-reduction of column k recomputes row k, a swap rows k-1
    and k, and advancing k computes row k+1; rows past k are never read.
    Every dot product is x0*y0 + x1*y1 + ... summed in that order, with no
    np.dot or matmul, so no decision depends on the CPU's fma or SIMD path,
    and basis i of the result equals the reduction of basis i alone.
    Raises CapExceeded when some basis needs more than LLL_MAX_ITERATIONS
    iterations; a partly reduced stack is never returned.
    """
    B = np.array(bases, dtype=float)
    if B.ndim != 3:
        raise ValidationError("bases must be an (N, rows, columns) stack")
    B = B.transpose(0, 2, 1).copy()  # B[n, i] is column i of basis n
    N, d, coords = B.shape
    Q = np.zeros_like(B)
    mu = np.zeros((N, d, d))
    norms = np.zeros((N, d))
    K = np.ones(N, dtype=np.intp)
    every = slice(None)

    def dot(x, y):
        # x . y over the last axis, summed in coordinate order
        p = x * y
        acc = p[..., 0]
        for t in range(1, coords):
            acc = acc + p[..., t]
        return acc

    def gso_row(rows, i):
        # mu[i, j] = b_i . q_j / |q_j|^2 for every j < i at once (0 where
        # |q_j| = 0), then q_i = b_i - mu[i, 0] q_0 - mu[i, 1] q_1 - ...
        b = B[rows, i]
        v = b
        if i:
            q, nq = Q[rows, :i], norms[rows, :i]
            m = dot(b[:, None], q) / nq
            if np.count_nonzero(nq) < nq.size:
                m[nq == 0] = 0.0
            mu[rows, i, :i] = m
            steps = m[:, :, None] * q
            for j in range(i):
                v = v - steps[:, j]
        Q[rows, i] = v
        norms[rows, i] = dot(v, v)

    def split(rows, mask):
        # (rows where mask holds, rows where it fails); None for no rows, and
        # a slice stays a slice, so the bases of a whole stack are views
        hits = np.count_nonzero(mask)
        if hits == mask.size:
            return rows, None
        if hits == 0:
            return None, rows
        if rows is every:
            return np.flatnonzero(mask), np.flatnonzero(~mask)
        return rows[mask], rows[~mask]

    def step(rows, k):
        for j in range(k - 1, -1, -1):
            q = np.rint(mu[rows, k, j])
            nonzero = q != 0
            sub = split(rows, nonzero)[0]
            if sub is not None:
                if sub is not rows:
                    q = q[nonzero]
                B[sub, k] -= q[:, None] * B[sub, j]
                gso_row(sub, k)
        m = mu[rows, k, k - 1]
        grow, swap = split(rows, norms[rows, k] >= (delta - m * m) * norms[rows, k - 1])
        if grow is not None:
            K[grow] = k + 1
            if k + 1 < d:
                gso_row(grow, k + 1)
        if swap is not None:
            B[swap, k - 1 : k + 1] = B[swap, k - 1 : k + 1][:, ::-1].copy()
            gso_row(swap, k - 1)
            gso_row(swap, k)
            K[swap] = max(k - 1, 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(min(2, d)):
            gso_row(every, i)
        passes = 0
        while True:
            counts = np.bincount(K, minlength=d + 1).tolist()
            active = [k for k in range(1, d) if counts[k]]
            if not active:
                break
            passes += 1
            if passes > LLL_MAX_ITERATIONS:
                raise CapExceeded(f"LLL did not converge in {LLL_MAX_ITERATIONS} iterations")
            if counts[active[0]] == N:
                step(every, active[0])
                continue
            # groups are fixed before any step, so a basis makes one iteration per pass
            for k, rows in [(k, np.flatnonzero(K == k)) for k in active]:
                step(rows, k)
    return np.ascontiguousarray(B.transpose(0, 2, 1))


def _enumerate_ball(R: ReducedBasis, center: np.ndarray, radius: float, guard: int):
    """Integer coefficient vectors c with ||R.B c - center||_2 <= radius.

    Levels d-1..1 are walked depth-first with per-level interval pruning
    from the QR factorization; each level-0 range is collected instead of
    walked, and the collected ranges are expanded and leaf-tested in numpy
    with the scalar walk's float operations.  Yields (k, d) int64 blocks of
    at most _BLOCK_ROWS candidates' rows, in the scalar walk's
    lexicographic order of (c_{d-1}, ..., c_0).  Counts every coefficient
    tried at any level; past `guard` of them it yields the rows found before
    the offending candidate, then raises CapExceeded.
    """
    d = R.B.shape[1]
    T = R.T.tolist()
    y = (R.signs * (R.Q.T @ center)).tolist()
    budget2 = radius * radius * (1.0 + 1e-9) + 1e-12

    c = [0] * d
    seen = 0
    # level-0 ranges as (lo - first row, count, acc2, shift, (c_1, ..., c_{d-1}))
    ranges = []
    pending = 0

    def bounds(j, acc2):
        # residual term at level j: (T[j,j] c_j + sum_{k>j} T[j,k] c_k - y[j])^2
        partial = 0.0
        for k in range(j + 1, d):
            partial += T[j][k] * c[k]
        shift = y[j] - partial
        room = math.sqrt(max(budget2 - acc2, 0.0))
        lo = math.ceil((shift - room) / T[j][j] - 1e-12)
        hi = math.floor((shift + room) / T[j][j] + 1e-12)
        return shift, lo, hi

    def drain():
        nonlocal pending
        if ranges:
            block = _leaf_block(ranges, T[0][0], budget2)
            ranges.clear()
            pending = 0
            if len(block):
                yield block

    def trip():
        yield from drain()
        raise CapExceeded(f"ball enumeration guard ({guard}) tripped")

    def leaf(acc2):
        nonlocal seen, pending
        shift, lo, hi = bounds(0, acc2)
        count = hi - lo + 1
        if count <= 0:
            return
        tripped = seen + count > guard
        if tripped:
            count = guard - seen
        seen += count
        prefix = tuple(c[1:])
        while count > 0:
            take = min(count, _BLOCK_ROWS - pending)
            ranges.append((lo - pending, take, acc2, shift, prefix))
            pending += take
            lo += take
            count -= take
            if pending == _BLOCK_ROWS:
                yield from drain()
        if tripped:
            yield from trip()

    def level(j, acc2):
        nonlocal seen
        shift, lo, hi = bounds(j, acc2)
        Tjj = T[j][j]
        for cj in range(lo, hi + 1):
            seen += 1
            if seen > guard:
                yield from trip()
            c[j] = cj
            term = Tjj * cj - shift
            below = acc2 + term * term
            if below <= budget2:
                yield from (level(j - 1, below) if j > 1 else leaf(below))
        c[j] = 0

    yield from (level(d - 1, 0.0) if d > 1 else leaf(0.0))
    yield from drain()


def _leaf_block(ranges, t00: float, budget2: float) -> np.ndarray:
    """Expand level-0 ranges into coefficient rows; keep those within the ball.

    The test acc2 + term^2 <= budget2 with term = T[0,0] c_0 - shift is the
    scalar walk's, evaluated elementwise.
    """
    rows = np.repeat(
        np.array([(base, acc2, shift) + prefix for base, _, acc2, shift, prefix in ranges]),
        [count for _, count, _, _, _ in ranges],
        axis=0,
    )
    c0 = rows[:, 0] + np.arange(len(rows))  # exact: |c| < 2^53
    term = t00 * c0 - rows[:, 2]
    keep = rows[:, 1] + term * term <= budget2
    rows[:, 2] = c0
    return rows[keep, 2:].astype(np.int64)


def _nonzero_points(L: UnimodularLattice, center, radius: float, cap: int):
    """Blocks of nonzero lattice points within `radius` of `center`, from the cached reduction.

    Row i of a block is R.B @ c_i: a stacked matrix-vector product runs the
    single product's kernel, so every row is bit-identical to it (C @ B.T
    runs another kernel and rounds differently).
    """
    R = L.reduced
    guard = max(1_000_000, 50 * cap)
    for C in _enumerate_ball(R, center, radius, guard):
        V = np.matmul(R.B, C.astype(float)[:, :, None])[:, :, 0]
        V = V[~np.all(np.abs(V) < 1e-12, axis=1)]
        if len(V):
            yield V


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
    found = 0
    for V in _nonzero_points(L, box.center(), box.circumradius(), cap):
        V = V[box.contains_rows(V)]
        found += len(V)
        if found > cap:
            raise CapExceeded(f"more than cap={cap} lattice points in box")
        out.append(V)
    if not found:
        return np.zeros((0, L.d))
    return np.concatenate(out)


def has_nonzero_point(L: UnimodularLattice, box: Box, cap: int = 100_000) -> bool:
    """True iff some nonzero lattice point lies in the box (early exit)."""
    if L.d > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"exact enumeration limited to d <= {MAX_EXACT_DIM}")
    points = _nonzero_points(L, box.center(), box.circumradius(), cap)
    return any(box.contains_rows(V).any() for V in points)


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
    for V in _nonzero_points(L, box.center(), box.circumradius(), cap):
        best = min(best, float(np.max(np.abs(V), axis=1).min()))
    return best


def delta(L: UnimodularLattice) -> float:
    """Delta(L) = -log(shortest sup-norm); >= 0 up to float noise by Minkowski."""
    value = -math.log(shortest_sup_norm(L))
    if value < -1e-9:
        raise ValidationError(f"Delta = {value} < 0; basis is not unimodular")
    return value
