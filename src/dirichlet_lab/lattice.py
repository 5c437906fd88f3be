"""Unimodular lattices, the diagonal flow, and exact point enumeration.

A lattice is stored as a d x d basis matrix with |det| = 1 (columns are
basis vectors).  Enumeration of lattice points in an axis-aligned box is
exact for d <= 6: a list of lattices is reduced by one lockstep LLL into
one stacked ReducedBasis (`reduce_lattices`), and the coefficient vectors
inside the box's circumscribed ball are enumerated from its QR data level
by level, breadth-first and for the whole stack at once, with per-level
interval pruning and the same float operations, in the same order, as a
scalar depth-first walk.  The box membership test (with open/closed
endpoint flags and the boundary tolerance policy) makes the final call,
row-wise.  `enumerate_in_box` and `has_nonzero_point`, the N = 1 forms of
`enumerate_in_box_batch` and `has_nonzero_point_batch`, reduce a 1-stack.

Strict inequalities follow one policy everywhere (elementwise on arrays):
    value < bound  is evaluated as  value < bound - 1e-12 * max(1, |bound|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# most children one pass of _enumerate_balls expands and tests at once
_PASS_ROWS = 2048


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

    def flow_exponents(self, s) -> np.ndarray:
        """(alpha_i s, -beta_j s) for a time s, one row per time for a vector s."""
        return np.multiply.outer(s, self.alpha + tuple(-b for b in self.beta))


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
        _check_unimodular(basis[None])
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _stack(cls, bases: np.ndarray, dims: DimensionParams) -> list:
        """One lattice per basis of a fresh float (N, d, d) stack whose shape
        the caller has checked.

        The unimodularity checks of __post_init__ run once on the whole stack
        (one finiteness check, one stacked det), not once per lattice.
        """
        _check_unimodular(bases)
        bases.setflags(write=False)
        lattices = [object.__new__(cls) for _ in bases]
        for L, basis in zip(lattices, bases):
            object.__setattr__(L, "basis", basis)  # frozen: bypass __setattr__
            object.__setattr__(L, "dims", dims)
        return lattices

    @property
    def d(self) -> int:
        return self.dims.d


def _off_unimodular(bases):
    """|det| of every basis of an (N, d, d) stack, and where it is off 1
    by more than the tolerance."""
    det = np.abs(np.linalg.det(bases))
    return det, np.abs(det - 1.0) > _DET_TOL * np.maximum(1.0, det)


def _check_unimodular(bases) -> None:
    """UnimodularLattice's entry checks, for a whole (N, d, d) stack."""
    if not np.all(np.isfinite(bases)):
        raise ValidationError("basis entries must be finite")
    det, off = _off_unimodular(bases)
    if off.any():
        raise ValidationError(f"|det(basis)| = {det[off][0]} is not 1 within 1e-9")


def reduce_lattices(lattices) -> "ReducedBasis":
    """The ReducedBasis stack of a nonempty list of lattices, from one lockstep LLL.

    Row i is bit-equal to the reduction of lattice i alone: the batch LLL
    and the stacked QR equal their per-matrix forms.  A list of mixed
    dimensions raises ValidationError and d > 6 DimensionTooLarge, before
    any reduction.
    """
    dimensions = {L.d for L in lattices}
    if len(dimensions) != 1:
        raise ValidationError("need a nonempty list of lattices of one dimension")
    if dimensions.pop() > MAX_EXACT_DIM:
        raise DimensionTooLarge(f"exact enumeration limited to d <= {MAX_EXACT_DIM}")
    return ReducedBasis.stack(lll_reduce_batch(np.stack([L.basis for L in lattices])))


@dataclass(frozen=True)
class ReducedBasis:
    """LLL-reduced bases of a stack of lattices and their QR factors, B[i] = Q[i] diag(signs[i]) T[i].

    B, Q and T are read-only (N, d, d) arrays and signs a read-only (N, d)
    one that makes T's diagonals nonnegative, so that the interval arithmetic
    of `_enumerate_balls` has fixed signs.  Rows (a slice or an index array)
    index the sub-stack of those lattices.
    """

    B: np.ndarray
    Q: np.ndarray
    T: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        for array in (self.B, self.Q, self.T, self.signs):
            array.setflags(write=False)  # shared by every pass over the stack

    @classmethod
    def stack(cls, B: np.ndarray) -> "ReducedBasis":
        """The QR data of an (N, d, d) stack of LLL bases.

        A stacked np.linalg.qr is bit-equal to per-matrix calls.  Raises
        BudgetExceeded when a reduced basis has drifted off |det| = 1: the
        float LLL ran out of precision and no longer spans the lattice.
        """
        det, drift = _off_unimodular(B)
        if drift.any():
            raise BudgetExceeded(f"LLL basis has |det| = {det[drift][0]}, not 1 within 1e-9")
        Q, T = np.linalg.qr(B)
        signs = np.sign(np.diagonal(T, axis1=1, axis2=2))
        signs[signs == 0] = 1.0
        return cls(B, Q, signs[:, :, None] * T, signs)

    def __len__(self) -> int:
        return len(self.B)

    def __getitem__(self, rows) -> "ReducedBasis":
        return ReducedBasis(self.B[rows], self.Q[rows], self.T[rows], self.signs[rows])


def standard_lattice(dims: DimensionParams) -> UnimodularLattice:
    return UnimodularLattice(np.eye(dims.d), dims)


def matrix_bases(A) -> np.ndarray:
    """The bases [[I_m, A], [0, I_n]] of an (N, m, n) stack of matrices A;
    each det is exactly 1."""
    N, m, n = A.shape
    d = m + n
    bases = np.zeros((N, d, d))
    bases[:, range(d), range(d)] = 1.0
    bases[:, :m, m:] = A
    return bases


def lattice_from_matrix(A, dims: DimensionParams | None = None) -> UnimodularLattice:
    """Lattice with basis [[I_m, A], [0, I_n]] acting on Z^d; det is exactly 1."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if dims is None:
        dims = DimensionParams(m, n)
    elif (dims.m, dims.n) != (m, n):
        raise ValidationError("matrix shape does not match dims")
    return UnimodularLattice(matrix_bases(A[None])[0], dims)


def flowed_lattices(bases, s, w: WeightPair) -> list:
    """g_s = diag(e^{alpha_i s}, e^{-beta_j s}) applied to a stack of bases.

    Either every basis of an (N, d, d) stack at one time s, or one (d, d)
    basis at every time of a vector s.  Each lattice is bit-equal to what
    the per-lattice flow of the same basis gives; the lattice checks run
    once per stack.
    """
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > 500):
        raise DomainError("flow time |s| > 500 would overflow the basis")
    dims = w.dims
    bases = np.asarray(bases, dtype=float)
    if s.ndim > 1 or bases.ndim != 3 - s.ndim or bases.shape[-2:] != (dims.d, dims.d):
        raise ValidationError(
            "need an (N, d, d) stack at one s, or one (d, d) basis at a vector of s, "
            f"with d = {dims.d} for these weights"
        )
    scale = np.exp(w.flow_exponents(s))
    return UnimodularLattice._stack(scale[..., None] * bases, dims)


def apply_flow(L: UnimodularLattice, s: float, w: WeightPair) -> UnimodularLattice:
    """diag(e^{alpha_i s}, e^{-beta_j s}) * L; unimodularity is preserved.
    The N = 1 form of `flowed_lattices`."""
    if (w.m, w.n) != (L.dims.m, L.dims.n):
        raise ValidationError("weight dimensions do not match the lattice")
    return flowed_lattices(L.basis[None], s, w)[0]


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


def _enumerate_balls(reduced, center, radius: float, guard: int, live=None):
    """Integer coefficient vectors c with ||B c - center||_2 <= radius, for every B of a ReducedBasis.

    Level by level over all the lattices at once: at level j every live node
    (a lattice and its coefficients c_{d-1}, ..., c_{j+1}) gets its range of
    c_j from the QR data, with a scalar walk's float operations in its
    order, and the ranges are expanded and kept where acc2 + term^2 <=
    budget2.  A level is expanded at most _PASS_ROWS children at a time, and
    each such pass runs down to level 0 before the next begins, so the live
    rows stay bounded and the yielded (C, owner) blocks (C an int64 (k, d)
    array, owner[i] the index of row i's lattice) list every lattice's rows
    in the depth-first walk's lexicographic order of (c_{d-1}, ..., c_0),
    lattice after lattice.  Every coefficient tried at any level counts
    against its lattice's `guard`, as in that walk; a level is counted
    before any of it is expanded, and the generator raises CapExceeded as
    soon as some lattice is past its guard, so read to the end it raises
    exactly when the scalar walk of some lattice would.  The consumer may
    clear `live[i]` (a boolean array over the lattices) between blocks;
    lattice i is then expanded no further.
    """
    T = reduced.T
    y = reduced.signs * (np.swapaxes(reduced.Q, 1, 2) @ center)  # row i bit-equal to Q[i].T @ center
    budget2 = radius * radius * (1.0 + 1e-9) + 1e-12
    N, d, _ = T.shape
    seen = np.zeros(N)

    def level(j, owner, acc2, coeffs):
        # coeffs[:, k] holds c_k for k > j, as exact floats
        if live is not None:
            keep = live[owner]
            owner, acc2, coeffs = owner[keep], acc2[keep], coeffs[keep]
        Tj = T[owner, j]
        partial = np.zeros(len(owner))
        for k in range(j + 1, d):
            partial = partial + Tj[:, k] * coeffs[:, k]
        shift = y[owner, j] - partial
        room = np.sqrt(np.maximum(budget2 - acc2, 0.0))
        tjj = Tj[:, j]
        lo = np.ceil((shift - room) / tjj - 1e-12)
        counts = np.maximum(np.floor((shift + room) / tjj + 1e-12) - lo + 1.0, 0.0)
        seen[:] += np.bincount(owner, weights=counts, minlength=N)
        if np.any(seen > guard):
            raise CapExceeded(f"ball enumeration guard ({guard}) tripped")
        ends = np.cumsum(counts)
        starts = ends - counts
        total = int(ends[-1]) if len(ends) else 0
        for begin in range(0, total, _PASS_ROWS):
            if live is not None and not live[owner].any():
                return
            index = np.arange(begin, min(begin + _PASS_ROWS, total), dtype=float)
            parent = np.searchsorted(ends, index, side="right")
            cj = lo[parent] + (index - starts[parent])  # exact: |c| < 2^53
            term = tjj[parent] * cj - shift[parent]
            below = acc2[parent] + term * term
            keep = below <= budget2
            parent = parent[keep]
            child = coeffs[parent]
            child[:, j] = cj[keep]
            if j:
                yield from level(j - 1, owner[parent], below[keep], child)
            else:
                yield child.astype(np.int64), owner[parent]

    yield from level(d - 1, np.arange(N), np.zeros(N), np.zeros((N, d)))


def lattices_per_pass(box: Box) -> int:
    """How many lattices' enumerations of the box make about _PASS_ROWS rows together.

    The box is enumerated through its circumscribed ball, and a ball of
    volume V holds about V points of a covolume-1 lattice (the Gaussian
    heuristic).  Callers group lattices by it to bound what one pass holds.
    """
    d, radius = box.d, box.circumradius()
    volume = math.pi ** (d / 2) * radius**d / math.gamma(d / 2 + 1)
    return max(1, int(_PASS_ROWS // max(volume, 1.0)))


def _enumerate_ball(R: ReducedBasis, center: np.ndarray, radius: float, guard: int):
    """The N = 1 form of _enumerate_balls: int64 blocks of a 1-stack's coefficient rows."""
    for C, _ in _enumerate_balls(R, center, radius, guard):
        yield C


def _ball_points(reduced, center, radius: float, cap: int, live=None):
    """(V, owner) blocks of the nonzero lattice points within `radius` of `center`.

    Row i of V is B @ c_i for the reduced basis B = reduced.B[owner[i]]: a
    stacked matrix-vector product runs the single product's kernel, so every
    row is bit-identical to it (C @ B.T runs another kernel and rounds
    differently).
    """
    guard = max(1_000_000, 50 * cap)
    for C, owner in _enumerate_balls(reduced, center, radius, guard, live):
        V = np.matmul(reduced.B[owner], C.astype(float)[:, :, None])[:, :, 0]
        nonzero = np.abs(V[:, 0]) >= 1e-12
        for k in range(1, V.shape[1]):
            nonzero |= np.abs(V[:, k]) >= 1e-12
        if nonzero.any():
            yield V[nonzero], owner[nonzero]


def _check_batch(reduced: ReducedBasis, box: Box, cap: int):
    if box.d != reduced.B.shape[-1]:
        raise ValidationError("box dimension does not match lattice")
    if cap < 1:
        raise ValidationError("cap must be >= 1")


def enumerate_in_box_batch(reduced: ReducedBasis, box: Box, cap: int = 100_000):
    """All nonzero points in the box of every lattice of a ReducedBasis stack, exactly.

    Returns (points, owner): points is a (k, d) array, owner[i] the index of
    the lattice point i belongs to, and each lattice's points come in the
    order enumerate_in_box gives them.  Raises CapExceeded when more than
    `cap` points of one lattice qualify (a degenerate query).
    """
    _check_batch(reduced, box, cap)
    points, owners = [np.zeros((0, box.d))], [np.zeros(0, dtype=np.intp)]
    found = np.zeros(len(reduced), dtype=np.int64)
    for V, owner in _ball_points(reduced, box.center(), box.circumradius(), cap):
        inside = box.contains_rows(V)
        V, owner = V[inside], owner[inside]
        found += np.bincount(owner, minlength=len(reduced))
        if np.any(found > cap):
            raise CapExceeded(f"more than cap={cap} lattice points in box")
        points.append(V)
        owners.append(owner)
    return np.concatenate(points), np.concatenate(owners)


def enumerate_in_box(L: UnimodularLattice, box: Box, cap: int = 100_000):
    """All nonzero lattice points in the box, exactly: the N = 1 form of enumerate_in_box_batch.

    Returns an array of shape (k, d).  Raises DimensionTooLarge for d > 6.
    """
    return enumerate_in_box_batch(reduce_lattices([L]), box, cap)[0]


def has_nonzero_point_batch(reduced: ReducedBasis, box: Box, cap: int = 100_000) -> np.ndarray:
    """For every lattice of a ReducedBasis stack, whether some nonzero point
    lies in the box (a bool array).

    A lattice is expanded no further once a point of it is found.
    """
    _check_batch(reduced, box, cap)
    live = np.ones(len(reduced), dtype=bool)
    for V, owner in _ball_points(reduced, box.center(), box.circumradius(), cap, live):
        live[owner[box.contains_rows(V)]] = False
    return ~live


def has_nonzero_point(L: UnimodularLattice, box: Box, cap: int = 100_000) -> bool:
    """True iff some nonzero lattice point lies in the box: the N = 1 form of has_nonzero_point_batch."""
    return bool(has_nonzero_point_batch(reduce_lattices([L]), box, cap)[0])


def shortest_sup_norm(L: UnimodularLattice, cap: int = 200_000) -> float:
    """min ||v||_inf over nonzero lattice vectors.

    A reduced basis column gives an upper bound b; by Minkowski b can be
    taken <= 1 after reduction only for nice bases, so the search cube is
    the bound itself, shrunk to the minimum over all points found inside.
    """
    R = reduce_lattices([L])
    bound = float(np.min(np.max(np.abs(R.B[0]), axis=0)))
    box = Box.closed_cube(bound * (1.0 + 1e-9), L.d)
    best = bound
    for V, _ in _ball_points(R, box.center(), box.circumradius(), cap):
        best = min(best, float(np.max(np.abs(V), axis=1).min()))
    return best


def delta(L: UnimodularLattice) -> float:
    """Delta(L) = -log(shortest sup-norm); >= 0 up to float noise by Minkowski."""
    value = -math.log(shortest_sup_norm(L))
    if value < -1e-9:
        raise ValidationError(f"Delta = {value} < 0; basis is not unimodular")
    return value
