"""Exact orbit computations for 2x2 lattices built from a rational matrix.

For m = n = 1 the lattice of the pair (A, q) data is

    L_A = {(p + q A, q) : p, q integers},   A = num/den,

which is (1/den) times the integer lattice spanned by (den, 0) and
(num, 1).  All membership decisions about g_sigma L_A reduce to integer
points (N, q) = (p den + q num, q) with flowed coordinates

    (e^sigma N / den,  e^-sigma q).

Doubles cannot represent these directly once sigma is large (the basis
spans e^{2 sigma} in dynamic range), so everything here works on exact
integers, with sizes compared through their logarithms.

One integer Euclid pass on (den, num) lists the convergent ladder
b_k = (N_k, q_k) = (q_k num - p_k den, q_k), from (-den, 0) down to N = 0.
Its points contain every Pareto-minimal point of L_A in (|N|, q)
(Khinchin, Continued Fractions, Thms 16-17), so Delta(g_sigma L_A) at any
sigma is read off two neighbouring rungs found by bisection, and each box
query enumerates in a pair of rungs chosen in integers (certified as a
basis by |det| = den).  No float steers any choice.

The measure estimator asks a whole chunk of samples at one sigma
(membership_profiles).  Every row with den <= 2^62 (every torus sample)
runs the Euclid pass in lockstep with the others, in int64 arrays.  A float
test q_k den >= e^{2 sigma} |N_k| only picks the rung where each row's
settle walk starts; the walk reads log_int (math.log) on the rungs it
visits, in delta_flowed's expressions and order, so each Delta is bit-equal
to delta_flowed's.  No numpy transcendental function is called, and every
value that decides a count comes from math.log.  The slab of a row that
needs one is read off that row's rungs.

Thickened and primed membership take their candidates off the ladder:
the rungs in one candidate box per window (or per slab), found by two
bisections, with the logs the ladder already holds.  Every lattice point
is dominated in (|N|, q) by a rung (Lagrange; Khinchin, Thms 16-17), so
the rungs give every cube-entry interval the box does.  A point in the
primed slab at radius r has |N| q < (1 + r/4) sqrt(r) den; while that is
at most 0.49 den (r <= 0.2161, a margin under Legendre's den/2 at
r* ~ 0.2242), a primitive one is a convergent (Khinchin, Thm 19) and a
multiple j u, j >= 2, has u in the open cube, so the rungs are every
candidate that can change a hit (_slab_on_rungs).  A primed window or
slab at a larger r enumerates its box (_box_walk).  The windows of one
orbit or one profile hand their candidates' logs, each row tagged with
its window, to one call of targets.witness_from_logs, the array kernel
of the float path, which gives the s-intervals and the interval algebra.

The ladder grows in place, one Euclid step per rung, and each query grows
it only as far as it reads: Delta at sigma to the first key past 2 sigma,
a box to its balance rung and that rung's partner, the scan records to
q > T.  Rungs are only ever appended, so every answer reads a prefix of
the full ladder and does not depend on call history.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import BudgetExceeded, CapExceeded, ValidationError
from .lattice import WeightPair
from .targets import _WINDOWS, KIND_PRIMED, KIND_SUB, KIND_THICK_PRIMED
from .targets import check_radius, profile_keys, witness_from_logs

# Not called here: perfbench traces these names as its `exact2d.intervals` row.
from .targets import complement_within as _complement  # noqa: F401
from .targets import intersect_intervals as _intersect  # noqa: F401
from .targets import merge_intervals as _merge  # noqa: F401

_LOG2 = math.log(2.0)
# Box bounds are doubles near den * e^{-sigma} and e^{sigma}, clamped at e^700
# (_n_threshold); within this flow time the clamp never binds for den below
# 2^640, so every box holds all the points it has to.
MAX_SIGMA = 250.0
_W11 = WeightPair.unweighted(1, 1)
# keys and the settle walk of delta_flowed round differently, by ~1e-13 here
_KEY_MARGIN = 1e-6


def log_int(n: int) -> float:
    """log of a positive integer, accurate for arbitrary size."""
    if n <= 0:
        raise ValidationError("log_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 53:
        return math.log(n)
    shift = bits - 53
    return math.log(n >> shift) + shift * _LOG2


def _check_sigma(sigma: float):
    if sigma > MAX_SIGMA:
        raise BudgetExceeded(f"flow time {sigma} beyond the exact-precision horizon {MAX_SIGMA}")


def partial_quotients(num: int, den: int):
    """Partial quotients a_1, a_2, ... of num/den, 0 <= num < den, by Euclid.

    The one Euclid step of the lab: the convergent ladder of Exact2D and
    the continued-fraction oracle (cf.cf_expand) both take their quotients
    from here; _lockstep_ladders runs the same step on int64 arrays.  Ends
    when the remainder is 0.
    """
    while num:
        a, rem = divmod(den, num)
        yield a
        num, den = rem, num


def _append_rung(points, quotients) -> bool:
    """Append the next rung of a convergent ladder, b_{k+1} = b_{k-1} + a b_k
    with a the next of its partial quotients; False once they run out."""
    a = next(quotients, None)
    if a is None:
        return False
    (n0, q0), (n1, q1) = points[-2:]
    points.append((n0 + a * n1, q0 + a * q1))
    return True


def _box_walk(points, grow, den: int, n_max: int, q_max: int, coeff_cap: int = 5_000_000):
    """Yield nonzero integer lattice points (N, q), |N| <= n_max, |q| <= q_max,
    of the lattice whose convergent ladder is points; grow() appends its next
    rung and is False once the ladder has reached N = 0.

    Canonical sign: q > 0, or q == 0 and N > 0.  Half the coefficient
    rectangle of the basis bounds the work; callers that need the full
    list should pass the walk to _capped instead.

    The bounds are exact: v = c1 b1 + c2 b2 has c1 det(b1, b2) =
    det(v, b2), so |c1| <= nu(b2) / den with the box's dual norm
    nu(v) = n_max |q| + q_max |N|, and likewise for c2.  The basis is
    chosen in integers.  nu is smallest on a rung next to the first rung
    c with n_max q_c >= q_max |N_c|.  Every basis partner of a rung b_i
    is +-(b_{i-1} + t b_i), and nu is convex and piecewise linear in t
    with kinks at q = 0 and N = 0, so the best partner is one of b_{i-1},
    b_{i-1} - b_i, b_{i+1} and b_{i+1} + b_i.  Of these pairs for
    i = c - 1, c, the one with the smallest rectangle is used.
    """
    if n_max < 0 or q_max < 0:
        return
    # the balance test is monotone along the ladder (|N_k| falls and q_k
    # rises); once it holds on the rung before the last, the first rung c
    # where it holds and its partner c + 1 are both grown
    while n_max * points[-2][1] < q_max * abs(points[-2][0]) and grow():
        pass
    c = bisect_left(points, True, key=lambda p: n_max * p[1] >= q_max * abs(p[0]))
    best = None
    for i in (c - 1, c):
        if i < 0:
            continue
        b1 = points[i]
        c2_hi = (n_max * b1[1] + q_max * abs(b1[0])) // den
        for j, sign in ((i - 1, -1), (i + 1, 1)):
            if not 0 <= j < len(points):
                continue
            bj = points[j]
            for b2 in (bj, (bj[0] + sign * b1[0], bj[1] + sign * b1[1])):
                c1_hi = (n_max * abs(b2[1]) + q_max * abs(b2[0])) // den
                size = (2 * c1_hi + 1) * (2 * c2_hi + 1)
                if best is None or size < best[0]:
                    best = (size, b1, b2, c1_hi, c2_hi)
    size, b1, b2, c1_hi, c2_hi = best
    # certificate: two lattice vectors spanning covolume den are a basis
    if abs(b1[0] * b2[1] - b1[1] * b2[0]) != den:
        raise ValidationError("ladder pair is not a basis of L_A")
    if size > coeff_cap:
        raise CapExceeded("coefficient ranges exceed enumeration cap")
    # the box is symmetric, so one of each pair +-(c1, c2) is walked
    for c1 in range(c1_hi + 1):
        base_n = c1 * b1[0]
        base_q = c1 * b1[1]
        for c2 in range(-c2_hi if c1 else 1, c2_hi + 1):
            n = base_n + c2 * b2[0]
            q = base_q + c2 * b2[1]
            if q < 0 or (q == 0 and n < 0):
                n, q = -n, -q
            if abs(n) <= n_max and q <= q_max:
                yield n, q


# Legendre's bound 1/2 on (1 + r/4) sqrt r, less a margin for the float logs
# that place a point in the slab; see _slab_on_rungs
_RUNG_SLAB_BOUND = 0.49


def _slab_on_rungs(r: float) -> bool:
    """Are the rungs in a slab box the only candidates a primed target at r needs?

    A point (N, q) of L_A in the slab (1 - r/4, 1 + r/4) x (-sqrt r, sqrt r)
    at some flow time has |N| q < (1 + r/4) sqrt(r) den.  When that is below
    den/2, a primitive such point is a convergent (Legendre; Khinchin,
    Continued Fractions, Thm 19), so a rung, and a multiple j u, j >= 2,
    puts u in the open cube of radius r (each coordinate below half its
    bound) whenever it is in the slab, so it changes no hit.  The bound
    holds for r < r* ~ 0.2242; with the margin 0.49 for r <= 0.2161.
    """
    return (1.0 + r / 4.0) * math.sqrt(r) <= _RUNG_SLAB_BOUND


def _capped(points, cap: int = 4096) -> list:
    out = []
    for pt in points:
        out.append(pt)
        if len(out) > cap:
            raise CapExceeded("box enumeration cap exceeded")
    return out


def _n_bound(log_den: float, log_bound: float) -> int:
    """Integer threshold for |N| <= den * e^log_bound (conservative superset)."""
    return int(math.exp(min(log_den + log_bound, 700.0)) * (1 + 1e-9)) + 1


def _slab_points(points, grow, den: int, log_den: float, sigma: float, r: float):
    """Exact2D.slab_points on the lattice whose ladder is points (see _box_walk)."""
    n_hi = _n_bound(log_den, -sigma + math.log1p(r / 4.0))
    q_max = int(math.sqrt(r) * math.exp(min(sigma, 700.0)) * (1 + 1e-9)) + 1
    bounds = _slab_bounds(r)
    return [
        (n, q) if n > 0 else (-n, -q)
        for n, q in _capped(_box_walk(points, grow, den, n_hi, q_max))
        if _in_slab(_slab_logs(log_den, n, q, sigma), bounds)
    ]


def _slab_logs(log_den: float, n: int, q: int, sigma: float):
    """log |x| and log |y| of g_sigma (N/den, q), -inf at a zero coordinate."""
    return (
        sigma + log_int(abs(n)) - log_den if n else -math.inf,
        -sigma + log_int(abs(q)) if q else -math.inf,
    )


def _slab_bounds(r: float):
    """The slab (1 - r/4, 1 + r/4) x (-sqrt r, sqrt r) of slab_points, in logs."""
    return math.log1p(-r / 4.0), math.log1p(r / 4.0), 0.5 * math.log(r)


def _in_slab(logs, bounds) -> bool:
    """Do a point's _slab_logs put it in the slab of _slab_bounds, up to sign?"""
    lo, hi, y_hi = bounds
    return lo < logs[0] < hi and logs[1] < y_hi


class Exact2D:
    """Exact arithmetic for the orbit of L_A, A = num/den."""

    def __init__(self, num: int, den: int):
        if den <= 0:
            raise ValidationError("den must be positive")
        self.num = int(num) % int(den) if den > 1 else 0
        self.den = int(den)
        self.log_den = log_int(self.den) if self.den > 1 else 0.0
        # the convergent ladder, started at (-den, 0) and (num, 1) and grown
        # by _grow; the state is documented there
        log_num = log_int(self.num) if self.num else -math.inf
        self._points = [(-self.den, 0), (self.num, 1)]
        self._log_n = [self.log_den, log_num]
        self._log_q = [-math.inf, 0.0]
        self._keys = [-math.inf, 0.0 - log_num + self.log_den]
        self._quotients = partial_quotients(self.num, self.den)

    @classmethod
    def of(cls, A) -> "Exact2D":
        """The one door from a scalar A to exact integers: an Exact2D (as is), a
        (num, den) pair of ints, a finite float at its exact binary value (or
        any number with as_integer_ratio), or a size-1 array holding one."""
        if isinstance(A, np.ndarray):
            if A.size != 1:
                raise ValidationError(f"a scalar A needs one entry, got shape {A.shape}")
            A = A.item()
        elif isinstance(A, cls):
            return A
        elif isinstance(A, tuple):
            try:
                return cls(*map(operator.index, A))
            except TypeError as exc:
                raise ValidationError(f"(num, den) must be two integers, got {A!r}") from exc
        try:
            num, den = A.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"A must be a finite real number, got {A!r}") from exc
        return cls(num, den)

    # -- the convergent ladder ---------------------------------------------

    def _grow(self) -> bool:
        """Append the next rung by one Euclid step; False once N = 0 is reached.

        _points[k] = (N_k, q_k), from (-den, 0) and (num, 1) by
        b_{k+1} = b_{k-1} + a_{k+1} b_k until N = 0; the signs of N_k
        alternate, |N_k| falls and q_k rises.  _log_n and _log_q hold
        log|N_k| and log q_k, -inf for a zero coordinate.  _keys[k] =
        log q_k - log|N_k| + log den increases with k; rung k is flowed
        into balance at 2 sigma = keys[k].  Rungs are only appended, so
        the lists are always a prefix of the full ladder.
        """
        if not _append_rung(self._points, self._quotients):
            return False
        n, q = self._points[-1]
        log_n = log_int(abs(n)) if n else -math.inf
        log_q = log_int(q)
        self._log_n.append(log_n)
        self._log_q.append(log_q)
        self._keys.append(log_q - log_n + self.log_den)
        return True

    def _reduced(self, wx_log: float, wy_log: float, max_iter: int = 100_000):
        """Gauss-reduce (den, 0), (num, 1) under the norm (x e^wx_log)^2 + (y e^wy_log)^2.

        Float-steered and not called by the lab: the tests check the ladder
        against it, and perfbench's tracer names it.
        """
        b1, b2 = (self.den, 0), (self.num, 1)
        wx = math.exp(max(wx_log, -700.0))
        wy = math.exp(max(wy_log, -700.0))

        def scaled(b):
            return float(b[0]) * wx, float(b[1]) * wy

        def norm2(b):
            x, y = scaled(b)
            return x * x + y * y

        # normalize weights so the running norms stay well inside double range
        top = max(norm2(b1), norm2(b2))
        while not math.isfinite(top) or top > 1e200:
            wx *= 1e-100
            wy *= 1e-100
            top = max(norm2(b1), norm2(b2))

        if norm2(b1) > norm2(b2):
            b1, b2 = b2, b1
        for _ in range(max_iter):
            x1, y1 = scaled(b1)
            x2, y2 = scaled(b2)
            d11 = x1 * x1 + y1 * y1
            if d11 <= 0.0:
                break
            mu = (x1 * x2 + y1 * y2) / d11
            if not math.isfinite(mu):
                wx *= 1e-100
                wy *= 1e-100
                continue
            m = int(round(mu))
            if m != 0:
                b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
            if norm2(b2) < norm2(b1):
                b1, b2 = b2, b1
            elif m == 0:
                break
        else:
            raise CapExceeded(f"Gauss reduction did not converge in {max_iter} iterations")
        return b1, b2

    def _iter_box_points(self, n_max: int, q_max: int, coeff_cap: int = 5_000_000):
        """_box_walk on this ladder, grown as far as the walk reads."""
        return _box_walk(self._points, self._grow, self.den, n_max, q_max, coeff_cap)

    def _box_points(self, n_max: int, q_max: int, cap: int = 4096):
        return _capped(self._iter_box_points(n_max, q_max), cap)

    def _box_rungs(self, n_max: int, q_max: int) -> range:
        """Indices of the rungs with |N_k| <= n_max and q_k <= q_max.

        |N_k| falls and q_k rises along the ladder, so they form one range,
        found by two bisections once the ladder is grown until q > q_max or
        N = 0.  Rung 0, (-den, 0), is among them when den <= n_max.
        """
        points = self._points
        while points[-1][1] <= q_max and self._grow():
            pass
        lo = bisect_left(points, True, key=lambda p: abs(p[0]) <= n_max)
        return range(lo, bisect_right(points, q_max, key=operator.itemgetter(1)))

    def any_point_in_box(self, n_strict: int, q_max: int) -> bool:
        """Is there a point with |N| < n_strict (exact) and 1 <= q <= q_max?

        Not called by the lab: the tests' reference record walk probes with
        it, and perfbench's tracer names it.
        """
        if n_strict <= 0 or q_max < 1:
            return False
        for _, q in self._iter_box_points(n_strict - 1, q_max):
            if q >= 1:
                return True
        return False

    # -- flowed geometry ---------------------------------------------------

    def flow_sup_log(self, point, sigma: float) -> float:
        """log of the sup-norm of the flowed point g_sigma (N/den, q)."""
        n, q = point
        parts = []
        if n != 0:
            parts.append(sigma + log_int(abs(n)) - self.log_den)
        if q != 0:
            parts.append(-sigma + log_int(abs(q)))
        if not parts:
            raise ValidationError("zero vector")
        return max(parts)

    def _n_threshold(self, log_bound: float) -> int:
        return _n_bound(self.log_den, log_bound)

    def delta_flowed(self, sigma: float) -> float:
        """Delta(g_sigma L_A), exactly (float only in the final logs).

        Rung k's flowed sup-norm is max(F_k, G_k), F_k = sigma + log|N_k|
        - log den falling and G_k = -sigma + log q_k rising in k, so the
        minimum over the ladder, which holds every Pareto-minimal point, is
        F at the rung before the first rung j with G_j >= F_j, or G at j.
        Bisection on the keys lands next to j; the walk settles j in the
        expression order of flow_sup_log, so the value is bit-equal to the
        minimum over all nonzero lattice points.
        """
        _check_sigma(abs(sigma))
        log_n, log_q, keys = self._log_n, self._log_q, self._keys
        # grown until the last key clears 2 sigma by far more than the
        # rounding between the keys and the walk's expressions, so the walk
        # below settles inside the grown rungs
        while keys[-1] < 2.0 * sigma + _KEY_MARGIN and self._grow():
            pass
        log_den = self.log_den
        j = bisect_left(keys, 2.0 * sigma)
        while j > 0 and -sigma + log_q[j - 1] >= (sigma + log_n[j - 1]) - log_den:
            j -= 1
        while -sigma + log_q[j] < (sigma + log_n[j]) - log_den:
            j += 1
        return -min((sigma + log_n[j - 1]) - log_den, -sigma + log_q[j])

    def in_sub(self, sigma: float, r: float) -> bool:
        """g_sigma L_A in Delta^-1[0, r]: no nonzero point in the open cube."""
        return self.delta_flowed(sigma) <= r + 1e-12

    def slab_points(self, sigma: float, r: float):
        """Points of g_sigma L_A in the slab (1 - r/4, 1 + r/4) x (-sqrt r, sqrt r).

        Returned with the first coordinate positive (the canonical sign from
        enumeration is flipped when needed).
        """
        _check_sigma(abs(sigma))
        return _slab_points(self._points, self._grow, self.den, self.log_den, sigma, r)

    def in_primed(self, sigma: float, r: float) -> bool:
        return self.in_sub(sigma, r) and bool(self.slab_points(sigma, r))

    def membership_profile(self, sigma: float, kinds, r_values) -> dict:
        """{(kind, r): g_sigma L_A in the target} for every kind and r.

        The N = 1 form of membership_profiles.
        """
        keys, hits = membership_profiles([self], sigma, kinds, r_values)
        return dict(zip(keys, hits[0].tolist()))

    # -- thickened membership via s-interval analysis -----------------------

    def witness_intervals_batch(self, windows):
        """witness_intervals for every (k, window, r, primed) in windows.

        Every r is checked before any window is skipped.  Each window takes
        its own Delta pre-filter and candidate box; the candidates of all
        windows go to one kernel call, each row tagged with its window.

        The candidates are the rungs in the box (_box_rungs), with the logs
        the ladder holds, unless the window is primed and r fails
        _slab_on_rungs; such a window enumerates its box (_box_points).
        Every lattice point is dominated in (|N|, q) by a rung (Lagrange;
        Khinchin, Continued Fractions, Thms 16-17), and that rung's
        cube-entry interval holds the point's: log_int and the kernel's
        subtractions are monotone (log_int up to one ulp across a power of
        two above 2^53, which a rung and a point it dominates only straddle
        if their |N| or their q agree to about 13 digits).  Under
        _slab_on_rungs (r <= 0.2161, margin 0.49 under Legendre's 1/2; Thm
        19) every point that can reach the slab outside the cube is a rung.
        So the rungs give the box's intervals; unlike the box walk they
        never raise CapExceeded.
        """
        for _, _, r, _ in windows:
            check_radius(r)
        log_n, log_q, log_den = self._log_n, self._log_q, self.log_den
        logs, counts, queries, kept = [], [], [], []
        for idx, (k, window, r, primed) in enumerate(windows):
            _check_sigma(k + window)
            lo, hi = float(k), float(k) + float(window)
            # Lipschitz pre-filter (|Delta(s1) - Delta(s2)| <= |s1 - s2| here):
            # when Delta at the midpoint clears r by half the window, no s has
            # a witness
            if self.delta_flowed(lo + 0.5 * window) - 0.5 * window > r + 1e-9:
                continue
            # one box holding every point that can enter the cube, or for
            # primed kinds the slab, during the window; the clipping to
            # [lo, hi] drops the intervals of points outside the smaller box
            if primed:
                n_max = self._n_threshold(-lo + math.log1p(r / 4.0))
                q_log = hi + max(-r, 0.5 * math.log(r))
            else:
                n_max = self._n_threshold(-lo - r)
                q_log = hi - r
            q_max = int(math.exp(min(q_log, 700.0)) * (1 + 1e-9)) + 1
            if primed and not _slab_on_rungs(r):
                box = self._box_points(n_max, q_max)
                logs += [
                    (log_int(abs(n)) - log_den if n else -math.inf, log_int(q) if q else -math.inf)
                    for n, q in box
                ]
                counts.append(len(box))
            else:
                rungs = self._box_rungs(n_max, q_max)
                logs += [(log_n[k] - log_den, log_q[k]) for k in rungs]
                counts.append(len(rungs))
            queries.append((r, primed, lo, hi))
            kept.append(idx)
        out = [[] for _ in windows]
        if queries:
            logs = np.array(logs, dtype=float).reshape(-1, 2)
            found = witness_from_logs(
                logs,
                logs[:, 0] > -math.inf,  # N != 0
                np.repeat(np.arange(len(queries)), counts),
                queries,
                _W11,
            )
            for idx, ivs in zip(kept, found):
                out[idx] = ivs
        return out

    def witness_intervals(self, k: float, window: float, r: float, primed: bool):
        """Subintervals of [k, k+window) on which g_s L_A is in the base target."""
        return self.witness_intervals_batch([(k, window, r, primed)])[0]

    def hits_thick(self, k: float, window: float, r: float, primed: bool) -> bool:
        """Does g_s L_A enter the base target for some s in [k, k+window)?"""
        return bool(self.witness_intervals(k, window, r, primed))


# A row goes through the int64 lockstep ladder when den <= 2^62: every rung has
# |N_k|, q_k <= den, so a_k |N_k| and a_k q_k stay inside int64.
_LOCKSTEP_DEN = 1 << 62


def membership_profiles(samples, sigma: float, kinds, r_values):
    """The membership profile of every sample A, as one table: the
    targets.profile_keys (kind, r), kinds outer, and one row of hits per
    sample, in order.  The d = 2 counterpart of targets.membership_profiles.

    samples holds one scalar A per entry, in any form Exact2D.of takes, or
    is a float array with one A per row (a chunk of torus samples).  Delta
    is computed once per sample: by one lockstep ladder over all rows with
    den <= 2^62 (_lockstep_ladders), by its own Exact2D for any other row.
    Unless Delta exceeds every r, the slab's candidates are found once, at
    the largest r, on the sample's ladder: every smaller slab lies inside
    it, so each primed(r) is read off those points.  When the largest r
    passes _slab_on_rungs (r <= 0.2161) the candidates are the rungs in the
    slab box (_rung_slab_hits), read off the lockstep columns; otherwise
    the box is walked (_slab_points), which can raise CapExceeded where the
    rungs do not.  Thickened kinds flow each sample's Exact2D over
    [sigma, sigma + window), windows as in targets, all in one
    witness_intervals_batch call.
    """
    keys = profile_keys(kinds, r_values, _W11)
    exacts, num, den = _fractions(samples)
    wide = [ex is not None and ex.den > _LOCKSTEP_DEN for ex in exacts]
    hits = np.zeros((len(exacts), len(keys)), dtype=bool)
    if any(kind in (KIND_SUB, KIND_PRIMED) for kind, _ in keys):
        _check_sigma(abs(sigma))
        deltas, R, Q, length, log_den = _lockstep_ladders(num, den, sigma)
        for i in np.flatnonzero(wide).tolist():
            deltas[i] = exacts[i].delta_flowed(sigma)
        for col, (kind, r) in enumerate(keys):
            if kind in (KIND_SUB, KIND_PRIMED):
                hits[:, col] = deltas <= r + 1e-12
        primed = [col for col, (kind, _) in enumerate(keys) if kind == KIND_PRIMED]
        bounds = [_slab_bounds(keys[col][1]) for col in primed]
        r_max = max(r for _, r in keys)
        rows = np.flatnonzero(deltas <= r_max + 1e-12) if primed else np.zeros(0, dtype=np.intp)
        if _slab_on_rungs(r_max):
            found = _rung_slab_hits(rows, exacts, wide, num, den, R, Q, log_den, sigma, r_max, bounds)
        else:
            found = []
            for i in rows.tolist():
                if wide[i]:
                    ex = exacts[i]
                    ladder = ex._points, ex._grow, ex.den, ex.log_den
                else:
                    points, grow = _row_ladder(R[: length[i], i], Q[: length[i], i])
                    ladder = points, grow, int(den[i]), float(log_den[i])
                logs = [_slab_logs(ladder[3], n, q, sigma) for n, q in _slab_points(*ladder, sigma, r_max)]
                found.append([any(_in_slab(point, b) for point in logs) for b in bounds])
        hits[np.ix_(rows, primed)] &= np.array(found, dtype=bool).reshape(len(rows), len(primed))
    thick = [(col, key) for col, key in enumerate(keys) if key[0] in _WINDOWS]
    if thick:
        windows = [(sigma, _WINDOWS[kind], r, kind == KIND_THICK_PRIMED) for _, (kind, r) in thick]
        cols = [col for col, _ in thick]
        for i, ex in enumerate(exacts):
            witness = (ex or Exact2D(int(num[i]), int(den[i]))).witness_intervals_batch(windows)
            hits[i, cols] = [bool(ivs) for ivs in witness]
    return keys, hits


def _rung_slab_hits(rows, exacts, wide, num, den, R, Q, log_den, sigma: float, r_max: float, bounds):
    """found[j, b]: does a rung of sample rows[j] lie in the slab bounds[b] at sigma?

    For r_max under _slab_on_rungs: the candidates are the rungs in the slab
    box at r_max, read off the lockstep columns R, Q, or off the sample's
    Exact2D for a wide row, and each is placed by _slab_logs' expressions
    on the ladder's exact logs.  A lockstep row holds every rung in the
    slab when its last grown rung has N = 0 or q past the box, or is
    balanced (G >= F): the rungs after a balanced rung are balanced, and a
    rung in the slab is not.  A row that shows none of these (only a
    misjudged float stop does that) is answered on its own Exact2D.
    """
    x_hi = -sigma + math.log1p(r_max / 4.0)
    q_hi = int(math.sqrt(r_max) * math.exp(min(sigma, 700.0)) * (1 + 1e-9)) + 1
    found = np.zeros((len(rows), len(bounds)), dtype=bool)
    wide = np.asarray(wide, dtype=bool)[rows]
    lock = np.flatnonzero(~wide)
    at = rows[lock]
    # every rung has |N_k|, q_k <= den <= 2^62, so the clamps keep int64 exact
    n_hi = np.array([min(_n_bound(x, x_hi), _LOCKSTEP_DEN) for x in log_den[at].tolist()], dtype=np.int64)
    Rs, Qs, row_log_den = R[:, at], Q[:, at], log_den[at]
    # a row repeats its last rung once it stops, so R[-1], Q[-1] are each row's last rung
    unsure = np.flatnonzero((Rs[-1] != 0) & (Qs[-1] <= min(q_hi, _LOCKSTEP_DEN)))
    G = -sigma + _exact_logs(Qs[-1, unsure])
    F = (sigma + _exact_logs(Rs[-1, unsure])) - row_log_den[unsure]
    short = np.zeros(len(at), dtype=bool)
    short[unsure[~(G >= F)]] = True
    k, c = np.nonzero((Rs <= n_hi) & (Qs <= min(q_hi, _LOCKSTEP_DEN)) & ~short)
    x = (sigma + _exact_logs(Rs[k, c])) - row_log_den[c]
    y = -sigma + _exact_logs(Qs[k, c])
    for b, (lo, hi, y_hi) in enumerate(bounds):
        found[lock[c[(lo < x) & (x < hi) & (y < y_hi)]], b] = True
    for j in np.flatnonzero(wide).tolist() + lock[short].tolist():
        i = int(rows[j])
        ex = exacts[i] if wide[j] else Exact2D(int(num[i]), int(den[i]))
        logs = [
            ((sigma + ex._log_n[k]) - ex.log_den, -sigma + ex._log_q[k])
            for k in ex._box_rungs(ex._n_threshold(x_hi), q_hi)
        ]
        found[j] = [any(_in_slab(point, b) for point in logs) for b in bounds]
    return found


def _fractions(samples):
    """Every sample A = num/den as Exact2D holds it, as int64 arrays num and
    den, and a list holding each sample's Exact2D when it was given as one or
    has den > 2^62 (its row then holds A = 0), else None."""
    if not (isinstance(samples, np.ndarray) and samples.dtype.kind == "f"):
        exacts = [Exact2D.of(a) for a in samples]
        pairs = [(ex.num, ex.den) if ex.den <= _LOCKSTEP_DEN else (0, 1) for ex in exacts]
        num, den = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return exacts, num, den
    if samples.size != len(samples):
        raise ValidationError(f"a scalar A needs one entry per row, got shape {samples.shape}")
    a = samples.reshape(-1)
    if not np.isfinite(a).all():
        raise ValidationError("A must be a finite real number")
    # a = m 2^(e - 53) with |m| < 2^53, reduced by the trailing zeros of m
    mant, e = np.frexp(a)
    m = (mant * 2.0**53).astype(np.int64)
    zeros = np.where(m != 0, np.frexp((m & -m).astype(float))[1] - 1, 0)
    den_bits = np.maximum(np.where(m != 0, 53 - e - zeros, 0), 0)
    exacts = [None] * len(a)
    for i in np.flatnonzero(den_bits > 62).tolist():
        exacts[i] = Exact2D.of(float(a[i]))
        den_bits[i] = 0
    den = np.left_shift(np.int64(1), den_bits)
    return exacts, (m >> zeros) % den, den


def _exact_logs(values: np.ndarray) -> np.ndarray:
    """log_int of every entry of a non-negative int64 array, -inf at 0."""
    out = np.full(values.shape, -math.inf)
    # below 2^53 log_int is math.log of the int, which converts it exactly
    for part, log in (((values > 0) & (values < 1 << 53), math.log), (values >= 1 << 53, log_int)):
        out[part] = list(map(log, values[part].tolist()))
    return out


def _row_ladder(r: np.ndarray, q: np.ndarray):
    """One row of the lockstep ladders as Exact2D holds its rungs, (N_k, q_k)
    with N_k = -+r_k, and a grow() that appends the row's next rung."""
    r, q = r.tolist(), q.tolist()
    points = [(-rk if k % 2 == 0 else rk, qk) for k, (rk, qk) in enumerate(zip(r, q))]
    return points, functools.partial(_append_rung, points, partial_quotients(r[-1], r[-2]))


def _lockstep_ladders(num: np.ndarray, den: np.ndarray, sigma: float):
    """Delta(g_sigma L_A) of int64 rows (num, den), den <= 2^62, bit-equal to
    Exact2D(num, den).delta_flowed(sigma), with the ladders it read.

    One Euclid step per pass over all rows grows the ladders of
    delta_flowed in int64: rung k holds r_k = |N_k| (the Euclid remainders,
    den, num, ...) and q_k.  A row stops growing at r_k = 0 or once
    q_k den >= e^{2 sigma + _KEY_MARGIN} r_k in floats, which puts G >= F
    there.  The float test q_k den >= e^{2 sigma} r_k only picks each row's
    start rung: delta_flowed's settle walk then runs from there on every
    row at once, with log_int taken only on the rungs it reads, and lands
    on the first rung j with G_j >= F_j, as it does from delta_flowed's
    bisection.  Delta is -min(F_{j-1}, G_j) in delta_flowed's expressions
    and order.  A row whose walk would leave its grown rungs is answered by
    its own Exact2D.

    Returns Delta, the rungs R and Q (one row per rung, one column per
    input row; a row repeats its last rung once it stops), each row's
    number of rungs and the exact log den.
    """
    m = len(den)
    den_f = den.astype(float)
    r0, r1 = den, num
    q0, q1 = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    rs, qs = [r0, r1], [q0, q1]
    length = np.full(m, 2)
    crossing, stop = math.exp(2.0 * sigma), math.exp(2.0 * sigma + _KEY_MARGIN)
    # rung 0 has q = 0, so G_0 = -inf and every walk stays at j >= 1
    j = np.where(q1 * den_f >= crossing * r1, 1, 0)
    live = (r1 != 0) & (q1 * den_f < stop * r1)
    while live.any():
        a = np.where(live, r0 // np.where(live, r1, 1), 0)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - a * r1, r1)
        q0, q1 = np.where(live, q1, q0), np.where(live, q0 + a * q1, q1)
        rs.append(r1)
        qs.append(q1)
        j = np.where((j == 0) & (q1 * den_f >= crossing * r1), len(rs) - 1, j)
        length += live
        live &= (r1 != 0) & (q1 * den_f < stop * r1)
    R, Q = np.array(rs), np.array(qs)
    del rs, qs
    log_n = np.full(R.shape, math.nan)
    log_q = np.full(R.shape, math.nan)
    log_den = _exact_logs(den)
    rows = np.arange(m)

    def balanced(k):
        """G_k >= F_k on every row, log_int taken on the rungs not read yet."""
        fresh = np.isnan(log_n[k, rows])
        at = (k[fresh], rows[fresh])
        log_n[at] = _exact_logs(R[at])
        log_q[at] = _exact_logs(Q[at])
        return -sigma + log_q[k, rows] >= (sigma + log_n[k, rows]) - log_den

    while (down := balanced(j - 1)).any():
        j -= down
    stuck = np.zeros(m, dtype=bool)
    while (up := ~balanced(j) & ~stuck).any():
        stuck |= up & (j == length - 1)
        j += up & ~stuck
    delta = -np.minimum((sigma + log_n[j - 1, rows]) - log_den, -sigma + log_q[j, rows])
    for i in np.flatnonzero(stuck).tolist():
        delta[i] = Exact2D(int(num[i]), int(den[i])).delta_flowed(sigma)
    return delta, R, Q, length, log_den
