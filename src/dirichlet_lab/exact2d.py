"""Exact orbit computations for 2x2 lattices built from a rational matrix.

For m = n = 1 the lattice of the pair (A, q) data is

    L_A = {(p + q A, q) : p, q integers},   A = num/den,

which is (1/den) times the integer lattice spanned by (den, 0) and
(num, 1).  All membership decisions about g_sigma L_A reduce to integer
points (N, q) = (p den + q num, q) with flowed coordinates

    (e^sigma N / den,  e^-sigma q).

Doubles cannot represent these directly once sigma is large (the basis
spans e^{2 sigma} in dynamic range), so everything here works on exact
integers, with sizes compared through their logarithms.  Gauss (Lagrange)
reduction with float-scaled norms finds short bases; the float part only
steers the reduction, never decides membership.

Instances cache the last reduced basis, so stepping an orbit k -> k+1
costs only a couple of reduction iterations.  Instances are not
thread-safe; use one per worker.
"""

from __future__ import annotations

import math

from .errors import BudgetExceeded, CapExceeded, ValidationError
from .targets import _MIN_LEN, _WINDOWS, KIND_PRIMED, KIND_SUB, KIND_THICK_PRIMED
from .targets import complement_within as _complement
from .targets import intersect_intervals as _intersect
from .targets import merge_intervals as _merge

_LOG2 = math.log(2.0)
MAX_SIGMA = 250.0  # scaled norms stay within double range below this


def log_int(n: int) -> float:
    """log of a positive integer, accurate for arbitrary size."""
    if n <= 0:
        raise ValidationError("log_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 53:
        return math.log(n)
    shift = bits - 53
    return math.log(n >> shift) + shift * _LOG2


class Exact2D:
    """Exact arithmetic for the orbit of L_A, A = num/den."""

    def __init__(self, num: int, den: int):
        if den <= 0:
            raise ValidationError("den must be positive")
        self.num = int(num) % int(den) if den > 1 else 0
        self.den = int(den)
        self.log_den = log_int(self.den) if self.den > 1 else 0.0
        self._basis = ((self.den, 0), (self.num, 1))

    @classmethod
    def from_float(cls, a: float) -> "Exact2D":
        num, den = float(a).as_integer_ratio()
        return cls(num, den)

    def fold(self, q: int) -> int:
        """N(q) = min_p |q num - p den|: the integer distance den*dist(qA, Z)."""
        rem = (q * self.num) % self.den
        return min(rem, self.den - rem)

    def dist(self, q: int) -> float:
        """dist(qA, Z) as a float (exact integer fold / den)."""
        n = self.fold(q)
        if n == 0:
            return 0.0
        return math.exp(log_int(n) - self.log_den)

    # -- reduction ---------------------------------------------------------

    def _reduced(self, wx_log: float, wy_log: float, max_iter: int = 100_000):
        """Gauss-reduce the cached basis under the norm (x e^wx_log)^2 + (y e^wy_log)^2."""
        b1, b2 = self._basis
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
        self._basis = (b1, b2)
        return b1, b2

    def _iter_box_points(self, n_max: int, q_max: int, coeff_cap: int = 5_000_000):
        """Yield nonzero integer lattice points (N, q), |N| <= n_max, |q| <= q_max.

        Canonical sign: q > 0, or q == 0 and N > 0.  The coefficient
        rectangle of the reduced basis bounds the work; callers that need
        the full list should pass a cap to _box_points instead.
        """
        if n_max < 0 or q_max < 0:
            return
        wx_log = -log_int(n_max + 1) if n_max > 0 else 0.0
        wy_log = -log_int(q_max + 1) if q_max > 0 else 0.0
        b1, b2 = self._reduced(wx_log, wy_log)
        det = b1[0] * b2[1] - b1[1] * b2[0]
        if det == 0:
            raise ValidationError("degenerate basis")
        adet = abs(det)
        c1_hi = (n_max * abs(b2[1]) + q_max * abs(b2[0])) // adet + 2
        c2_hi = (n_max * abs(b1[1]) + q_max * abs(b1[0])) // adet + 2
        if (2 * c1_hi + 1) * (2 * c2_hi + 1) > coeff_cap:
            raise CapExceeded("coefficient ranges exceed enumeration cap")
        for c1 in range(-c1_hi, c1_hi + 1):
            base_n = c1 * b1[0]
            base_q = c1 * b1[1]
            for c2 in range(-c2_hi, c2_hi + 1):
                n = base_n + c2 * b2[0]
                q = base_q + c2 * b2[1]
                if q < 0 or (q == 0 and n <= 0):
                    continue
                if abs(n) <= n_max and q <= q_max:
                    yield n, q

    def _box_points(self, n_max: int, q_max: int, cap: int = 4096):
        out = []
        for pt in self._iter_box_points(n_max, q_max):
            out.append(pt)
            if len(out) > cap:
                raise CapExceeded("box enumeration cap exceeded")
        return out

    def any_point_in_box(self, n_strict: int, q_max: int) -> bool:
        """Is there a point with |N| < n_strict (exact) and 1 <= q <= q_max?"""
        if n_strict <= 0 or q_max < 1:
            return False
        for _, q in self._iter_box_points(n_strict - 1, q_max):
            if q >= 1:
                return True
        return False

    # -- flowed geometry ---------------------------------------------------

    def _check_sigma(self, sigma: float):
        if sigma > MAX_SIGMA:
            raise BudgetExceeded(
                f"flow time {sigma} beyond the exact-precision horizon {MAX_SIGMA}"
            )

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
        """Integer threshold for |N| <= den * e^log_bound (conservative superset)."""
        return int(math.exp(min(self.log_den + log_bound, 700.0)) * (1 + 1e-9)) + 1

    def delta_flowed(self, sigma: float) -> float:
        """Delta(g_sigma L_A), exactly (float only in the final logs)."""
        self._check_sigma(abs(sigma))
        b1, b2 = self._reduced(sigma - self.log_den, -sigma)
        cands = [b1, b2, (b1[0] + b2[0], b1[1] + b2[1]), (b1[0] - b2[0], b1[1] - b2[1])]
        bound = min(
            self.flow_sup_log(b, sigma) for b in cands if b != (0, 0)
        )
        n_max = self._n_threshold(bound - sigma)
        q_max = int(math.exp(min(bound + sigma, 700.0)) * (1 + 1e-9)) + 1
        best = bound
        for pt in self._box_points(n_max, q_max):
            best = min(best, self.flow_sup_log(pt, sigma))
        return -best

    def in_sub(self, sigma: float, r: float) -> bool:
        """g_sigma L_A in Delta^-1[0, r]: no nonzero point in the open cube."""
        return self.delta_flowed(sigma) <= r + 1e-12

    def slab_points(self, sigma: float, r: float):
        """Points of g_sigma L_A in the slab (1 - r/4, 1 + r/4) x (-sqrt r, sqrt r).

        Returned with the first coordinate positive (the canonical sign from
        enumeration is flipped when needed).
        """
        self._check_sigma(abs(sigma))
        eps = r / 4.0
        n_hi = self._n_threshold(-sigma + math.log1p(eps))
        q_max = int(math.sqrt(r) * math.exp(min(sigma, 700.0)) * (1 + 1e-9)) + 1
        return [
            (n, q) if n > 0 else (-n, -q)
            for n, q in self._box_points(n_hi, q_max)
            if self._in_slab(n, q, sigma, r)
        ]

    def _in_slab(self, n: int, q: int, sigma: float, r: float) -> bool:
        """Does g_sigma (N/den, q) lie in the slab of slab_points, up to sign?"""
        if n == 0:
            return False
        eps = r / 4.0
        first = sigma + log_int(abs(n)) - self.log_den
        if not math.log1p(-eps) < first < math.log1p(eps):
            return False
        return q == 0 or -sigma + log_int(abs(q)) < 0.5 * math.log(r)

    def in_primed(self, sigma: float, r: float) -> bool:
        return self.in_sub(sigma, r) and bool(self.slab_points(sigma, r))

    def membership_profile(self, sigma: float, kinds, r_values) -> dict:
        """{(kind, r): g_sigma L_A in the target} for every kind and r.

        The exact counterpart of targets.membership_profile, whose callers
        validate (kind, r) through TargetSpec.  Delta is computed once and
        the slab enumerated once, at the largest r: every smaller slab lies
        inside it, so each primed(r) is read off those points.  Thickened
        kinds flow over [sigma, sigma + window), windows as in targets.
        """
        if KIND_SUB in kinds or KIND_PRIMED in kinds:
            delta = self.delta_flowed(sigma)
            slab = self.slab_points(sigma, max(r_values)) if KIND_PRIMED in kinds else []
        out = {}
        for kind in kinds:
            for r in r_values:
                if kind == KIND_SUB:
                    hit = delta <= r + 1e-12
                elif kind == KIND_PRIMED:
                    hit = delta <= r + 1e-12 and any(
                        self._in_slab(n, q, sigma, r) for n, q in slab
                    )
                else:
                    hit = self.hits_thick(sigma, _WINDOWS[kind], r, kind == KIND_THICK_PRIMED)
                out[(kind, r)] = hit
        return out

    # -- thickened membership via s-interval analysis -----------------------

    def witness_intervals(self, k: float, window: float, r: float, primed: bool):
        """Subintervals of [k, k+window) on which g_s L_A is in the base target."""
        self._check_sigma(k + window)
        lo, hi = float(k), float(k) + float(window)
        # Lipschitz pre-filter (|Delta(s1) - Delta(s2)| <= |s1 - s2| here):
        # when Delta clears r across the whole window there is no witness
        if max(self.delta_flowed(lo), self.delta_flowed(hi)) - window > r + 1e-9:
            return []
        # candidate box for cube entry during the window
        n_max = self._n_threshold(-lo - r)
        q_max = int(math.exp(min(hi - r, 700.0)) * (1 + 1e-9)) + 1
        cube_ivs = []
        for n, q in self._box_points(n_max, q_max):
            s_hi = math.inf if n == 0 else -r - (log_int(abs(n)) - self.log_den)
            s_lo = -math.inf if q == 0 else r + log_int(abs(q))
            if s_hi - s_lo > _MIN_LEN:
                cube_ivs.append((s_lo, s_hi))
        avoid = _complement(_merge(cube_ivs), lo, hi)
        if not primed:
            return avoid
        eps = r / 4.0
        half_log_r = 0.5 * math.log(r)
        n_hi = self._n_threshold(-lo + math.log1p(eps))
        q_max = int(math.sqrt(r) * math.exp(min(hi, 700.0)) * (1 + 1e-9)) + 1
        slab_ivs = []
        for n, q in self._box_points(n_hi, q_max):
            if n == 0:
                continue
            base = self.log_den - log_int(abs(n))
            s_lo = base + math.log1p(-eps)
            s_hi = base + math.log1p(eps)
            if q != 0:
                s_lo = max(s_lo, log_int(abs(q)) - half_log_r)
            if s_hi - s_lo > _MIN_LEN:
                slab_ivs.append((s_lo, s_hi))
        return _intersect(avoid, _merge(slab_ivs))

    def hits_thick(self, k: float, window: float, r: float, primed: bool) -> bool:
        """Does g_s L_A enter the base target for some s in [k, k+window)?"""
        return bool(self.witness_intervals(k, window, r, primed))
