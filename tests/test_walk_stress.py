"""Independent stress check of the records read off the convergent ladder
at a horizon far beyond the dense backend limit."""

import numpy as np

from dirichlet_lab.dirichlet import _records_walk
from dirichlet_lab.exact2d import Exact2D
from dirichlet_lab.rng import substream


def _window_records(num, den_exp, q_lo, q_hi, carry):
    """Dense uint64 re-derivation of records within [q_lo, q_hi]."""
    mask = np.uint64((1 << den_exp) - 1)
    num_u = np.uint64(num % (1 << den_exp))
    den_u = 1 << den_exp
    q = np.arange(q_lo, q_hi + 1, dtype=np.uint64)
    d = (q * num_u) & mask
    dist = np.minimum(d, np.uint64(den_u) - d)
    cm = np.minimum.accumulate(np.minimum(dist, np.uint64(carry)))
    prev = np.concatenate(([np.uint64(carry)], cm[:-1]))
    return [(int(q_lo + i), int(cm[i])) for i in np.flatnonzero(cm < prev)]


def test_walk_records_verified_windowwise_at_4e8():
    # A with a 2^50 denominator: genuine behavior well past T
    rng = substream(400, "walkstress", 0)
    num = (int(rng.integers(1, 1 << 50)) | 1) % (1 << 50)
    den_exp = 50
    ex = Exact2D(num, 1 << den_exp)
    T = 400_000_000
    records = _records_walk(ex, T)
    assert records[0][0] == 1
    values = [nv for _, nv in records]
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing
    assert records[-1][0] <= T

    # every record must be the first improvement inside its local window,
    # re-derived by dense enumeration independent of the ladder
    for idx in range(1, len(records)):
        q_star, n_star = records[idx]
        carry = records[idx - 1][1]
        lo = max(records[idx - 1][0] + 1, q_star - 50_000)
        hi = min(T, q_star + 50_000)
        local = _window_records(num, den_exp, lo, hi, carry)
        assert local, (idx, q_star)
        assert local[0] == (q_star, n_star), (idx, local[0], (q_star, n_star))

    # and no record hides in a few random record-free stretches
    for trial in range(8):
        i = int(rng.integers(0, len(records) - 1))
        q_a, q_b = records[i][0], records[i + 1][0]
        if q_b - q_a < 3:
            continue
        width = min(q_b - q_a - 2, 200_000)
        start = q_a + 1 + int(rng.integers(0, max(q_b - q_a - 1 - width, 1)))
        gap = _window_records(num, den_exp, start, start + width, records[i][1])
        assert gap == [], (i, start)
