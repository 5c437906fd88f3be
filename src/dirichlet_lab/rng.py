"""Deterministic, splittable random streams.

Every random draw in the library comes from a named substream keyed by
(seed, label, index).  Streams are counter-based (Philox), so parallel
schedules cannot reorder draws: sample i always sees the same bits no
matter which thread computes it.  The concrete generator is pinned by a
golden-value test.

`substream` builds one generator per index, for callers that keep drawing
from it.  `torus_samples` draws the torus samples of a whole index range
with one Philox whose state it resets per index to exactly what
`substream` would start from (key = sha256 bytes [0:16], counter 0, empty
buffer), so row i of the stack is bit-equal to
sample_torus(substream(seed, label, i), m, n) without building a
generator (and its seed sequence) per index.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ValidationError


def _key_digest(seed: int, label: str, index: int) -> bytes:
    return hashlib.sha256(f"{int(seed)}|{label}|{int(index)}".encode()).digest()


def substream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, label, index)."""
    if index < 0:
        raise ValidationError(f"substream index must be >= 0, got {index}")
    key = int.from_bytes(_key_digest(seed, label, index)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def torus_samples(seed: int, label: str, start: int, stop: int, m: int, n: int) -> np.ndarray:
    """(stop - start, m, n) stack of torus samples for the indices range(start, stop).

    Row i - start is bit-equal to sample_torus(substream(seed, label, i), m, n).
    """
    if start < 0:
        raise ValidationError(f"substream index must be >= 0, got {start}")
    bitgen = np.random.Philox(key=0)
    random = np.random.Generator(bitgen).random
    state = bitgen.state  # Philox(key=k)'s initial state; only the key differs per index
    out = np.empty((max(stop - start, 0), m, n))
    for row, index in enumerate(range(start, stop)):
        state["state"]["key"] = struct.unpack_from("<QQ", _key_digest(seed, label, index))
        bitgen.state = state
        random(out=out[row])
    return out


def sample_torus(stream: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform m x n matrix over the unit torus [0,1)^{m*n}."""
    return stream.random((m, n))


def sample_torus_fixedpoint(stream: np.random.Generator, m: int, n: int, bits: int):
    """Uniform fixed-point torus sample: integer matrix num with A = num / 2**bits.

    Used where orbit computations need exact arithmetic far beyond double
    precision; entries are forced odd so num/2**bits is in lowest terms.
    """
    if bits < 8:
        raise ValidationError("fixedpoint sampling needs bits >= 8")
    words = (bits + 31) // 32
    raw = stream.integers(0, 1 << 32, size=(m, n, words), dtype=np.uint64)
    num = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            v = 0
            for k in range(words):
                v = (v << 32) | int(raw[i, j, k])
            v &= (1 << bits) - 1
            num[i][j] = v | 1
    return num, 1 << bits
