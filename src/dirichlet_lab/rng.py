"""Deterministic, splittable random streams.

Every random draw in the library comes from a named substream keyed by
(seed, label, index).  Streams are counter-based (Philox4x64-10, Salmon,
Moraes, Dror & Shaw, SC 2011), so parallel schedules cannot reorder draws:
sample i always sees the same bits no matter which thread computes it.
The concrete generator is numpy's Philox, keyed by sha256 bytes [0:16] of
"seed|label|index", and a golden-value test pins it.

`substream` builds one generator per index, for callers that keep drawing
from it.  `torus_samples` and `torus_samples_fixedpoint` draw a whole index
range without building any: `_philox_words` runs the ten Philox rounds in
numpy over a (2, N) array of keys, block b of every key at counter
(b + 1, 0, 0, 0) as numpy's Philox counts them, with each 64x64 -> 128-bit
product taken in uint64 by 32-bit halves.  A double is (word >> 11) * 2^-53
and a 32-bit draw is the low, then the high half of a word, as numpy's
Generator reads them, so row i of either stack is bit-equal to the
single-stream sample of substream(seed, label, i); tests/test_rng.py
compares the two at m * n past one block, an index of 10^12, the largest
seed, the empty label and two blocks of fixed-point words.  Every
constant of the kernel is a np.uint64 array, so its words are the same
under numpy 1's value-based casting and numpy 2's NEP 50.
"""

from __future__ import annotations

import hashlib

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


def _u64(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


def _multiplier(m: int):
    """m and its low and high 32 bits, as np.uint64 arrays."""
    return _u64(m), _u64(m & 0xFFFFFFFF), _u64(m >> 32)


_MUL0, _MUL1 = _multiplier(0xD2E7470EE14C6C93), _multiplier(0xCA5A826395121157)  # Philox4x64
_W0, _W1 = _u64(0x9E3779B97F4A7C15), _u64(0xBB67AE8584CAA73B)  # key bumps
_LOW32, _S11, _S32 = _u64(0xFFFFFFFF), _u64(11), _u64(32)
_ROUNDS = 10


def _mulhilo(multiplier, x):
    """(hi, lo) words of the 128-bit products m * x, for multiplier = _multiplier(m)."""
    m, m_lo, m_hi = multiplier
    x_lo, x_hi = x & _LOW32, x >> _S32
    ll, lh, hl = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (ll >> _S32) + (lh & _LOW32) + (hl & _LOW32)
    return m_hi * x_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32), m * x


def _keys(seed: int, label: str, start: int, stop: int) -> np.ndarray:
    """(2, stop - start) uint64 Philox keys of the indices range(start, stop).

    Column i is substream's key of index start + i: the two little-endian
    words of sha256 bytes [0:16], the "seed|label|" prefix hashed once.
    """
    prefix = hashlib.sha256(f"{int(seed)}|{label}|".encode())
    digests = []
    for index in range(start, stop):
        h = prefix.copy()
        h.update(str(index).encode())
        digests.append(h.digest()[:16])
    words = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 2)
    return np.ascontiguousarray(words.T, np.uint64)


def _philox_words(keys: np.ndarray, words: int) -> np.ndarray:
    """(N, words) uint64: the first `words` outputs of numpy's Philox(key) per key column."""
    blocks = -(-words // 4)
    shape = (blocks, keys.shape[1])
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64)[:, None], shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = keys
    for r in range(_ROUNDS):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        hi0, lo0 = _mulhilo(_MUL0, x0)
        hi1, lo1 = _mulhilo(_MUL1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    # (4, blocks, N) -> (N, blocks, 4): row i reads block 0's words, then block 1's
    return np.stack([x0, x1, x2, x3]).transpose(2, 1, 0).reshape(shape[1], 4 * blocks)[:, :words]


def _check_range(start: int, stop: int) -> None:
    if start < 0:
        raise ValidationError(f"substream index must be >= 0, got {start}")
    if stop < start:
        raise ValidationError(f"index range must have stop >= start, got [{start}, {stop})")


def torus_samples(seed: int, label: str, start: int, stop: int, m: int, n: int) -> np.ndarray:
    """(stop - start, m, n) stack of torus samples for the indices range(start, stop).

    Row i - start is bit-equal to sample_torus(substream(seed, label, i), m, n).
    """
    _check_range(start, stop)
    words = _philox_words(_keys(seed, label, start, stop), m * n)
    return ((words >> _S11).astype(np.float64) * 2.0**-53).reshape(stop - start, m, n)


def torus_samples_fixedpoint(
    seed: int, label: str, start: int, stop: int, m: int, n: int, bits: int
):
    """(nums, 2**bits) for the indices range(start, stop), without a generator per index.

    nums[i - start] is bit-equal to the num of
    sample_torus_fixedpoint(substream(seed, label, i), m, n, bits).
    """
    _check_range(start, stop)
    per_entry = _fixedpoint_words(bits)
    draws = m * n * per_entry  # 32-bit draws per index
    words = _philox_words(_keys(seed, label, start, stop), -(-draws // 2))
    # each word is two 32-bit draws, its low half first
    halves = np.ascontiguousarray(words, "<u8").view("<u4")[:, :draws].reshape(-1, m, n, per_entry)
    return [_fixedpoint_num(entry, bits) for entry in halves], 1 << bits


def sample_torus(stream: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Uniform m x n matrix over the unit torus [0,1)^{m*n}."""
    return stream.random((m, n))


def sample_torus_fixedpoint(stream: np.random.Generator, m: int, n: int, bits: int):
    """Uniform fixed-point torus sample: integer matrix num with A = num / 2**bits.

    Used where orbit computations need exact arithmetic far beyond double
    precision; entries are forced odd so num/2**bits is in lowest terms.
    """
    per_entry = _fixedpoint_words(bits)
    raw = stream.integers(0, 1 << 32, size=(m, n, per_entry), dtype=np.uint64)
    return _fixedpoint_num(raw, bits), 1 << bits


def _fixedpoint_words(bits: int) -> int:
    """32-bit draws per entry of a fixed-point sample of `bits` bits."""
    if bits < 8:
        raise ValidationError("fixedpoint sampling needs bits >= 8")
    return (bits + 31) // 32


def _fixedpoint_num(raw, bits: int):
    """The m x n odd integers of an (m, n, words) array of 32-bit draws, most significant first."""
    mask = (1 << bits) - 1
    return [
        [int.from_bytes(draws.astype(">u4").tobytes(), "big") & mask | 1 for draws in row]
        for row in raw
    ]
