import numpy as np
import pytest

from dirichlet_lab import rng
from dirichlet_lab.errors import ValidationError
from dirichlet_lab.rng import (
    sample_torus,
    sample_torus_fixedpoint,
    substream,
    torus_samples,
    torus_samples_fixedpoint,
)

# Golden values pin the concrete generator (Philox keyed by sha256 of
# "seed|label|index").  If any of these change, every seeded experiment
# in the project changes.
GOLDEN = [
    (0, "torus", 0),
    (0, "torus", 1),
    (0, "other", 0),
    (1, "torus", 0),
    (12345, "measure", 7),
    (12345, "measure", 8),
    (2**63 - 1, "orbit", 3),
    (42, "", 0),
]


def test_golden_values_are_stable():
    values = [substream(*case).random() for case in GOLDEN]
    again = [substream(*case).random() for case in GOLDEN]
    assert values == again
    assert len(set(values)) == len(values)


def test_golden_values_pinned():
    # frozen once; guards against generator drift across environments
    expected = [
        0.2632840306680516,
        0.3258551751207176,
        0.8471299790261042,
        0.4834778488202741,
        0.8429379187057006,
        0.07664581712036522,
        0.9827717847437362,
        0.8117624431867844,
    ]
    got = [substream(*case).random() for case in GOLDEN]
    assert got == expected


def test_substream_reproducible_bit_for_bit():
    a = sample_torus(substream(7, "torus", 0), 2, 3)
    b = sample_torus(substream(7, "torus", 0), 2, 3)
    assert a.tobytes() == b.tobytes()


def test_substreams_distinct():
    a = sample_torus(substream(7, "torus", 0), 1, 1)
    b = sample_torus(substream(7, "torus", 1), 1, 1)
    assert a[0, 0] != b[0, 0]


def test_negative_index_rejected():
    with pytest.raises(ValidationError):
        substream(0, "x", -1)


def test_torus_mean_clt():
    # 1e5 samples per entry: mean within 0.005 of 1/2
    g = substream(11, "torus-mean", 0)
    vals = g.random(100_000)
    assert abs(vals.mean() - 0.5) < 0.005


def test_fixedpoint_is_odd_and_in_range():
    num, den = sample_torus_fixedpoint(substream(3, "fp", 0), 2, 2, bits=96)
    assert den == 1 << 96
    for row in num:
        for v in row:
            assert 0 <= v < den
            assert v % 2 == 1


def test_fixedpoint_deterministic():
    a, _ = sample_torus_fixedpoint(substream(5, "fp", 1), 1, 1, bits=320)
    b, _ = sample_torus_fixedpoint(substream(5, "fp", 1), 1, 1, bits=320)
    assert a == b


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("start", [0, 255])
@pytest.mark.parametrize("label", ["measure", "torus-stack"])
def test_torus_samples_bit_equal_to_substreams(m, n, start, label):
    stack = torus_samples(9, label, start, start + 40, m, n)
    want = np.stack([sample_torus(substream(9, label, i), m, n) for i in range(start, start + 40)])
    assert stack.shape == (40, m, n)
    assert stack.tobytes() == want.tobytes()


def test_torus_samples_empty_range():
    assert torus_samples(9, "measure", 17, 17, 2, 3).shape == (0, 2, 3)


def test_torus_samples_negative_start_rejected():
    with pytest.raises(ValidationError):
        torus_samples(0, "x", -1, 3, 1, 1)


def test_torus_samples_reversed_range_rejected():
    with pytest.raises(ValidationError):
        torus_samples(0, "x", 5, 4, 1, 1)
    with pytest.raises(ValidationError):
        torus_samples_fixedpoint(0, "x", 5, 4, 1, 1, 96)


def _substream_stack(seed, label, start, stop, m, n):
    return np.stack([sample_torus(substream(seed, label, i), m, n) for i in range(start, stop)])


# The kernel against numpy's Philox: m * n past one Philox block of four
# words, an index of 10^12, the largest seed, the empty label.
@pytest.mark.parametrize(
    "seed, label, start, m, n",
    [
        (9, "measure", 0, 2, 3),
        (9, "measure", 0, 3, 3),
        (9, "measure", 10**12, 1, 2),
        (2**63 - 1, "orbit", 0, 2, 2),
        (42, "", 3, 3, 3),
    ],
)
def test_philox_kernel_matches_numpy_philox(seed, label, start, m, n):
    stack = torus_samples(seed, label, start, start + 24, m, n)
    assert stack.shape == (24, m, n)
    assert stack.tobytes() == _substream_stack(seed, label, start, start + 24, m, n).tobytes()


def test_philox_kernel_constants_are_uint64_arrays():
    # with no Python int in the kernel's uint64 arithmetic, numpy 1's
    # value-based casting and numpy 2's NEP 50 give the same words
    constants = [rng._W0, rng._W1, rng._LOW32, rng._S11, rng._S32, *rng._MUL0, *rng._MUL1]
    assert all(isinstance(c, np.ndarray) and c.dtype == np.uint64 for c in constants)


def test_torus_samples_build_no_generator(monkeypatch):
    want = _substream_stack(3, "measure", 0, 8, 2, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("torus_samples built a numpy generator")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    assert torus_samples(3, "measure", 0, 8, 2, 3).tobytes() == want.tobytes()
    torus_samples_fixedpoint(3, "fp", 0, 8, 1, 1, 96)


def test_numpy_draws_32_bits_as_the_low_then_the_high_half_of_a_word():
    # the order torus_samples_fixedpoint reads the kernel's words in
    words = np.random.Philox(key=12345).random_raw(3)
    stream = np.random.Generator(np.random.Philox(key=12345))
    draws = stream.integers(0, 1 << 32, size=6, dtype=np.uint64)
    assert draws.tolist() == [int(w) >> shift & 0xFFFFFFFF for w in words for shift in (0, 32)]


@pytest.mark.parametrize("bits", [96, 256, 320])  # 320 bits: 10 draws, two Philox blocks
@pytest.mark.parametrize("m, n", [(1, 1), (2, 3)])
def test_fixedpoint_kernel_matches_sample_torus_fixedpoint(bits, m, n):
    nums, den = torus_samples_fixedpoint(5, "zeroone", 2, 14, m, n, bits)
    assert den == 1 << bits and len(nums) == 12
    for i, num in enumerate(nums, start=2):
        assert num == sample_torus_fixedpoint(substream(5, "zeroone", i), m, n, bits)[0]


def test_fixedpoint_kernel_guards_bits():
    with pytest.raises(ValidationError):
        torus_samples_fixedpoint(5, "zeroone", 0, 4, 1, 1, 7)
