import numpy as np
import pytest

from dirichlet_lab.errors import ValidationError
from dirichlet_lab.rng import sample_torus, sample_torus_fixedpoint, substream, torus_samples

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
