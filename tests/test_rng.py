"""The random stream against numpy's, draw for draw, and its errors.

``rng_stream(seed, stream)`` must equal numpy's
``Generator(PCG64(seed).jumped(stream))`` in every ``integers`` and
``random`` draw: every seeded result the package prints (goldens, pins,
bench fingerprints) was first produced by numpy's stream.
"""

import pytest

from morpion.rng import rng_stream

SEEDS = [0, 1, 5, 2**64 - 1, (1 << 96) + 12345, (1 << 200) + 7]
STREAMS = [0, 1, 2, 7, 1000]
# 2**31 + 11 rejects about half its raw draws, 2**32 none
RANGES = [1, 2, 13, 1000, 2**31, 2**31 + 11, 2**32]


def numpy_stream(seed, stream):
    np = pytest.importorskip("numpy")
    bits = np.random.PCG64(seed)
    if stream:
        bits = bits.jumped(stream)
    return np.random.Generator(bits)


def draws(rng, rounds):
    """Each round: one ``integers`` draw per range, low ones offset, then
    one ``random``."""
    out = []
    for i in range(rounds):
        for n in RANGES:
            low = -i if n < 2**31 else 0
            out.append(int(rng.integers(low, low + n)))
        out.append(float(rng.random()))
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{s.bit_length()}bit")
@pytest.mark.parametrize("stream", STREAMS)
def test_stream_equals_numpy_draw_for_draw(seed, stream):
    theirs = draws(numpy_stream(seed, stream), 200)
    ours = draws(rng_stream(seed, stream), 200)
    mismatches = sum(a != b for a, b in zip(ours, theirs))
    assert (mismatches, len(ours)) == (0, len(theirs))


def test_a_range_of_one_consumes_no_draw():
    rng, plain = rng_stream(3), rng_stream(3)
    seen = []
    for _ in range(5):
        assert rng.integers(9, 10) == 9
        seen.append((rng.integers(0, 13), rng.random()))
    assert seen == [(plain.integers(0, 13), plain.random()) for _ in range(5)]


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (-1, -3)])
def test_an_empty_range_is_an_error(low, high):
    with pytest.raises(ValueError, match="high <= low"):
        rng_stream(0).integers(low, high)


@pytest.mark.parametrize("n", [2**32 + 1, 2**40])
def test_a_range_above_2_32_is_an_error(n):
    with pytest.raises(ValueError, match="above 2"):
        rng_stream(0).integers(0, n)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-(2**70), 3)])
def test_a_negative_seed_or_stream_is_an_error(seed, stream):
    with pytest.raises(ValueError, match="non-negative"):
        rng_stream(seed, stream)
