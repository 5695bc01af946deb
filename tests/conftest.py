"""Shared test helpers."""

import bisect
import signal

import numpy as np
import pytest

from morpion.geometry import DIRECTIONS, Segment, conflicts, line_key, line_offset, point_at
from morpion.linecover import _REACH, Layout

# the largest budget an acceptance criterion allows, so only a loop that
# never ends reaches it
TEST_TIME_LIMIT_S = 600


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT_S`` instead of hanging."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past the {TEST_TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def two_direction_layout(rng, d1, d2, k, alpha=5):
    """Valid random layout with exactly 5k+1 lines in each of d1 and d2.

    Lines within a direction get distinct lattice-line keys, which makes
    same-direction disjointness automatic; offsets along each line are free.
    """
    n = 5 * k + 1
    segments = []
    for d in (d1, d2):
        keys = rng.choice(np.arange(-30, 31), size=n, replace=False)
        for key in keys:
            off = int(rng.integers(-30, 31))
            segments.append(Segment(d, point_at(d, int(key), off), alpha))
    return Layout.from_segments(segments, alpha)


def random_layout(rng):
    """A small random valid layout for property tests.

    ``rng`` is any object with ``integers(low, high)``, such as a numpy
    Generator or ``rng_stream``.  Up to 12 anchors are drawn uniformly in
    the 20 x 20 window; draws conflicting with an already-kept same-direction
    line are dropped, so the result may hold fewer lines.
    """
    kept = []
    offsets = {}
    n = int(rng.integers(0, 13))
    for _ in range(n):
        d = DIRECTIONS[int(rng.integers(0, 4))]
        ax = int(rng.integers(0, 20))
        ay = int(rng.integers(0, 20))
        line = (d, line_key(d, ax, ay))
        off = line_offset(d, ax, ay)
        if conflicts(offsets, _REACH, line, off):
            continue
        bisect.insort(offsets.setdefault(line, []), off)
        kept.append(Segment(d, (ax, ay), 5))
    return Layout.from_segments(kept)


# one field at a time over the interpreter's 4,300-digit int() limit
HUGE = "9" * 5000
OVERSIZED_FIELDS = {
    "move index": ("morpion-record v1 variant=5D\n{} cross=4,-1 dir=N anchor=4,-1\n", 2, 1),
    "cross": ("morpion-record v1 variant=5D\n1 cross={},-1 dir=N anchor=4,-1\n", 2, 9),
    "anchor": ("morpion-record v1 variant=5D\n1 cross=4,-1 dir=N anchor=4,-{}\n", 2, 29),
    "layout alpha": ("morpion-layout v1 alpha={}\n", 1, 25),
    "layout anchor": ("morpion-layout v1 alpha=5\ndir=E anchor={},0\n", 2, 14),
}
