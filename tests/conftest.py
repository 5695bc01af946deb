"""Shared test helpers."""

import signal

import numpy as np
import pytest

from morpion.geometry import Segment, point_at
from morpion.linecover import Layout

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


# one field at a time over the interpreter's 4,300-digit int() limit
HUGE = "9" * 5000
OVERSIZED_FIELDS = {
    "move index": ("morpion-record v1 variant=5D\n{} cross=4,-1 dir=N anchor=4,-1\n", 2, 1),
    "cross": ("morpion-record v1 variant=5D\n1 cross={},-1 dir=N anchor=4,-1\n", 2, 9),
    "anchor": ("morpion-record v1 variant=5D\n1 cross=4,-1 dir=N anchor=4,-{}\n", 2, 29),
    "layout alpha": ("morpion-layout v1 alpha={}\n", 1, 25),
    "layout anchor": ("morpion-layout v1 alpha=5\ndir=E anchor={},0\n", 2, 14),
}
