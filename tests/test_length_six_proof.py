"""An independent re-proof that every 6D and 6T game scores exactly 12.

It shares no code with the rules engine or the solver: only the initial
crosses are imported, as data, and the rules are restated here on bitmasks.

* Candidates are the length-6 windows with at least 5 points that are
  initial crosses or lie on a candidate the window does not conflict with,
  grown from none to a fixpoint.  A window legal in some game is a
  candidate: its crosses are initial or lie on played lines, which were
  candidates and none of which it conflicts with.  (Counting the points of
  every candidate instead never stops: 24, 64, 80, 96, 112 windows in the
  first five rounds.)
* Each candidate has an int mask of its points and an int mask of the
  candidates it conflicts with: those in its direction that share a point
  with it under the D rule, or two points under the T rule.
* A candidate is legal when it is unplayed, conflicts with no played
  candidate and has exactly one point that is not a cross.
* The best score from a position is memoized on its played mask, or, with
  symmetry, on the least of its masks in the 8 frames of the square.

The candidates are the 24 legal first moves, in 12 mutually exclusive
pairs, so no move makes another and every game scores 12.  The positions
are the 3**12 = 531,441 ways to leave each pair open or play one of its
lines, 66,771 up to symmetry.  The symmetric check is gated; the one without
symmetry takes about 6 s per variant in CPython 3.11, and runs with
``PYTHONPATH=src python tests/test_length_six_proof.py --plain``.
"""

import sys
from operator import or_

import pytest

from morpion.geometry import initial_crosses

ALPHA = 6
STEPS = ((1, 0), (0, 1), (1, 1), (1, -1))


def conflict(a, b, shared):
    """Whether windows ``a`` and ``b``, each (step, points), share ``shared``
    points or more in one direction; a window conflicts with itself."""
    return a[0] == b[0] and len(set(a[1]) & set(b[1])) >= shared


def candidates(crosses, shared):
    """The candidate windows, sorted, each as (step, its points in step order)."""
    found = set()
    while True:
        points = set(crosses).union(*(pts for _, pts in found))
        more = set()
        for sx, sy in STEPS:
            for x, y in points:
                for shift in range(ALPHA):
                    ax, ay = x - shift * sx, y - shift * sy
                    window = ((sx, sy), tuple((ax + i * sx, ay + i * sy) for i in range(ALPHA)))
                    # a legal window's crosses are initial or were placed by
                    # played lines, none of which it conflicts with
                    allies = [other[1] for other in found if not conflict(window, other, shared)]
                    if sum(p in crosses or any(p in q for q in allies) for p in window[1]) >= ALPHA - 1:
                        more.add(window)
        if more == found:
            return sorted(found)
        found = more


def symmetries(crosses):
    """The 8 maps of the square that fix ``crosses``, identity first."""
    m = min(x for x, _ in crosses) + max(x for x, _ in crosses)
    maps = [
        lambda x, y: (x, y),
        lambda x, y: (m - x, y),
        lambda x, y: (x, m - y),
        lambda x, y: (m - x, m - y),
        lambda x, y: (y, x),
        lambda x, y: (m - y, x),
        lambda x, y: (y, m - x),
        lambda x, y: (m - y, m - x),
    ]
    for f in maps:
        assert {f(*p) for p in crosses} == set(crosses)
    return maps


class Proof:
    """The best score from the start of one length-6 variant, by DFS over masks."""

    def __init__(self, touching: bool, symmetric: bool = True):
        crosses = initial_crosses(ALPHA)
        shared = 2 if touching else 1
        windows = candidates(crosses, shared)
        ids = {p: i for i, p in enumerate(set(crosses).union(*(pts for _, pts in windows)))}
        self.start = sum(1 << ids[p] for p in crosses)
        maps = symmetries(crosses) if symmetric else symmetries(crosses)[:1]
        by_points = {frozenset(pts): i for i, (_, pts) in enumerate(windows)}
        # per window: its bit, the bits that bar it (its own among them), its
        # points and its bit in each frame
        self.moves = [
            (
                1 << i,
                sum(1 << j for j, other in enumerate(windows) if conflict(w, other, shared)),
                sum(1 << ids[p] for p in w[1]),
                tuple(1 << by_points[frozenset(f(*p) for p in w[1])] for f in maps),
            )
            for i, w in enumerate(windows)
        ]
        self.windows = windows
        self.memo = {}
        self.value = self._best(0, self.start, (0,) * len(maps))

    def legal(self, played, crosses):
        """The indices of the windows legal after ``played`` with ``crosses``."""
        return [
            i
            for i, (_, barred, pts, _) in enumerate(self.moves)
            if not played & barred and (miss := pts & ~crosses) and not miss & (miss - 1)
        ]

    def _best(self, played, crosses, frames):
        key = min(frames)
        best = self.memo.get(key)
        if best is None:
            best = 0
            for i in self.legal(played, crosses):
                bit, _, pts, frame_bits = self.moves[i]
                child = self._best(played | bit, crosses | pts, tuple(map(or_, frames, frame_bits)))
                best = max(best, 1 + child)
            self.memo[key] = best
        return best


@pytest.mark.parametrize("touching", [False, True], ids=["6D", "6T"])
def test_every_length_six_game_scores_twelve_by_bitmask(touching):
    proof = Proof(touching)
    # no move makes another: the windows a game can draw are the 24 first
    # moves, and each bars exactly one other, which bars it back
    first = proof.legal(0, proof.start)
    assert first == list(range(24)) == list(range(len(proof.windows)))
    partner = {}
    for i in first:
        (partner[i],) = [j for j in first if j != i and proof.moves[i][1] & proof.moves[j][0]]
    assert all(partner[partner[i]] == i for i in first)
    assert (proof.value, len(proof.memo)) == (12, 66_771)


if __name__ == "__main__":
    symmetric = "--plain" not in sys.argv[1:]
    for touching, name in ((False, "6D"), (True, "6T")):
        proof = Proof(touching, symmetric)
        print(f"{name}: best score {proof.value} over {len(proof.memo):,} states")
