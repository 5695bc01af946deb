"""Lattice primitives: direction/key/offset coordinates, segments, variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morpion.geometry import (
    DIRECTIONS,
    DISJOINT,
    DISTINCT_DIRECTION,
    OVERLAPPING,
    SUPPORTED_ALPHAS,
    TOUCHING,
    ConfigurationError,
    Direction,
    Segment,
    Variant,
    bounding_box,
    conflict_reach,
    conflicts,
    initial_crosses,
    line_key,
    line_offset,
    point_at,
    segment_relation,
    segment_through,
)

coords = st.integers(min_value=-50, max_value=50)
directions = st.sampled_from(list(DIRECTIONS))


@given(directions, coords, coords)
def test_key_offset_roundtrip(d, x, y):
    assert point_at(d, line_key(d, x, y), line_offset(d, x, y)) == (x, y)


@given(directions, coords, coords, st.integers(min_value=0, max_value=8))
def test_key_constant_along_direction(d, x, y, steps):
    sx, sy = d.step
    assert line_key(d, x + steps * sx, y + steps * sy) == line_key(d, x, y)
    assert line_offset(d, x + steps * sx, y + steps * sy) == line_offset(d, x, y) + steps


def test_direction_steps():
    assert Direction.E.step == (1, 0)
    assert Direction.N.step == (0, 1)
    assert Direction.NE.step == (1, 1)
    assert Direction.SE.step == (1, -1)


@given(directions, coords, coords, st.integers(min_value=1, max_value=9))
def test_segment_points_walk_the_step(d, x, y, length):
    seg = Segment(d, (x, y), length)
    pts = seg.points()
    assert len(pts) == length
    assert pts[0] == seg.anchor == (x, y)
    assert pts[-1] == seg.last
    sx, sy = d.step
    assert all(b == (a[0] + sx, a[1] + sy) for a, b in zip(pts, pts[1:]))


@given(directions, coords, coords, st.integers(min_value=0, max_value=4))
def test_segment_through_covers_point_at_shift(d, x, y, shift):
    seg = segment_through(d, (x, y), shift, 5)
    assert seg.points()[shift] == (x, y)


@given(directions, directions, coords, coords, coords, coords)
def test_segment_relation_matches_set_arithmetic(d1, d2, x1, y1, x2, y2):
    """Oracle: classify by the actual number of shared lattice points."""
    a = Segment(d1, (x1, y1), 5)
    b = Segment(d2, (x2, y2), 5)
    got = segment_relation(a, b)
    if d1 != d2:
        assert got == DISTINCT_DIRECTION
        return
    shared = len(set(a.points()) & set(b.points()))
    want = {0: DISJOINT, 1: TOUCHING}.get(shared, OVERLAPPING)
    assert got == want


# lines as (direction, key, offset), crowded onto a few lattice lines so that
# most pairs are collinear
crowded_lines = st.tuples(
    directions, st.integers(min_value=-1, max_value=1), st.integers(min_value=-12, max_value=12)
)


@settings(max_examples=500)
@given(
    st.sampled_from(SUPPORTED_ALPHAS),
    st.booleans(),
    st.lists(crowded_lines, max_size=8),
    crowded_lines,
)
def test_conflicts_agrees_with_segment_relation(alpha, touching, placed, probe):
    """The indexed test equals the pairwise rule: overlap, or touching under D."""
    offsets = {}
    for d, key, off in placed:
        offsets.setdefault((d, key), []).append(off)
    for offs in offsets.values():
        offs.sort()

    def seg(d, key, off):
        return Segment(d, point_at(d, key, off), alpha)

    new = seg(*probe)
    forbidden = {OVERLAPPING} if touching else {OVERLAPPING, TOUCHING}
    want = any(segment_relation(new, seg(*line)) in forbidden for line in placed)
    d, key, off = probe
    assert conflicts(offsets, conflict_reach(alpha, touching), (d, key), off) == want


def test_variant_names_roundtrip():
    for alpha in SUPPORTED_ALPHAS:
        for touching in (False, True):
            v = Variant(alpha, touching)
            assert Variant.from_name(v.name) == v
    assert Variant.from_name("5D") == Variant(5, False)
    assert Variant.from_name("5T") == Variant(5, True)
    assert Variant.from_name(" 5d ") == Variant(5, False)


def test_variant_rejects_unknown_names():
    for bad in ("5X", "D5", "", "55", "7D", "2T"):
        with pytest.raises(ConfigurationError):
            Variant.from_name(bad)


def test_unsupported_alpha_rejected():
    with pytest.raises(ConfigurationError):
        initial_crosses(2)


@pytest.mark.parametrize("alpha", SUPPORTED_ALPHAS)
def test_initial_cross_count(alpha):
    pts = initial_crosses(alpha)
    assert len(pts) == len(set(pts)) == 12 * (alpha - 2)


def test_initial_crosses_plus_outline_alpha5():
    pts = set(initial_crosses(5))
    # the standard cross: a 3x3 arrangement of unit-a squares minus corners,
    # outline only; a = 3 for length-5 lines
    a = 3
    assert len(pts) == 36
    assert bounding_box(pts) == (0, 0, 3 * a, 3 * a)
    # fourfold symmetry about the centre
    c = 3 * a
    assert all((c - x, y) in pts for x, y in pts)
    assert all((x, c - y) in pts for x, y in pts)
    assert all((y, x) in pts for x, y in pts)
    # the four edge midruns exist, the centre is empty
    assert (a, 0) in pts and (2 * a, 0) in pts
    assert (0, a) in pts and (0, 2 * a) in pts
    assert (a + 1, a + 1) not in pts


def test_initial_crosses_run_lengths():
    """Each outline edge is a run of exactly a+1 = alpha-1 crosses."""
    pts = set(initial_crosses(5))
    run = [(x, 0) for x in range(3, 7)]
    assert all(p in pts for p in run) and (2, 0) not in pts and (7, 0) not in pts
