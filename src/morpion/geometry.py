"""Lattice geometry: points, the four line directions, segments, and rule variants.

:func:`conflicts` is the one same-direction conflict test, shared by the rules
engine and the line-counting module; :func:`segment_relation` is its reference.
It reads the sorted anchor offsets per lattice line that :func:`place_line` and
:func:`lift_line`, the one bookkeeper of placed lines, write with the cover counts.
The row they take, ``(points, anchor offset, (direction, line key))``, has one
builder, :func:`line_row`, which works on :data:`LATTICE` arithmetic alone.

Coordinates are integer pairs ``(x, y)`` with x growing rightward and y growing
upward.  The canonical starting layout for line length 5 occupies [0, 9] x [0, 9];
negative coordinates appear as play expands outward.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from enum import IntEnum
from typing import Iterable, NamedTuple

Point = tuple[int, int]


class ConfigurationError(ValueError):
    """Raised for unsupported rule parameters."""


class Direction(IntEnum):
    """The four directions a line may take.

    Segments are undirected; each direction is represented by the unit step
    with positive x (or, for N, positive y).
    """

    E = 0
    N = 1
    NE = 2
    SE = 3

    @property
    def step(self) -> Point:
        return _STEPS[self]


_STEPS: tuple[Point, ...] = ((1, 0), (0, 1), (1, 1), (1, -1))

DIRECTIONS: tuple[Direction, ...] = (
    Direction.E,
    Direction.N,
    Direction.NE,
    Direction.SE,
)


#: the lattice bijection: per direction, the coefficients ``(kx, ky, ox, oy)`` of
#: the line key ``kx*x + ky*y`` and the offset ``ox*x + oy*y`` of the point ``(x, y)``
LATTICE: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 1, 0),  # E
    (1, 0, 0, 1),  # N
    (1, -1, 1, 0),  # NE
    (1, 1, 1, 0),  # SE
)


def line_key(direction: Direction, x: int, y: int) -> int:
    """Identifier of the lattice line through ``(x, y)`` in ``direction``.

    Constant along the direction's step, distinct across parallel lines.
    """
    kx, ky, _, _ = LATTICE[direction]
    return kx * x + ky * y


def line_offset(direction: Direction, x: int, y: int) -> int:
    """Position of ``(x, y)`` along its lattice line in ``direction``.

    Together with :func:`line_key` this is a bijection on lattice points.
    """
    _, _, ox, oy = LATTICE[direction]
    return ox * x + oy * y


def point_at(direction: Direction, key: int, offset: int) -> Point:
    """Inverse of ``(line_key, line_offset)``.

    Every :data:`LATTICE` row has determinant ``kx*oy - ky*ox`` of +1 or -1,
    which is its own inverse.
    """
    kx, ky, ox, oy = LATTICE[direction]
    det = kx * oy - ky * ox
    return (det * (oy * key - ky * offset), det * (kx * offset - ox * key))


class Segment(NamedTuple):
    """A run of ``length`` lattice points starting at ``anchor``.

    The anchor is the covered point that is lexicographically smallest, i.e.
    the extreme point against the direction's step.  ``(direction, anchor)``
    is the canonical identity used for serialization and ordering.
    """

    direction: Direction
    anchor: Point
    length: int

    def points(self) -> tuple[Point, ...]:
        sx, sy = _STEPS[self.direction]
        x, y = self.anchor
        return tuple((x + i * sx, y + i * sy) for i in range(self.length))

    @property
    def key(self) -> int:
        return line_key(self.direction, *self.anchor)

    @property
    def offset(self) -> int:
        return line_offset(self.direction, *self.anchor)

    @property
    def last(self) -> Point:
        sx, sy = _STEPS[self.direction]
        x, y = self.anchor
        n = self.length - 1
        return (x + n * sx, y + n * sy)


def segment_through(direction: Direction, point: Point, shift: int, length: int) -> Segment:
    """Segment of ``length`` covering ``point`` at position ``shift`` from the anchor."""
    sx, sy = _STEPS[direction]
    x, y = point
    return Segment(direction, (x - shift * sx, y - shift * sy), length)


#: segment_relation outcomes
DISTINCT_DIRECTION = "distinct-direction"
DISJOINT = "disjoint"
TOUCHING = "touching"
OVERLAPPING = "overlapping"


def segment_relation(a: Segment, b: Segment) -> str:
    """Classify how two segments interact.

    Same-direction segments on distinct parallel lines share no point and are
    "disjoint"; collinear ones share ``max(0, length - |offset gap|)`` points,
    giving "disjoint" / "touching" / "overlapping" for 0 / 1 / >=2 shared
    points.  Pairs with different directions are "distinct-direction" (the
    rules place no constraint between them).
    """
    if a.direction != b.direction:
        return DISTINCT_DIRECTION
    if a.key != b.key:
        return DISJOINT
    lo, hi = (a, b) if a.offset <= b.offset else (b, a)
    shared = lo.offset + lo.length - hi.offset
    shared = min(shared, hi.length)
    if shared <= 0:
        return DISJOINT
    if shared == 1:
        return TOUCHING
    return OVERLAPPING


def conflict_reach(alpha: int, touching: bool) -> int:
    """Largest anchor gap at which collinear ``alpha``-lines share a point (D rule) or two (T)."""
    return alpha - 2 if touching else alpha - 1


def conflicts(offsets: dict, reach: int, line: tuple[Direction, int], offset: int) -> bool:
    """Whether a line at ``offset`` on lattice line ``line`` conflicts.

    ``line`` is ``(direction, line key)``; ``offsets`` maps it to the sorted
    anchor offsets of the lines placed there; ``reach`` is :func:`conflict_reach`.
    """
    offs = offsets.get(line)
    if not offs:
        return False
    i = bisect_left(offs, offset)
    if i < len(offs) and offs[i] - offset <= reach:
        return True
    return i > 0 and offset - offs[i - 1] <= reach


def line_row(direction: Direction, anchor: Point, length: int) -> tuple:
    """The line of ``length`` points from ``anchor`` in ``direction`` as the row
    ``(points, anchor offset, (direction, line key))`` that :func:`place_line` records."""
    sx, sy = _STEPS[direction]
    kx, ky, ox, oy = LATTICE[direction]
    x, y = anchor
    pts = tuple([(x + i * sx, y + i * sy) for i in range(length)])
    return (pts, ox * x + oy * y, (direction, kx * x + ky * y))


def place_line(offsets: dict, cover: dict, row: tuple) -> None:
    """Record the line ``row``, ``(points, anchor offset, (direction, line key))``, in
    ``offsets`` (lattice line -> sorted anchor offsets) and ``cover`` (point -> lines on it)."""
    pts, off, line = row
    insort(offsets.setdefault(line, []), off)
    for p in pts:
        cover[p] = cover.get(p, 0) + 1


def lift_line(offsets: dict, cover: dict, row: tuple) -> None:
    """Undo :func:`place_line`; a lattice line or point left with no line loses its entry."""
    pts, off, line = row
    offs = offsets[line]
    offs.remove(off)
    if not offs:
        del offsets[line]
    for p in pts:
        n = cover[p] - 1
        if n:
            cover[p] = n
        else:
            del cover[p]


SUPPORTED_ALPHAS = (3, 4, 5, 6)


class Variant(NamedTuple):
    """Rule variant: line length ``alpha`` plus the touch rule.

    ``touching_allowed=False`` is the D (disjoint) rule: same-direction lines
    may not share any point.  ``True`` is the T rule: they may share one
    point but not two.
    """

    alpha: int
    touching_allowed: bool

    @property
    def name(self) -> str:
        return f"{self.alpha}{'T' if self.touching_allowed else 'D'}"

    @classmethod
    def from_name(cls, name: str) -> "Variant":
        text = name.strip().upper()
        if len(text) != 2 or not text[0].isdigit() or text[1] not in "DT":
            raise ConfigurationError(f"unknown variant {name!r} (expected e.g. 5D, 5T)")
        alpha = int(text[0])
        if alpha not in SUPPORTED_ALPHAS:
            raise ConfigurationError(f"unsupported line length {alpha} (supported: 3..6)")
        return cls(alpha, text[1] == "T")


FIVE_D = Variant(5, False)
FIVE_T = Variant(5, True)
SIX_D = Variant(6, False)
SIX_T = Variant(6, True)


def initial_crosses(alpha: int) -> frozenset[Point]:
    """Starting crosses for line length ``alpha``: the outline of a plus shape.

    The outline has 12 edges of ``alpha - 2`` lattice steps each, giving
    ``12 * (alpha - 2)`` crosses inside [0, 3*(alpha-2)] squared.  For
    ``alpha = 5`` this is the standard 36-cross layout.
    """
    if alpha not in SUPPORTED_ALPHAS:
        raise ConfigurationError(f"unsupported line length {alpha} (supported: 3..6)")
    a = alpha - 2
    corners = (
        (a, 0), (2 * a, 0), (2 * a, a), (3 * a, a), (3 * a, 2 * a), (2 * a, 2 * a),
        (2 * a, 3 * a), (a, 3 * a), (a, 2 * a), (0, 2 * a), (0, a), (a, a),
    )
    points: set[Point] = set()
    for i, (x0, y0) in enumerate(corners):
        x1, y1 = corners[(i + 1) % 12]
        dx = (x1 > x0) - (x1 < x0)
        dy = (y1 > y0) - (y1 < y0)
        for s in range(max(abs(x1 - x0), abs(y1 - y0))):
            points.add((x0 + s * dx, y0 + s * dy))
    return frozenset(points)


def bounding_box(points: Iterable[Point]) -> tuple[int, int, int, int]:
    """(min_x, min_y, max_x, max_y) of a nonempty point collection."""
    xs = []
    ys = []
    for x, y in points:
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ValueError("empty point collection has no bounding box")
    return (min(xs), min(ys), max(xs), max(ys))
