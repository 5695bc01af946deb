"""Move legality, move generation, apply/undo, and replay.

A move places one cross on an empty point and draws a line of ``alpha``
consecutive lattice points through it; the other ``alpha - 1`` points must
already bear crosses.  Same-direction lines must be disjoint under the D rule
and may share at most one point under the T rule.

The board keeps its legal moves in two containers.  A segment is a legal
line exactly when it covers one empty point and conflicts with no placed
same-direction line (:func:`~morpion.geometry.conflicts`, the package's one
conflict test, over the board's sorted anchor offsets per lattice line).  A
dict maps each legal move to its segment's row (points, direction, line key,
offset, ``(direction, line key)``), so :meth:`Board.apply` tests legality
with one lookup; a list holds the same moves in canonical order, and
:meth:`Board.legal_moves` copies it.

A position has about ten legal moves, so :meth:`Board.apply` builds new
containers instead of editing the old ones.  It copies both, drops the moves
whose one empty point is the new cross (one run of the list, since moves
sort by cross first) and the moves the drawn line conflicts with, then
enters the moves the new cross makes legal.  A pair, once published, is
never mutated: the undo trail keeps the parent's pair, so :meth:`Board.undo`
restores it by assignment and re-indexes nothing, and :meth:`Board.copy`
and ``Board(variant)`` share it.

Applying a move can only validate segments through its cross that had two
empty points.  For each direction, the crosses among the ``2 * alpha - 2``
neighbours of the cross along it form a pattern; a table per line length
maps each pattern to the windows through the cross that it leaves with
exactly one empty point, and to where that point is.  The table depends on
nothing but ``alpha``, so :meth:`Board.undo` has nothing to reverse in it.

The point geometry comes from one table per line length, shared by every
board in the process: for a point, per direction, its neighbours and the
rows of the ``alpha`` segments through it.  Both tables fill lazily, the
pattern table on the first use of a pattern and the point table on the first
use of a point.  Points gain entries only when they receive a cross or
anchor a placed line, through the constructors or a legal
:meth:`Board.apply` (an illegal move is rejected before any lookup), so the
point table is bounded by the points that boards in the process have
covered.  ``Board(variant)`` at the standard start copies one prototype
board per variant and process.

``apply``, ``Board.force`` and the legal-index rebuild read only from the
tables.
:meth:`Board.legality_failure` and :meth:`Board.check_invariants` derive
every segment from :func:`~morpion.geometry.segment_through` and
``Segment.points`` instead, as an independent reference; all of them share
the one conflict test, and ``check_invariants`` also checks the placed lines
pairwise with :func:`~morpion.geometry.segment_relation`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .geometry import (
    DIRECTIONS,
    OVERLAPPING,
    TOUCHING,
    Direction,
    Point,
    Segment,
    Variant,
    conflict_reach,
    conflicts,
    initial_crosses,
    line_key,
    line_offset,
    segment_relation,
    segment_through,
)


class IllegalMoveError(ValueError):
    """Raised when an illegal move is applied or replayed.

    ``reason`` names the first violated legality clause; ``index`` is the
    1-based move number when raised during replay.
    """

    def __init__(self, reason: str, move: "Move", index: int | None = None):
        self.reason = reason
        self.move = move
        self.index = index
        where = f"move {index}: " if index is not None else ""
        super().__init__(f"{where}illegal move {move}: {reason}")


class Move(NamedTuple):
    """Cross placement plus the line drawn through it.

    The line is ``(direction, anchor)`` with the variant's length implied.
    Field order gives the canonical sort: (cross, direction, anchor).
    """

    cross: Point
    direction: Direction
    anchor: Point

    def segment(self, alpha: int) -> Segment:
        return Segment(self.direction, self.anchor, alpha)


@dataclass
class GameRecord:
    """A full game: variant, move sequence, free-form annotations."""

    variant: Variant
    moves: list[Move] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


# a segment: (its points from the anchor, direction, line key, anchor offset,
# (direction, line key))
_Row = tuple[tuple[Point, ...], Direction, int, int, tuple[Direction, int]]
# a point along one direction: (direction, its neighbours and the rows of the
# segments through it, both in _Windows order)
_Around = tuple[Direction, tuple[Point, ...], tuple[_Row, ...]]


class _Windows(dict):
    """Neighbour pattern -> the windows through a cross that it leaves with
    one empty point; filled on first use of each pattern.

    ``pattern[k]`` is nonzero when neighbour ``k`` of the cross bears a cross.
    The ``2 * alpha - 2`` neighbours are the points ``alpha - 1`` steps or
    fewer from the cross along one direction, in step order, the cross itself
    left out.  Window ``i`` is the segment anchored at line position ``i``
    (the cross is at ``alpha - 1``); it covers neighbours ``i`` to
    ``i + alpha - 2``.  Each hit is ``(i, k)``, ``k`` the window's one empty
    neighbour, in increasing ``i``.
    """

    def __init__(self, alpha: int):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, pattern: bytes) -> tuple[tuple[int, int], ...]:
        alpha = self.alpha
        found = []
        for i in range(alpha):
            empty = [k for k in range(i, i + alpha - 1) if not pattern[k]]
            if len(empty) == 1:
                found.append((i, empty[0]))
        hits = self[pattern] = tuple(found)
        return hits


class _Geometry:
    """Point tables for one line length; :meth:`around` fills what it misses."""

    __slots__ = ("alpha", "by_point", "windows")

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.by_point: dict[Point, tuple[_Around, ...]] = {}
        self.windows = _Windows(alpha)

    def around(self, point: Point) -> tuple[_Around, ...]:
        """Per direction, in ``Direction`` order: the point's neighbours and
        the rows of the segments through it, row ``alpha - 1`` anchored at
        the point itself."""
        found = self.by_point.get(point)
        if found is None:
            alpha = self.alpha
            x, y = point
            per_direction = []
            for d in DIRECTIONS:
                sx, sy = d.step
                line = [(x + t * sx, y + t * sy) for t in range(1 - alpha, alpha)]
                key = line_key(d, x, y)
                rows = tuple(
                    (tuple(line[i : i + alpha]), d, key, line_offset(d, *line[i]), (d, key))
                    for i in range(alpha)
                )
                per_direction.append((d, tuple(line[: alpha - 1] + line[alpha:]), rows))
            found = self.by_point[point] = tuple(per_direction)
        return found


# one per line length, shared by every board in the process; a row depends
# only on the lattice, so the order in which boards fill the tables is moot
_GEOMETRY: dict[int, _Geometry] = {}


def _geometry(alpha: int) -> _Geometry:
    geo = _GEOMETRY.get(alpha)
    if geo is None:
        geo = _GEOMETRY[alpha] = _Geometry(alpha)
    return geo


# the standard start of each variant, built once per process and only copied
_START: dict[Variant, "Board"] = {}


class Board:
    """Mutable game state with an incrementally maintained legal-move index.

    Without ``crosses`` the board starts from the variant's standard crosses,
    copied from a start board built once per process.  Single-writer: never
    mutate one board from two threads.  ``copy`` is the supported way to fan
    out.
    """

    __slots__ = (
        "variant",
        "initial",
        "crosses",
        "moves",
        "cover_count",
        "_geo",
        "_reach",
        "_line_offsets",
        "_legal",
        "_ordered",
        "_trail",
    )

    def __init__(self, variant: Variant, crosses: Iterable[Point] | None = None):
        if crosses is None:
            start = _START.get(variant)
            if start is None:
                start = _START[variant] = Board(variant, initial_crosses(variant.alpha))
            self._copy_from(start)
            return
        self.variant = variant
        self.initial = frozenset(crosses)
        self.crosses: set[Point] = set(self.initial)
        self.moves: list[Move] = []
        # lines covering each point; absent means zero
        self.cover_count: dict[Point, int] = {}
        self._geo = _geometry(variant.alpha)
        self._reach = conflict_reach(variant.alpha, variant.touching_allowed)
        # (direction, line_key) -> sorted anchor offsets of placed lines
        self._line_offsets: dict[tuple[Direction, int], list[int]] = {}
        # legal move -> its segment's row, and the legal moves in canonical
        # order; a pair is replaced, never mutated, once apply returns
        self._legal: dict[Move, _Row]
        self._ordered: list[Move]
        # the (_legal, _ordered) pair before each move, for undo
        self._trail: list[tuple[dict[Move, _Row], list[Move]]] = []
        self._rebuild_legal()

    @classmethod
    def force(
        cls,
        variant: Variant,
        moves: Iterable[Move],
        crosses: Iterable[Point] = (),
    ) -> "Board":
        """Build a board by playing ``moves`` with every legality check bypassed.

        For constructing rule-violating positions to exercise the analysis
        monitors; nothing reachable through :meth:`apply` needs this.  The
        resulting board has history but no undo trail.
        """
        board = cls(variant, crosses)
        around = board._geo.around
        last = variant.alpha - 1  # a point's row anchored at the point itself
        for move in moves:
            board.crosses.add(move.cross)
            board._register_line(around(move.anchor)[move.direction][2][last])
            board.moves.append(move)
        board._rebuild_legal()
        return board

    # -- queries ---------------------------------------------------------

    @property
    def score(self) -> int:
        return len(self.moves)

    @property
    def lines(self) -> list[Segment]:
        """The drawn lines, one per move, in move order."""
        alpha = self.variant.alpha
        return [m.segment(alpha) for m in self.moves]

    def legal_moves(self) -> list[Move]:
        """All legal moves, canonically sorted by (cross, direction, anchor)."""
        return self._ordered[:]

    def has_legal_moves(self) -> bool:
        return bool(self._legal)

    def is_legal(self, move: Move) -> tuple[bool, str | None]:
        """Legality plus the first violated clause (None when legal)."""
        reason = self.legality_failure(move)
        return (reason is None, reason)

    def legality_failure(self, move: Move) -> str | None:
        if move in self._legal:
            return None
        if move.cross in self.crosses:
            return f"(a): point {move.cross[0]},{move.cross[1]} already bears a cross"
        seg = move.segment(self.variant.alpha)
        pts = seg.points()
        if move.cross not in pts:
            return "(b): line does not cover the placed cross"
        for p in pts:
            if p != move.cross and p not in self.crosses:
                return f"(c): point {p[0]},{p[1]} empty"
        if conflicts(self._line_offsets, self._reach, seg.direction, seg.key, seg.offset):
            kind = "touches" if not self.variant.touching_allowed else "overlaps"
            return f"(d): line {kind} an existing same-direction line"
        return None

    def state_key(self) -> frozenset[tuple[Direction, Point]]:
        """The position's lines as ``(direction, anchor)``, move order
        forgotten: each move's cross lies on its own line, so the crosses are
        the initial ones plus the points the lines cover."""
        return frozenset((m.direction, m.anchor) for m in self.moves)

    # -- mutation --------------------------------------------------------

    def apply(self, move: Move) -> "Board":
        row = self._legal.get(move)
        if row is None:
            reason = self.legality_failure(move)
            raise IllegalMoveError(reason or "not currently legal", move)

        cross = move.cross
        legal = dict(self._legal)
        ordered = self._ordered
        # the legal moves whose one empty point is the new cross, this one
        # included, are one run of the canonical order
        lo = hi = bisect.bisect_left(ordered, (cross,))
        while hi < len(ordered) and ordered[hi][0] == cross:
            del legal[ordered[hi]]
            hi += 1
        ordered = ordered[:lo] + ordered[hi:]
        # then the legal moves the drawn line conflicts with
        line, off, reach = row[4], row[3], self._reach
        ruled_out = [m for m, r in legal.items() if r[4] == line and abs(r[3] - off) <= reach]
        for m in ruled_out:
            del legal[m]
            del ordered[bisect.bisect_left(ordered, m)]

        self._trail.append((self._legal, self._ordered))
        self._legal, self._ordered = legal, ordered
        self.crosses.add(cross)
        self._register_line(row)
        self.moves.append(move)
        self._enter_legal(cross, move.direction)
        return self

    def undo(self) -> "Board":
        if not self._trail:
            raise IndexError("undo on a board with no moves")
        self._legal, self._ordered = self._trail.pop()
        move = self.moves.pop()
        self._unregister_line(self._legal[move])
        self.crosses.discard(move.cross)
        return self

    def copy(self) -> "Board":
        clone = object.__new__(Board)
        clone._copy_from(self)
        return clone

    # -- internals -------------------------------------------------------

    def _copy_from(self, other: "Board") -> None:
        self.variant = other.variant
        self.initial = other.initial
        self.crosses = set(other.crosses)
        self.moves = list(other.moves)
        self.cover_count = dict(other.cover_count)
        self._geo = other._geo
        self._reach = other._reach
        self._line_offsets = {k: list(v) for k, v in other._line_offsets.items()}
        self._legal = other._legal
        self._ordered = other._ordered
        self._trail = list(other._trail)

    def _enter_legal(self, cross: Point, drawn: Direction | None) -> None:
        """Enter the legal moves through the cross at ``cross`` into the
        board's containers, which must not be published yet.

        They are the windows through ``cross`` with one empty point that
        conflict with no placed line and are not indexed yet.  ``drawn`` is
        the direction of a line just drawn through ``cross``: under the D rule
        every window along it shares the cross with that line, so none is
        tested.
        """
        skip = None if self.variant.touching_allowed else drawn
        has = self.crosses.__contains__
        legal = self._legal
        ordered = self._ordered
        windows = self._geo.windows
        offsets = self._line_offsets
        reach = self._reach
        for d, nbrs, rows in self._geo.around(cross):
            if d is skip:
                continue
            for i, k in windows[bytes(map(has, nbrs))]:
                row = rows[i]
                if not conflicts(offsets, reach, d, row[2], row[3]):
                    m = Move(nbrs[k], d, row[0][0])
                    if m not in legal:
                        legal[m] = row
                        bisect.insort(ordered, m)

    def _register_line(self, row: _Row) -> None:
        pts, _, _, off, line = row
        bisect.insort(self._line_offsets.setdefault(line, []), off)
        cover = self.cover_count
        for p in pts:
            cover[p] = cover.get(p, 0) + 1

    def _unregister_line(self, row: _Row) -> None:
        pts, _, _, off, line = row
        offs = self._line_offsets[line]
        offs.remove(off)
        if not offs:
            del self._line_offsets[line]
        cover = self.cover_count
        for p in pts:
            n = cover[p] - 1
            if n:
                cover[p] = n
            else:
                del cover[p]

    def _rebuild_legal(self) -> None:
        """Index every legal move from scratch: the constructors' slow path.

        A legal segment covers at least two crosses and is met through each.
        """
        self._legal = {}
        self._ordered = []
        for cross in self.crosses:
            self._enter_legal(cross, None)

    def check_invariants(self) -> None:
        """Full consistency audit; raises AssertionError on any mismatch.

        O(board size); meant for tests, not search loops.  Derives every
        expectation from the segment geometry, never from the shared tables.
        """
        alpha = self.variant.alpha
        assert self.crosses == set(self.initial) | {m.cross for m in self.moves}, (
            "crosses must be the initial set plus one per move"
        )
        lines = self.lines
        for m, seg in zip(self.moves, lines):
            assert m.cross in seg.points(), f"move {m} places its cross off its line"
        cover: dict[Point, int] = {}
        offsets: dict[tuple[Direction, int], list[int]] = {}
        for seg in lines:
            for p in seg.points():
                assert p in self.crosses, f"line {seg} covers empty point {p}"
                cover[p] = cover.get(p, 0) + 1
            offsets.setdefault((seg.direction, seg.key), []).append(seg.offset)
        assert cover == self.cover_count, "cover counts out of sync"
        assert {k: sorted(v) for k, v in offsets.items()} == self._line_offsets, (
            "line offsets out of sync"
        )
        limit = 1 if self.variant.touching_allowed else 0
        for i, a in enumerate(lines):
            for b in lines[i + 1 :]:
                rel = segment_relation(a, b)
                assert rel != OVERLAPPING, f"lines {a} and {b} overlap"
                if limit == 0:
                    assert rel != TOUCHING, f"lines {a} and {b} touch under the D rule"
        fresh: dict[Move, _Row] = {}
        for cross in self.crosses:
            for d in DIRECTIONS:
                for shift in range(alpha):
                    seg = segment_through(d, cross, shift, alpha)
                    empty = [p for p in seg.points() if p not in self.crosses]
                    if len(empty) == 1 and not conflicts(
                        self._line_offsets, self._reach, d, seg.key, seg.offset
                    ):
                        line = (d, seg.key)
                        row = (seg.points(), d, seg.key, seg.offset, line)
                        fresh[Move(empty[0], d, seg.anchor)] = row
        assert fresh == self._legal, "incremental legal index diverged from rebuild"
        assert self._ordered == sorted(fresh), "sorted legal moves diverged from rebuild"


def replay(record: GameRecord, board: Board | None = None) -> Board:
    """Apply the record's moves from the initial board for its variant.

    Raises :class:`IllegalMoveError` carrying the 1-based index of the first
    illegal move; no partial board escapes on failure.
    """
    if board is None:
        board = Board(record.variant)
    for i, move in enumerate(record.moves, start=1):
        try:
            board.apply(move)
        except IllegalMoveError as exc:
            raise IllegalMoveError(exc.reason, move, index=i) from None
    return board
