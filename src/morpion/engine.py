"""Move legality, move generation, apply/undo, and replay.

A move places one cross on an empty point and draws a line of ``alpha``
consecutive lattice points through it; the other ``alpha - 1`` points must
already bear crosses.  Same-direction lines must be disjoint under the D rule
and may share at most one point under the T rule.

The board keeps an incremental index of legal moves.  A segment is a legal
line exactly when it covers one empty point and conflicts with no placed
same-direction line (:func:`~morpion.geometry.conflicts`, the package's one
conflict test, over the board's sorted anchor offsets per lattice line), so
applying a move can only

* invalidate segments whose empty point was just filled,
* invalidate segments now conflicting with the drawn line (same direction,
  same lattice line, nearby offset), and
* validate segments covering the new cross that previously had two empty
  points.

All three groups are local to the move.  Their geometry comes from segment
tables held per line length and shared by every board in the process:

* for a point, the ``4 * alpha`` segments through it, each with its points,
  direction, line key and offset;
* for a drawn line, the same-direction segments in its conflict window under
  the D rule and under the T rule, sized by
  :func:`~morpion.geometry.conflict_reach`.

The tables fill lazily, on the first use of a point or line.  They gain
rows only for points that receive a cross or anchor a placed line, through
the constructors or a legal :meth:`Board.apply` (an illegal move is rejected
before any lookup), and windows only for drawn lines, so their size is
bounded by the points that boards in the process have covered.

``apply``, ``undo`` and the legal-index rebuild read only from the tables.
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
    point_at,
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


# (segment, its points, direction, line key, offset)
_Row = tuple[Segment, tuple[Point, ...], Direction, int, int]


class _Geometry:
    """Segment tables for one line length; each lookup fills what it misses.

    :meth:`through` gives the rows of the segments covering a point in
    (direction, shift) order, :meth:`row` the row of one segment, and
    :meth:`window` the same-direction segments that a drawn line rules out
    under the D or T rule, the line itself included, in offset order.
    """

    __slots__ = ("alpha", "by_point", "by_segment", "windows")

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.by_point: dict[Point, tuple[_Row, ...]] = {}
        self.by_segment: dict[Segment, _Row] = {}
        self.windows: tuple[dict[Segment, tuple[Segment, ...]], ...] = ({}, {})

    def through(self, point: Point) -> tuple[_Row, ...]:
        rows = self.by_point.get(point)
        if rows is None:
            alpha = self.alpha
            found = []
            for d in DIRECTIONS:
                for shift in range(alpha):
                    seg = segment_through(d, point, shift, alpha)
                    row = self.by_segment.get(seg)
                    if row is None:
                        row = (seg, seg.points(), d, seg.key, seg.offset)
                        self.by_segment[seg] = row
                    found.append(row)
            rows = self.by_point[point] = tuple(found)
        return rows

    def row(self, seg: Segment) -> _Row:
        row = self.by_segment.get(seg)
        if row is None:
            self.through(seg.anchor)
            row = self.by_segment[seg]
        return row

    def window(self, row: _Row, touching: bool) -> tuple[Segment, ...]:
        table = self.windows[touching]
        seg, _, d, key, off = row
        out = table.get(seg)
        if out is None:
            reach = conflict_reach(self.alpha, touching)
            out = table[seg] = tuple(
                Segment(d, point_at(d, key, o), self.alpha)
                for o in range(off - reach, off + reach + 1)
            )
        return out


# one per line length, shared by every board in the process; a row depends
# only on the lattice, so the order in which boards fill the tables is moot
_GEOMETRY: dict[int, _Geometry] = {}


def _geometry(alpha: int) -> _Geometry:
    geo = _GEOMETRY.get(alpha)
    if geo is None:
        geo = _GEOMETRY[alpha] = _Geometry(alpha)
    return geo


class Board:
    """Mutable game state with an incrementally maintained legal-move index.

    Single-writer: never mutate one board from two threads.  ``copy`` is the
    supported way to fan out.
    """

    __slots__ = (
        "variant",
        "initial",
        "crosses",
        "moves",
        "lines",
        "cover_count",
        "_geo",
        "_reach",
        "_line_offsets",
        "_legal",
        "_trail",
    )

    def __init__(self, variant: Variant, crosses: Iterable[Point] | None = None):
        self.variant = variant
        if crosses is None:
            self.initial = initial_crosses(variant.alpha)
        else:
            self.initial = frozenset(crosses)
        self.crosses: set[Point] = set(self.initial)
        self.moves: list[Move] = []
        self.lines: list[Segment] = []
        # lines covering each point; absent means zero
        self.cover_count: dict[Point, int] = {}
        self._geo = _geometry(variant.alpha)
        self._reach = conflict_reach(variant.alpha, variant.touching_allowed)
        # (direction, line_key) -> sorted anchor offsets of placed lines
        self._line_offsets: dict[tuple[Direction, int], list[int]] = {}
        # legal segment -> the move that draws it
        self._legal: dict[Segment, Move] = {}
        self._trail: list[tuple] = []
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
        alpha = variant.alpha
        for move in moves:
            seg = move.segment(alpha)
            board.crosses.add(move.cross)
            board._register_line(board._geo.row(seg))
            board.lines.append(seg)
            board.moves.append(move)
        board._rebuild_legal()
        return board

    # -- queries ---------------------------------------------------------

    @property
    def score(self) -> int:
        return len(self.moves)

    def legal_moves(self) -> list[Move]:
        """All legal moves, canonically sorted by (cross, direction, anchor)."""
        return sorted(self._legal.values())

    def has_legal_moves(self) -> bool:
        return bool(self._legal)

    def is_legal(self, move: Move) -> tuple[bool, str | None]:
        """Legality plus the first violated clause (None when legal)."""
        reason = self.legality_failure(move)
        return (reason is None, reason)

    def legality_failure(self, move: Move) -> str | None:
        seg = move.segment(self.variant.alpha)
        if self._legal.get(seg) == move:
            return None
        if move.cross in self.crosses:
            return f"(a): point {move.cross[0]},{move.cross[1]} already bears a cross"
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

    def state_key(self) -> tuple[frozenset, frozenset]:
        """Hashable identity of the position (move order forgotten)."""
        return (
            frozenset(m.cross for m in self.moves),
            frozenset((m.direction, m.anchor) for m in self.moves),
        )

    # -- mutation --------------------------------------------------------

    def apply(self, move: Move) -> "Board":
        seg = Segment(move.direction, move.anchor, self.variant.alpha)
        legal = self._legal
        if legal.get(seg) != move:
            reason = self.legality_failure(move)
            raise IllegalMoveError(reason or "not currently legal", move)

        geo = self._geo
        cross = move.cross
        through = geo.through(cross)
        line = geo.row(seg)
        removed: list[tuple[Segment, Move]] = []

        # segments through the cross, whose single empty point was just
        # filled, then segments conflicting with the drawn line
        for row in through:
            old = legal.pop(row[0], None)
            if old is not None:
                removed.append((row[0], old))
        for cand in geo.window(line, self.variant.touching_allowed):
            old = legal.pop(cand, None)
            if old is not None:
                removed.append((cand, old))

        self.crosses.add(cross)
        self._register_line(line)
        self.lines.append(seg)
        self.moves.append(move)
        added = self._enter_legal(through)
        self._trail.append((move, line, removed, added))
        return self

    def undo(self) -> "Board":
        if not self._trail:
            raise IndexError("undo on a board with no moves")
        move, line, removed, added = self._trail.pop()
        legal = self._legal
        for cand in added:
            del legal[cand]
        self._unregister_line(line)
        self.lines.pop()
        self.moves.pop()
        self.crosses.discard(move.cross)
        for cand, old in removed:
            legal[cand] = old
        return self

    def copy(self) -> "Board":
        clone = object.__new__(Board)
        clone.variant = self.variant
        clone.initial = self.initial
        clone.crosses = set(self.crosses)
        clone.moves = list(self.moves)
        clone.lines = list(self.lines)
        clone.cover_count = dict(self.cover_count)
        clone._geo = self._geo
        clone._reach = self._reach
        clone._line_offsets = {k: list(v) for k, v in self._line_offsets.items()}
        clone._legal = dict(self._legal)
        clone._trail = list(self._trail)
        return clone

    # -- internals -------------------------------------------------------

    def _enter_legal(self, rows: Iterable[_Row]) -> list[Segment]:
        """Index the segments among ``rows`` that are now legal; return them.

        A segment is legal when exactly one of its points is empty and it
        conflicts with no placed same-direction line.
        """
        crosses = self.crosses
        legal = self._legal
        offsets = self._line_offsets
        reach = self._reach
        entered = []
        for seg, pts, d, key, off in rows:
            empty = None
            for p in pts:
                if p not in crosses:
                    if empty is not None:
                        break
                    empty = p
            else:
                if empty is not None and not conflicts(offsets, reach, d, key, off):
                    legal[seg] = Move(empty, d, seg.anchor)
                    entered.append(seg)
        return entered

    def _register_line(self, row: _Row) -> None:
        _, pts, d, key, off = row
        bisect.insort(self._line_offsets.setdefault((d, key), []), off)
        cover = self.cover_count
        for p in pts:
            cover[p] = cover.get(p, 0) + 1

    def _unregister_line(self, row: _Row) -> None:
        _, pts, d, key, off = row
        offs = self._line_offsets[d, key]
        offs.remove(off)
        if not offs:
            del self._line_offsets[d, key]
        cover = self.cover_count
        for p in pts:
            n = cover[p] - 1
            if n:
                cover[p] = n
            else:
                del cover[p]

    def _rebuild_legal(self) -> None:
        self._legal.clear()
        geo = self._geo
        for cross in self.crosses:
            self._enter_legal(geo.through(cross))

    def check_invariants(self) -> None:
        """Full consistency audit; raises AssertionError on any mismatch.

        O(board size); meant for tests, not search loops.  Derives every
        expectation from the segment geometry, never from the shared tables.
        """
        alpha = self.variant.alpha
        assert self.crosses == set(self.initial) | {m.cross for m in self.moves}, (
            "crosses must be the initial set plus one per move"
        )
        assert len(self.lines) >= len(self.moves), "one line per move"
        if self.moves:
            played = self.lines[-len(self.moves) :]
            assert played == [m.segment(alpha) for m in self.moves], (
                "line list out of step with move history"
            )
        cover: dict[Point, int] = {}
        offsets: dict[tuple[Direction, int], list[int]] = {}
        for seg in self.lines:
            assert seg.length == alpha, f"line {seg} has wrong length"
            for p in seg.points():
                assert p in self.crosses, f"line {seg} covers empty point {p}"
                cover[p] = cover.get(p, 0) + 1
            offsets.setdefault((seg.direction, seg.key), []).append(seg.offset)
        assert cover == self.cover_count, "cover counts out of sync"
        assert {k: sorted(v) for k, v in offsets.items()} == self._line_offsets, (
            "line offsets out of sync"
        )
        limit = 1 if self.variant.touching_allowed else 0
        for i, a in enumerate(self.lines):
            for b in self.lines[i + 1 :]:
                rel = segment_relation(a, b)
                assert rel != OVERLAPPING, f"lines {a} and {b} overlap"
                if limit == 0:
                    assert rel != TOUCHING, f"lines {a} and {b} touch under the D rule"
        fresh: dict[Segment, Move] = {}
        for cross in self.crosses:
            for d in DIRECTIONS:
                for shift in range(alpha):
                    seg = segment_through(d, cross, shift, alpha)
                    empty = [p for p in seg.points() if p not in self.crosses]
                    if len(empty) == 1 and not conflicts(
                        self._line_offsets, self._reach, d, seg.key, seg.offset
                    ):
                        fresh[seg] = Move(empty[0], d, seg.anchor)
        assert fresh == self._legal, "incremental legal index diverged from rebuild"


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
