"""Move legality, move generation, apply/undo, and replay.

A move places one cross on an empty point and draws a line of ``alpha``
consecutive lattice points through it; the other ``alpha - 1`` points must
already bear crosses.  Same-direction lines must be disjoint under the D rule
and may share at most one point under the T rule.  So a segment is a legal
line exactly when it covers one empty point and passes
:func:`~morpion.geometry.conflicts` over the board's sorted anchor offsets
per lattice line, which :func:`~morpion.geometry.place_line` and
``lift_line`` keep with the cover counts.  A segment's row is (points,
anchor offset, (direction, line key)).

The legal-move index is built on first read: by ``legal_moves``,
``legal_count``, ``has_legal_moves``, ``apply_at`` or ``check_invariants``.
Until then (a replay, ``Board(variant, crosses)``, ``Board.force``),
:meth:`Board.apply` tests a move with the one direct check,
:meth:`Board.legality_failure`, on the move's row: its shared index
entry's row (below) when some index has listed the move, else the row that
:func:`~morpion.geometry.line_row` builds.  The check reads the shared
entries and never writes them, so it interns no point and adds no entry.
The index is one list of ``(move, row)`` entries, strictly increasing in
the canonical move order, so ``legal_moves`` reads it off with no sort.
``apply`` finds a move by bisection and ``apply_at`` takes the ``i``-th
entry; with no index, ``apply`` pairs the move with its checked row.  One
body, ``_play``, applies either, with or without an index; on an indexed
board it filters the parent's list into a new one (dropping the moves whose
one empty point is the new cross and the moves the drawn line conflicts
with) and inserts the moves the new cross makes legal.  A published list is
never mutated: the undo trail keeps, per move, the parent's list (``None``
before the index was built) and the move's row, which ``undo`` restores and
lifts, and ``copy`` shares the lists.  ``Board.force`` plays through
``_play`` too, unchecked, so a forced move can be undone like any other.
``Board(variant)`` copies one start board per variant and process;
``replay`` starts from ``Board(variant, crosses)``.

Replay snapshot: :func:`replay`, and nothing else, sets a record's private
``_replayed`` to its ``(variant, tuple(moves))`` once its last move passes.
:func:`ensure_legal`, which ``recordio.render`` calls, replays a record
only when that snapshot differs from the record's current variant and
moves, so a record never replayed, or changed since, is checked again and
fails with its 1-based move index.  A record from
``parse_record(validate=True)``, or a search result the bound guard
replayed, renders with no further replay.  The snapshot belongs to its
record alone.

A move can only make legal the segments through its cross that had two
empty points.  Along each direction, the cross flags of the cross's
``2 * alpha - 2`` neighbours form a pattern of 0s and 1s, which fixes the
windows it leaves with one empty point.  One :class:`_Geometry` per line
length, shared by every board in the process, maps a point to, per
direction, an ``operator.itemgetter`` of the neighbours' ids and an
:class:`_Entries` table from each pattern to its index entries.  Each move
has one entry object, built with its row from ``line_row`` the first time
a pattern makes it, and every index, rebuilt ones included, holds those
objects.  An entry depends on nothing but the lattice, so undo has nothing
to reverse in it.  Each indexed board keeps a ``bytearray`` of cross flags
at the interned ids: ``apply`` and ``undo`` store one byte, a pattern is
one C-level gather, and the flags grow to the current ids before each
read.  The tables fill on first use of a point or pattern, and only the
index fills them, so they are bounded by the crosses of indexed boards and
the patterns around them.

:meth:`Board.check_invariants` is the independent reference: it derives
every segment from :func:`~morpion.geometry.segment_through` and checks the
placed lines pairwise with :func:`~morpion.geometry.segment_relation`.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import itemgetter
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
    lift_line,
    line_row,
    place_line,
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
    """A full game: variant, move sequence, free-form annotations.

    ``_replayed`` is the replay snapshot: the ``(variant, tuple(moves))``
    that :func:`replay` last found legal, written by it alone.  ``render``
    replays the record when the snapshot differs from its current variant
    and moves.  It is no constructor argument and takes no part in
    ``repr`` or ``==``.
    """

    variant: Variant
    moves: list[Move] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)
    _replayed: tuple[Variant, tuple[Move, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )


# a segment: (its points from the anchor, anchor offset, (direction, line key))
_Row = tuple[tuple[Point, ...], int, tuple[Direction, int]]
# a legal-move index entry; a list of them sorts by move, the canonical order
_Entry = tuple["Move", _Row]
# a point along one direction: (direction, a getter of its neighbours' cross
# flags as one pattern, the table from each pattern to its index entries)
_Around = tuple[Direction, itemgetter, "_Entries"]

_move_of = itemgetter(0)


class _Entries(dict):
    """Neighbour pattern -> the index entries it makes along one direction
    through one point.

    ``line`` is the ``2 * alpha - 1`` points ``alpha - 1`` steps or fewer
    from the point, in step order, the point in the middle; ``pattern[k]``
    is the cross flag of the ``k``-th of them other than the point.  Window
    ``i`` covers ``line[i : i + alpha]``, neighbours ``i`` to
    ``i + alpha - 2``; a pattern maps to one entry per window with exactly
    one empty neighbour, the move's cross, in increasing ``i``, taken from
    ``shared`` or built there.
    """

    __slots__ = ("direction", "line", "shared")

    def __init__(self, direction: Direction, line: tuple[Point, ...], shared: dict["Move", _Entry]):
        super().__init__()
        self.direction = direction
        self.line = line
        self.shared = shared

    def __missing__(self, pattern: tuple[int, ...]) -> tuple[_Entry, ...]:
        d = self.direction
        line = self.line
        alpha = len(line) // 2 + 1
        shared = self.shared
        found = []
        for i in range(alpha):
            empty = [k for k in range(i, i + alpha - 1) if not pattern[k]]
            if len(empty) == 1:
                k = empty[0]
                move = Move(line[k if k < alpha - 1 else k + 1], d, line[i])
                entry = shared.get(move)
                if entry is None:
                    entry = shared[move] = (move, line_row(d, line[i], alpha))
                found.append(entry)
        entries = self[pattern] = tuple(found)
        return entries


class _Geometry(dict):
    """Point -> per direction, in ``Direction`` order: the direction, the
    getter of the point's neighbour pattern and its :class:`_Entries` table.
    The first read of a point interns it and its neighbours."""

    __slots__ = ("alpha", "ids", "entries")

    def __init__(self, alpha: int):
        super().__init__()
        self.alpha = alpha
        # point -> its index in every board's cross flags, in order of first use
        self.ids: dict[Point, int] = {}
        # move -> its one legal-move index entry, whichever table made it
        self.entries: dict[Move, _Entry] = {}

    def __missing__(self, point: Point) -> tuple[_Around, ...]:
        alpha = self.alpha
        ids = self.ids
        x, y = point
        per_direction = []
        for d in DIRECTIONS:
            sx, sy = d.step
            line = tuple([(x + t * sx, y + t * sy) for t in range(1 - alpha, alpha)])
            for p in line:
                ids.setdefault(p, len(ids))
            gather = itemgetter(*[ids[p] for p in line if p != point])
            per_direction.append((d, gather, _Entries(d, line, self.entries)))
        found = self[point] = tuple(per_direction)
        return found


# one per line length, shared by every board in the process
_geometry = functools.cache(_Geometry)


@functools.cache
def _start(variant: Variant) -> "Board":
    """The standard start of ``variant``, indexed, built once per process and only copied."""
    start = Board(variant, initial_crosses(variant.alpha))
    start._index()
    return start


class Board:
    """Mutable game state, from the variant's standard crosses (index
    included) or from ``crosses`` (no index).  Single-writer: ``copy`` is
    the supported way to fan out."""

    __slots__ = (
        "variant",
        "initial",
        "crosses",
        "moves",
        "cover_count",
        "_geo",
        "_reach",
        "_line_offsets",
        "_flags",
        "_legal",
        "_trail",
    )

    def __init__(self, variant: Variant, crosses: Iterable[Point] | None = None):
        if crosses is None:
            self._copy_from(_start(variant))
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
        # while the legal index is built: 1 at the geometry's id of each
        # cross, 0 elsewhere; as long as the ids were when the board last
        # entered a cross
        self._flags = bytearray()
        # (legal move, its segment's row) in canonical move order, None until
        # something reads it; replaced, never mutated, once published
        self._legal: list[_Entry] | None = None
        # per move: the legal list before it (None before the index was
        # built) and the row of its segment
        self._trail: list[tuple[list[_Entry] | None, _Row]] = []

    @classmethod
    def force(
        cls,
        variant: Variant,
        moves: Iterable[Move],
        crosses: Iterable[Point] = (),
    ) -> "Board":
        """Build a board by playing ``moves`` through ``_play`` with every
        legality check bypassed, for the analysis monitors on rule-violating
        positions; a forced move can be undone like any other."""
        board = cls(variant, crosses)
        for move in moves:
            board._play((move, line_row(move.direction, move.anchor, variant.alpha)))
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
        return list(map(_move_of, self._index()))

    def has_legal_moves(self) -> bool:
        return bool(self._index())

    def legal_count(self) -> int:
        """``len(legal_moves())``, without building the list."""
        return len(self._index())

    def legality_failure(self, move: Move) -> str | None:
        """The first violated clause, or None when the move is legal."""
        try:
            self._checked_row(move)
        except IllegalMoveError as exc:
            return exc.reason
        return None

    def state_key(self) -> frozenset[tuple[Direction, Point]]:
        """The position's lines as ``(direction, anchor)``, move order
        forgotten: each move's cross lies on its own line, so the crosses are
        the initial ones plus the points the lines cover."""
        return frozenset((m.direction, m.anchor) for m in self.moves)

    # -- mutation --------------------------------------------------------

    def apply(self, move: Move) -> "Board":
        legal = self._legal
        if legal is not None:
            i = bisect_left(legal, (move,))
            if i < len(legal) and legal[i][0] == move:
                return self._play(legal[i])
        # with no index, the move's own segment; the index holds every legal
        # move, so on an indexed board this check raises
        return self._play((move, self._checked_row(move)))

    def apply_at(self, i: int) -> "Board":
        """Apply ``legal_moves()[i]`` without building the list; ``i`` must be
        in ``range(len(legal_moves()))``, or ``IndexError`` is raised."""
        legal = self._index()
        if not 0 <= i < len(legal):
            raise IndexError(f"move index {i} out of range for {len(legal)} legal moves")
        return self._play(legal[i])

    def _play(self, entry: _Entry) -> "Board":
        """Apply ``entry``'s move, keeping the index when there is one."""
        move, row = entry
        cross = move.cross
        legal = self._legal
        self._trail.append((legal, row))
        self.crosses.add(cross)
        place_line(self._line_offsets, self.cover_count, row)
        self.moves.append(move)
        if legal is not None:
            _, off, line = row
            reach = self._reach
            # drop the moves whose one empty point is the new cross, this one
            # included, and those the drawn line conflicts with
            child = self._legal = [
                e
                for e in legal
                if e[0][0] != cross and (e[1][2] != line or abs(e[1][1] - off) > reach)
            ]
            self._flags[self._geo.ids[cross]] = 1
            for e in self._enter_legal(cross, move.direction):
                insort(child, e)
        return self

    def undo(self) -> "Board":
        if not self._trail:
            raise IndexError("undo with no move to undo")
        self._legal, row = self._trail.pop()
        move = self.moves.pop()
        if self._legal is not None:
            self._flags[self._geo.ids[move.cross]] = 0
        lift_line(self._line_offsets, self.cover_count, row)
        self.crosses.discard(move.cross)
        return self

    def copy(self) -> "Board":
        clone = object.__new__(Board)
        clone._copy_from(self)
        return clone

    # -- internals -------------------------------------------------------

    def _checked_row(self, move: Move) -> _Row:
        """The row of ``move``'s segment, its shared entry's if it has one,
        once the move passes the rules; else raise :class:`IllegalMoveError`
        naming the first violated clause."""
        cross, d, anchor = move
        crosses = self.crosses
        if cross in crosses:
            raise IllegalMoveError(f"(a): point {cross[0]},{cross[1]} already bears a cross", move)
        entry = self._geo.entries.get(move)
        row = entry[1] if entry is not None else line_row(d, anchor, self.variant.alpha)
        pts = row[0]
        if cross not in pts:
            raise IllegalMoveError("(b): line does not cover the placed cross", move)
        for p in pts:
            if p != cross and p not in crosses:
                raise IllegalMoveError(f"(c): point {p[0]},{p[1]} empty", move)
        if conflicts(self._line_offsets, self._reach, row[2], row[1]):
            kind = "touches" if not self.variant.touching_allowed else "overlaps"
            raise IllegalMoveError(f"(d): line {kind} an existing same-direction line", move)
        return row

    def _index(self) -> list[_Entry]:
        """The legal-move index, built on the first read."""
        if self._legal is None:
            self._rebuild_legal()
        return self._legal

    def _copy_from(self, other: "Board") -> None:
        self.variant = other.variant
        self.initial = other.initial
        self.crosses = set(other.crosses)
        self.moves = list(other.moves)
        self.cover_count = dict(other.cover_count)
        self._geo = other._geo
        self._reach = other._reach
        self._line_offsets = {k: list(v) for k, v in other._line_offsets.items()}
        self._flags = other._flags.copy()
        self._legal = other._legal
        self._trail = list(other._trail)

    def _enter_legal(self, cross: Point, drawn: Direction | None) -> list[_Entry]:
        """The legal moves through the cross at ``cross``, as index entries,
        read from the flags, which must flag every cross.  Under the D rule
        no window along ``drawn``, a line just drawn through ``cross``, is
        tested: each shares the cross with that line."""
        skip = None if self.variant.touching_allowed else drawn
        geo = self._geo
        around = geo[cross]
        flags = self._flags
        grow = len(geo.ids) - len(flags)
        if grow > 0:
            flags.extend(bytes(grow))
        found = []
        offsets = self._line_offsets
        reach = self._reach
        for d, gather, table in around:
            if d is skip:
                continue
            for e in table[gather(flags)]:
                row = e[1]
                if not conflicts(offsets, reach, row[2], row[1]):
                    found.append(e)
        return found

    def _rebuild_legal(self) -> None:
        """Index every legal move from scratch.  A legal segment is met
        through each of its crosses, so the moves are gathered in a dict;
        every cross is flagged first, or it would read as empty."""
        geo = self._geo
        for cross in self.crosses:
            geo[cross]  # interns the cross
        ids = geo.ids
        flags = self._flags = bytearray(len(ids))
        for cross in self.crosses:
            flags[ids[cross]] = 1
        found = {e[0]: e for cross in self.crosses for e in self._enter_legal(cross, None)}
        self._legal = sorted(found.values())

    def check_invariants(self) -> None:
        """Full consistency audit, for tests; raises AssertionError on any
        mismatch.  The cross flags are checked through the interned ids, and
        the lines and index against the segment geometry alone."""
        legal = self._index()
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
        assert len(self._trail) == len(self.moves), "undo trail out of sync"
        for (parent, row), m, seg in zip(self._trail, self.moves, lines):
            assert row == (seg.points(), seg.offset, (seg.direction, seg.key)), (
                f"trail row of move {m} out of sync"
            )
            assert parent is None or m in map(_move_of, parent), f"trail list lacks move {m}"
        ids = self._geo.ids
        flags = bytearray(len(self._flags))
        for p in self.crosses:
            i = ids.get(p)
            assert i is not None and i < len(flags), f"cross {p} has no flag"
            flags[i] = 1
        assert flags == self._flags, "cross flags out of sync"
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
                    line = (d, seg.key)
                    if len(empty) == 1 and not conflicts(
                        self._line_offsets, self._reach, line, seg.offset
                    ):
                        fresh[Move(empty[0], d, seg.anchor)] = (seg.points(), seg.offset, line)
        assert all(a[0] < b[0] for a, b in zip(legal, legal[1:])), (
            "legal index out of canonical order"
        )
        assert dict(legal) == fresh, "incremental legal index diverged from rebuild"


def replay(record: GameRecord) -> Board:
    """Apply the record's moves, unindexed, to a fresh board from the
    variant's initial crosses; once the last move passes, set the record's
    replay snapshot to its ``(variant, tuple(moves))``, which ``render``
    then trusts until either changes.

    Raises :class:`IllegalMoveError` carrying the 1-based index of the first
    illegal move; no partial board escapes on failure.
    """
    board = Board(record.variant, _start(record.variant).initial)
    for i, move in enumerate(record.moves, start=1):
        try:
            board.apply(move)
        except IllegalMoveError as exc:
            raise IllegalMoveError(exc.reason, move, index=i) from None
    record._replayed = (record.variant, tuple(record.moves))
    return board


def ensure_legal(record: GameRecord) -> None:
    """Replay ``record``, raising as :func:`replay` does, unless its replay
    snapshot equals its current variant and moves."""
    if record._replayed != (record.variant, tuple(record.moves)):
        replay(record)


def counts_match(board: Board, n: int) -> bool:
    """Whether ``board`` holds ``n`` crosses beyond its initial ones and ``alpha * n`` covers."""
    covered = sum(board.cover_count.values())
    return len(board.crosses) == len(board.initial) + n and covered == board.variant.alpha * n
