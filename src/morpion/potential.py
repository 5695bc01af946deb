"""Potential analysis for the length-5 disjoint rule.

The potential of a cross is the number of further lines that can still cover
it: 4 minus the number of placed lines through it.  Under the 5D rule every
move adds one cross worth 4 and covers five crosses each by a new line, so
the board total drops by exactly 1 per move from its initial 144.  Bounding
the total from below at (or near) the end of the game bounds the score from
above; ``potential_bound`` evaluates that argument and ``PUBLISHED_BOUNDS``
lists the four parameter triples with published consequences (141, 138, 137,
136).

``verify_record`` tests the argument's ingredient facts on a concrete game:
the total is 144 - N after every move, at least 4 before every move, and a
finished game keeps at least 7 on its last three crosses
(``check_terminal_lemma``).  The potential checks are gated to 5D: the same
formula evaluates on 5T boards, but none of the invariants are claimed there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Board, GameRecord, IllegalMoveError
from .geometry import FIVE_D, Point

#: Total potential of the standard 5D start: 36 crosses worth 4 each.
INITIAL_POTENTIAL = 144
#: Least total potential of a 5D board that still has a move to make.
PRE_MOVE_FLOOR = 4


@dataclass(frozen=True)
class PotentialReport:
    """Per-cross and total potential of one board snapshot.

    ``recent`` holds the potentials of the history's placed crosses in move
    order, so ``last_k_sum(3)`` is the quantity the terminal lemma bounds.
    """

    per_cross: dict[Point, int]
    total: int
    recent: tuple[int, ...]

    def last_k_sum(self, k: int) -> int:
        if k < 0 or k > len(self.recent):
            raise ValueError(f"k={k} out of range for a {len(self.recent)}-move history")
        return sum(self.recent[len(self.recent) - k :])


@dataclass(frozen=True)
class BoundDerivation:
    """One potential-argument instantiation: bound = p0 - terminal_floor + lookback."""

    initial_potential: int
    terminal_floor: int
    lookback: int

    @property
    def bound(self) -> int:
        return potential_bound(self.initial_potential, self.terminal_floor, self.lookback)


def potential_report(board: Board) -> PotentialReport:
    """Potentials of every cross plus the history crosses' values.

    Rule-agnostic computation; the 144 - N total identity holds only for 5D.
    """
    per_cross = {c: 4 - board.cover_count.get(c, 0) for c in board.crosses}
    recent = tuple(per_cross[m.cross] for m in board.moves)
    return PotentialReport(per_cross, sum(per_cross.values()), recent)


def potential_bound(p0: int, terminal_floor: int, lookback: int) -> int:
    """Score bound from: total potential is p0 - N, and it is at least
    ``terminal_floor`` already ``lookback`` moves before the game ends."""
    if p0 < 0 or terminal_floor < 0 or lookback < 0:
        raise ValueError("potential_bound arguments must be nonnegative")
    return p0 - terminal_floor + lookback


#: The four published potential-argument instantiations for 5D, strongest last.
PUBLISHED_BOUNDS: tuple[BoundDerivation, ...] = (
    BoundDerivation(INITIAL_POTENTIAL, PRE_MOVE_FLOOR, 1),
    BoundDerivation(INITIAL_POTENTIAL, 6, 0),
    BoundDerivation(INITIAL_POTENTIAL, 7, 0),
    BoundDerivation(INITIAL_POTENTIAL, 9, 1),
)


def check_terminal_lemma(board: Board) -> tuple[bool, tuple[int, int, int]]:
    """On a finished 5D game, the last three placed crosses keep total
    potential at least 7.

    Returns the check plus the three potentials (in move order) as witness.
    A False result on an engine-generated game indicates an engine bug; the
    only way to see False is a board built with legality checks bypassed.
    """
    if board.variant != FIVE_D:
        raise ValueError(f"potential monitors are defined for 5D, not {board.variant.name}")
    if board.has_legal_moves():
        raise ValueError("terminal lemma applies to finished games only")
    if len(board.moves) < 3:
        raise ValueError("terminal lemma needs a history of at least 3 moves")
    report = potential_report(board)
    witness = tuple(report.recent[-3:])
    return (sum(witness) >= 7, witness)  # type: ignore[return-value]


class MonitorFailure(Exception):
    """A record failed the :func:`verify_record` check named by ``check``."""

    def __init__(self, check: str, detail: str):
        super().__init__(detail)
        self.check = check


@dataclass(frozen=True)
class Verification:
    """A verified record's final cross and line counts, total potential (None
    off 5D) and terminal lemma witness (None while legal moves remain)."""

    crosses: int
    lines: int
    potential: int | None
    terminal: tuple[int, int, int] | None


def verify_record(record: GameRecord) -> Verification:
    """Replay ``record`` legally under the 5D potential monitors; raise
    :class:`MonitorFailure` at the first failure.

    The final board must hold one cross per move beyond the initial ones, and
    its cover counts must sum to ``alpha`` points per move.

    Each 5D position gets one :func:`potential_report`: its total must be
    144 - N after N moves and at least 4 before each recorded move.  It is
    recomputed from the cover counts, not updated per move, so a count
    corrupted anywhere on the board is caught, not only where a move lands.
    A finished 5D game must also pass :func:`check_terminal_lemma`.
    """
    board = Board(record.variant)
    monitored = record.variant == FIVE_D
    total = _checked_total(board) if monitored else None
    for i, move in enumerate(record.moves, start=1):
        if monitored and total < PRE_MOVE_FLOOR:
            raise MonitorFailure("pre-move floor", f"total < {PRE_MOVE_FLOOR} before move {i}")
        try:
            board.apply(move)
        except IllegalMoveError as exc:
            raise MonitorFailure("replay", str(exc)) from None
        if monitored:
            total = _checked_total(board)
    n = len(record.moves)
    covered = sum(board.cover_count.values())
    if covered != record.variant.alpha * n or len(board.crosses) != len(board.initial) + n:
        raise MonitorFailure(
            "fact", f"crosses={len(board.crosses)} covered={covered} for N={n}"
        )
    terminal = None
    if monitored and not board.has_legal_moves():
        ok, terminal = check_terminal_lemma(board)
        if not ok:
            raise MonitorFailure("terminal lemma", f"last three cross potentials {terminal}")
    return Verification(len(board.crosses), n, total, terminal)


def _checked_total(board: Board) -> int:
    """The board's total potential, after checking it is 144 - N."""
    total = potential_report(board).total
    n = board.score
    if total != INITIAL_POTENTIAL - n:
        raise MonitorFailure("potential", f"total != {INITIAL_POTENTIAL}-{n} after move {n}")
    return total
