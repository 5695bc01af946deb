"""Search harnesses: exhaustive solving, random playouts, beam search, NMCS.

Everything here is deterministic given its seed: randomness comes from
``rng.rng_stream(seed, stream)``, and a playout sweep plays game i on
stream i, so its result does not depend on its worker count.  Budgets are
expressed in nodes.  A node is one (position, move) pair a search
examines, which each strategy meets its own way: the beam
counts the deduplicated candidates of each level it expands, NMCS counts
each candidate move it tries and each playout move (not the moves of the
line it then follows), the exhaustive solver counts each child it examines,
whether its transposition table answers it or the move is applied, and
random playouts and sweeps count the moves their games play.  Wall-clock
budgets are honored but a run that stops on time rather than nodes is not
guaranteed to be reproducible.  A negative or NaN node or time budget, a
negative seed, an NMCS level that is not a nonnegative integer, or line
length 3 (3D/3T games can go on without end) raises ``ValueError``.

Every record leaving this module from the standard start passes a bound
guard: it must replay legally to N plus the initial crosses (36 for 5D/5T,
48 for 6D/6T), with cover counts summing to alpha*N for its N lines, and a
5D record longer than ``FIVE_D_LINE_BOUND`` (121, the line-counting bound;
the potential bounds in ``potential.PUBLISHED_BOUNDS`` are all weaker)
fails hard since that can only mean an engine bug.  ``exhaustive_solve``
from a given ``board`` returns only the moves after it and skips the guard.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from numbers import Integral
from operator import itemgetter, or_
from typing import Callable

from .engine import Board, GameRecord, Move, counts_match, replay
from .geometry import Point, Variant, initial_crosses
from .rng import Stream, rng_stream

FIVE_D_LINE_BOUND = 121
DEFAULT_NODE_BUDGET = 10**8


@dataclass
class SearchResult:
    best_record: GameRecord
    nodes_expanded: int
    wall_time: float
    stopped_reason: str = "complete"  # | "node-budget" | "time-budget" | "stop-score"
    exact: bool = False

    @property
    def best_score(self) -> int:
        return len(self.best_record.moves)

    @property
    def complete(self) -> bool:
        return self.stopped_reason == "complete"


def _check_search(variant: Variant, node_budget: int = 0, time_budget: float | None = None) -> None:
    if variant.alpha == 3:
        raise ValueError(f"{variant.name} games can go on without end, so no search finishes")
    # written so that NaN fails too: no count or clock reading ever passes a
    # NaN budget
    if not node_budget >= 0:
        raise ValueError("node budget must be >= 0")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError("time budget must be >= 0")


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def check_record_bounds(record: GameRecord, board: Board | None = None) -> Board:
    """The guard every solver output passes; returns the replayed board.

    When ``board`` is given it is trusted as the record's final position and
    the replay is skipped (used on hot paths; returned results always get
    the full replay).
    """
    n = len(record.moves)
    if record.variant.alpha == 5 and not record.variant.touching_allowed:
        if n > FIVE_D_LINE_BOUND:
            raise AssertionError(
                f"engine bug: produced a {n}-move 5D game, above the proven maximum"
            )
    if board is None:
        board = replay(record)
    if not counts_match(board, n):
        raise AssertionError("engine bug: line/cross counts disagree with the move count")
    return board


def _result(
    variant: Variant, moves: list[Move], metadata: dict, nodes: int, t0: float, reason: str
) -> SearchResult:
    """A search's result from the standard start, its record once through
    the full-replay guard."""
    record = GameRecord(variant, list(moves), metadata)
    check_record_bounds(record)
    return SearchResult(record, nodes, time.perf_counter() - t0, reason)


# -- random playouts -------------------------------------------------------


def _playout(board: Board, rng: Stream, tick: Callable | None = None) -> Board:
    """Play uniformly random legal moves in place until none remain, calling
    ``tick(board)`` before each.

    Each step draws one position ``rng.integers(0, n)`` among the ``n`` legal
    moves in canonical order and applies the move there by position, so no
    step builds the move list or searches the index for the move.
    """
    while n := board.legal_count():
        if tick is not None:
            tick(board)
        board.apply_at(rng.integers(0, n))
    return board


def random_playout(variant: Variant, seed: int) -> GameRecord:
    """One uniformly random game, reproducible from the seed."""
    _check_search(variant)
    board = _playout(Board(variant), rng_stream(seed))
    record = GameRecord(variant, board.moves, {"strategy": "random", "seed": str(seed)})
    check_record_bounds(record)
    return record


def _sweep_chunk(
    variant: Variant, seed: int, lo: int, hi: int
) -> tuple[int, int, list[Move], int]:
    best_score, best_stream, best_moves, total = -1, -1, [], 0
    for stream in range(lo, hi):
        board = _playout(Board(variant), rng_stream(seed, stream))
        check_record_bounds(GameRecord(variant, board.moves), board)
        total += board.score
        if board.score > best_score:
            best_score, best_stream, best_moves = board.score, stream, list(board.moves)
    return best_score, best_stream, best_moves, total


def playout_sweep(
    variant: Variant, seed: int, playouts: int, workers: int = 1
) -> SearchResult:
    """Best of ``playouts`` random games on substreams 0..playouts-1.

    Playout i always runs on stream i, so the result is a pure function of
    (variant, seed, playouts) no matter how many workers share the sweep.
    Ties go to the lowest stream index.  At most one worker process runs
    per CPU available to this process.
    """
    _check_search(variant)
    if playouts < 1:
        raise ValueError("playouts must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, playouts, cpus or 1)
    t0 = time.perf_counter()
    chunks: list[tuple[int, int, list[Move], int]]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-playouts // workers)
        spans = [(lo, min(lo + step, playouts)) for lo in range(0, playouts, step)]
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            chunks = list(
                pool.map(
                    _sweep_chunk,
                    *zip(*[(variant, seed, lo, hi) for lo, hi in spans]),
                )
            )
    else:
        chunks = [_sweep_chunk(variant, seed, 0, playouts)]
    _, best_stream, best_moves, _ = max(chunks, key=lambda c: (c[0], -c[1]))
    metadata = {"strategy": "random", "seed": str(seed), "stream": str(best_stream)}
    return _result(variant, best_moves, metadata, sum(c[3] for c in chunks), t0, "complete")


# -- beam search ------------------------------------------------------------


def beam_search(
    variant: Variant,
    width: int = 64,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Level-synchronous beam ranked by a seeded jitter.

    Each level keeps the ``width`` candidates with the smallest jitter, so
    the beam explores a reproducible random sample of ``width`` lines.
    (Total potential would rank no better: with length-5 lines it is the
    same for every board at a given depth, since each move adds a
    4-potential cross and spends 5.)

    Duplicate positions within a level (the same lines via a different
    move order) are merged before selection.

    The result is the beam's first board when the search stops, on
    completion (no board has a move) or on the node budget.  Every board in
    the beam has the same depth, so the first is as deep as any board the
    search reached.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    _check_search(variant, node_budget)
    t0 = time.perf_counter()
    rng = rng_stream(seed)
    beam = [Board(variant)]
    nodes = 0
    reason = "complete"
    while True:
        candidates: list[tuple[float, int, Move]] = []
        seen: set[frozenset] = set()
        for bi, board in enumerate(beam):
            lines = board.state_key()
            for m in board.legal_moves():
                key = lines | {(m.direction, m.anchor)}
                if key in seen:
                    continue
                seen.add(key)
                candidates.append((rng.random(), bi, m))
        if not candidates:
            break
        candidates.sort(key=itemgetter(0))
        # a level is counted whole or not at all, so nodes never pass the budget
        if nodes + len(candidates) > node_budget:
            reason = "node-budget"
            break
        nodes += len(candidates)
        beam = [beam[bi].copy().apply(m) for _, bi, m in candidates[:width]]
    metadata = {"strategy": "beam", "seed": str(seed), "width": str(width)}
    return _result(variant, beam[0].moves, metadata, nodes, t0, reason)


def greedy(variant: Variant, seed: int = 0) -> SearchResult:
    """Width-1 beam: one jittered greedy line."""
    result = beam_search(variant, 1, seed)
    result.best_record.metadata["strategy"] = "greedy"
    return result


# -- nested Monte-Carlo search ----------------------------------------------


class _Nmcs:
    def __init__(
        self,
        variant: Variant,
        seed: int,
        node_budget: int,
        time_budget: float | None,
        stop_score: int | None,
    ):
        self.variant = variant
        self.rng = rng_stream(seed)
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.perf_counter() + time_budget
        self.stop_score = stop_score
        self.nodes = 0
        self.best_score = -1
        self.best_moves: list[Move] = []

    def tick(self, board: Board) -> None:
        """Count one move about to be applied to ``board``, or stop before it;
        until a game finishes, ``board`` is the deepest position reached, so a
        stop banks it then."""
        if self.nodes >= self.node_budget:
            reason = "node-budget"
        elif self.deadline is not None and time.perf_counter() > self.deadline:
            reason = "time-budget"
        else:
            self.nodes += 1
            return
        if self.best_score < 0:
            self._keep_if_best(board)
        raise _Stop(reason)

    def _keep_if_best(self, board: Board) -> None:
        """Bank the board's game if it beats the best so far."""
        if board.score > self.best_score:
            self.best_score = board.score
            self.best_moves = list(board.moves)
            check_record_bounds(GameRecord(self.variant, self.best_moves), board)

    def search(self, board: Board, level: int) -> None:
        """Memorized nested search: advance ``board`` to a terminal position
        and bank the game there."""
        if level == 0:
            _playout(board, self.rng, self.tick)
        else:
            line: list[Move] = []
            while moves := board.legal_moves():
                depth = len(board.moves)
                for m in moves:
                    self.tick(board)
                    probe = board.copy().apply(m)
                    self.search(probe, level - 1)
                    if probe.score > depth + len(line):
                        line = probe.moves[depth:]
                board.apply(line.pop(0))
        self._keep_if_best(board)
        # every earlier bank was followed by this test or by a stop
        if self.stop_score is not None and self.best_score >= self.stop_score:
            raise _Stop("stop-score")


def nmcs(
    variant: Variant,
    level: int = 1,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    stop_score: int | None = None,
) -> SearchResult:
    """Nested Monte-Carlo search with memorization.

    Level 0 is a bare playout.  At level L, each legal move is evaluated by
    a level L-1 search of a copy of the board, and the best line found so
    far is followed one move, re-searching after every step.  The global
    best game is kept across the whole run, so the result dominates every
    playout the search performed.

    Nodes count each candidate tried and each playout move.  A budget spent
    before any game ends reports the deepest position reached.
    """
    if not isinstance(level, Integral) or level < 0:
        raise ValueError(f"level must be an integer >= 0, not {level!r}")
    _check_search(variant, node_budget, time_budget)
    t0 = time.perf_counter()
    state = _Nmcs(variant, seed, node_budget, time_budget, stop_score)
    reason = "complete"
    try:
        state.search(Board(variant), level)
    except _Stop as stop:
        reason = stop.reason
    metadata = {"strategy": "nmcs", "seed": str(seed), "level": str(level)}
    return _result(variant, state.best_moves, metadata, state.nodes, t0, reason)


# -- exhaustive search ------------------------------------------------------

# The eight lattice symmetries as (a, b, c, d): (x, y) -> (ax+by, cx+dy).
_SYMMETRIES = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (0, 1, 1, 0), (-1, 0, 0, 1), (1, 0, 0, -1), (0, -1, -1, 0),
)

class _SymmetricKeys(dict):
    """Transposition keys for the states reached from one board: a move ->
    the bit of its line's image in each frame, computed on first use.

    A state is its set of lines; move order is forgotten.  Each move's cross
    lies on its own line, so the crosses are the initial ones plus the points
    the lines cover: from a fixed start the lines fix the state.  Each
    symmetry of the initial crosses is a frame: all eight lattice symmetries
    for the standard cross shape, only the identity for an arbitrary
    synthetic board (plain transposition merging).  ``group[0]`` is the
    identity.  Coordinates are doubled and re-centred on the initial
    bounding box so the symmetry centre stays integral; a line's image is
    the sorted pair of its end points' images.

    Each line image is interned as a small int, its id, the first time it is
    seen, and ``ids`` maps an image to its id; ids are one-to-one with
    images.  A state carries one int mask per frame: bit ``id`` is set for
    each of its line images in that frame.  A child's masks are its parent's
    ORed with the move's bits, ``self[move]``, so a child costs one OR per
    frame and undo costs nothing.

    The mask of a state ``S`` in frame ``f`` is the identity-frame mask of
    ``σ_f S``, its image under that frame's symmetry, since both set the
    bits of the same line images.  So ``S`` is symmetric to a state ``T``
    exactly when the identity mask of ``T`` is one of the frame masks of
    ``S``.  ``exhaustive_solve`` stores each state it expands under its
    identity mask alone and probes a child frame by frame, identity first;
    a child hits exactly when a state symmetric to it was expanded.
    """

    __slots__ = ("cx", "cy", "group", "span", "ids")

    def __init__(self, board: Board):
        super().__init__()
        init = board.initial
        # an empty start has no moves, so any centre will do
        xs, ys = [x for x, _ in init] or [0], [y for _, y in init] or [0]
        self.cx, self.cy = min(xs) + max(xs), min(ys) + max(ys)
        doubled = {(2 * x - self.cx, 2 * y - self.cy) for x, y in init}
        self.group = [
            m
            for m in _SYMMETRIES
            if {(m[0] * u + m[1] * v, m[2] * u + m[3] * v) for u, v in doubled} == doubled
        ]
        self.span = board.variant.alpha - 1
        self.ids: dict[tuple[Point, Point], int] = {}

    def _images(self, p: Point) -> tuple[Point, ...]:
        u, v = 2 * p[0] - self.cx, 2 * p[1] - self.cy
        return tuple((a * u + b * v, c * u + d * v) for a, b, c, d in self.group)

    def __missing__(self, move: Move) -> tuple[int, ...]:
        (x, y), (sx, sy) = move.anchor, move.direction.step
        head = self._images(move.anchor)
        tail = self._images((x + self.span * sx, y + self.span * sy))
        ids = self.ids
        bits = self[move] = tuple(
            1 << ids.setdefault(line, len(ids))
            for line in ((a, b) if a < b else (b, a) for a, b in zip(head, tail))
        )
        return bits

    def masks(self, moves: list[Move]) -> tuple[int, ...]:
        """Frame masks of the state ``moves`` reach, the identity's first."""
        masks = (0,) * len(self.group)
        for m in moves:
            masks = tuple(map(or_, masks, self[m]))
        return masks


def exhaustive_solve(
    variant: Variant,
    node_budget: int = DEFAULT_NODE_BUDGET,
    board: Board | None = None,
    use_transpositions: bool = True,
) -> SearchResult:
    """Exact maximum score by depth-first search with undo.

    With ``use_transpositions`` (the default) states are merged when they
    have the same lines (which fix the crosses, each move's cross lying on
    its own line), reached by another move order, or are related by a
    symmetry of the initial crosses.  The table holds the exact number of
    further moves available from each expanded state, once, under the
    state's identity-frame mask (see :class:`_SymmetricKeys`, which also
    argues why the probe below is exact).  Each child is probed before it is
    applied: first its identity mask, the parent's ORed with the move's
    identity bit, and only on a miss its masks in the other frames, which
    find an expanded image of it under a symmetry.  Merged states are
    symmetric, so they have the same value.  A hit is taken from the table
    without an ``apply`` or ``undo``, and only a miss is applied and
    searched.  Without transpositions this is a plain DFS that builds no
    key, kept as the reference to test the merging against.

    A node is one (position, move) pair examined, a table hit included;
    only the misses among them are applied.  The budget is tested before
    each node is counted.

    The reported line is the first the DFS reaches at its greatest depth.
    Moves are tried in canonical order, and a state is skipped only when a
    twin of the same depth was expanded earlier through a lexicographically
    smaller prefix, so this is the lexicographically first optimal line,
    with or without transpositions.  Exceeding the node budget returns the
    deepest line found so far flagged non-exact.

    Sized for length-6 variants, synthetic positions and 5D/5T endgames (the
    last 16 moves of a 61-move game take about 214k nodes); a 5D/5T run from
    the start will hit any realistic budget.  A ``board`` of another variant
    than ``variant`` raises ``ValueError``.
    """
    _check_search(variant, node_budget)
    t0 = time.perf_counter()
    if board is None:
        board = Board(variant)
    elif board.variant != variant:
        raise ValueError(f"board is {board.variant.name}, not {variant.name}")
    else:
        board = board.copy()
    keys = _SymmetricKeys(board) if use_transpositions else None
    # identity-frame mask of each expanded state -> its value
    table: dict[int, int] = {}
    probe = table.get
    nodes = 0
    budget_hit = False
    best_seen = 0
    best_moves: list[Move] = []
    root_depth = board.score

    def dfs(masks: tuple[int, ...] | None) -> int:
        """Value of the board's state, entered through a table miss."""
        nonlocal nodes, budget_hit, best_seen, best_moves
        if board.score - root_depth > best_seen:
            best_seen = board.score - root_depth
            best_moves = board.moves[root_depth:]
        value = 0
        for move in board.legal_moves():
            # tested before counting, so that once the budget is spent each
            # ancestor stops without counting a move it will not examine
            if nodes >= node_budget:
                budget_hit = True
                break
            nodes += 1
            if keys is None:
                child = rest = None
            else:
                bits = keys[move]
                rest = probe(masks[0] | bits[0])
                if rest is None:
                    child = tuple(map(or_, masks, bits))
                    for mask in child[1:]:
                        rest = probe(mask)
                        if rest is not None:
                            break
            if rest is None:
                board.apply(move)
                rest = dfs(child)
                board.undo()
            if rest >= value:
                value = rest + 1
        if masks is not None and not budget_hit:
            table[masks[0]] = value
        return value

    value = dfs(None if keys is None else keys.masks(board.moves))
    # dfs refers to itself through its closure cell; breaking that cycle
    # frees the table now instead of at the next cyclic collection
    dfs = None  # type: ignore[assignment]

    # a merged state's twin was expanded first, at the same depth, and reached
    # as deep, so a complete search has seen a line of every depth it scores
    assert budget_hit or best_seen == value, "a merge overstated a value"
    record = GameRecord(
        variant,
        best_moves,
        {"strategy": "exhaustive", "exact": str(not budget_hit).lower()},
    )
    if root_depth == 0 and board.initial == initial_crosses(variant.alpha):
        check_record_bounds(record)
    return SearchResult(
        record,
        nodes,
        time.perf_counter() - t0,
        "node-budget" if budget_hit else "complete",
        exact=not budget_hit,
    )
