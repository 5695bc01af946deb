"""Search harnesses: exhaustive solving, random playouts, beam search, NMCS.

Everything here is deterministic given its seed: randomness comes from a
named 64-bit generator (PCG64), and parallel playout sweeps give worker i
the stream ``PCG64(seed).jumped(i)`` so results do not depend on worker
count.  Budgets are expressed in nodes (moves applied); wall-clock budgets
are honored but a run that stops on time rather than nodes is not guaranteed
to be reproducible.  A negative node budget, or a negative or NaN time
budget, raises ``ValueError``.

Every record leaving this module passes a bound guard: it must replay
legally to N+36 crosses, with cover counts summing to alpha*N for its N
lines, and a 5D record longer than ``FIVE_D_LINE_BOUND`` (121, the
line-counting bound; the potential bounds in ``potential.PUBLISHED_BOUNDS``
are all weaker) fails hard since that can only mean an engine bug.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import itemgetter, xor

import numpy as np

from .engine import Board, GameRecord, Move, replay
from .geometry import Point, Variant, initial_crosses

FIVE_D_LINE_BOUND = 121
DEFAULT_NODE_BUDGET = 10**8

STRATEGIES = ("random", "greedy", "beam", "nmcs", "exhaustive")


@dataclass
class SearchConfig:
    seed: int = 0
    strategy: str = "random"
    beam_width: int = 64
    nmcs_level: int = 1
    time_budget: float | None = None  # seconds
    node_budget: int = DEFAULT_NODE_BUDGET


@dataclass
class SearchResult:
    best_record: GameRecord
    best_score: int
    nodes_expanded: int
    wall_time: float
    stopped_reason: str = "complete"  # | "node-budget" | "time-budget" | "stop-score"
    exact: bool = False

    @property
    def complete(self) -> bool:
        return self.stopped_reason == "complete"


def _check_budgets(node_budget: int, time_budget: float | None = None) -> None:
    if node_budget < 0:
        raise ValueError("node budget must be >= 0")
    # written so that NaN fails too: no clock reading ever passes a NaN deadline
    if time_budget is not None and not time_budget >= 0:
        raise ValueError("time budget must be >= 0")


class _Stop(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Substream ``stream`` of the seeded generator; stream 0 is the root."""
    bits = np.random.PCG64(seed)
    if stream:
        bits = bits.jumped(stream)
    return np.random.Generator(bits)


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
    covered = sum(board.cover_count.values())
    if covered != record.variant.alpha * n or len(board.crosses) != len(board.initial) + n:
        raise AssertionError("engine bug: line/cross counts disagree with the move count")
    return board


def record_from_board(board: Board, **metadata: str) -> GameRecord:
    record = GameRecord(board.variant, list(board.moves), dict(metadata))
    check_record_bounds(record, board)
    return record


# -- random playouts -------------------------------------------------------


def _playout(board: Board, rng: np.random.Generator) -> Board:
    """Play uniformly random legal moves in place until none remain."""
    while True:
        moves = board.legal_moves()
        if not moves:
            return board
        board.apply(moves[int(rng.integers(0, len(moves)))])


def random_playout(variant: Variant, seed: int) -> GameRecord:
    """One uniformly random game, reproducible from the seed."""
    board = _playout(Board(variant), rng_stream(seed))
    record = record_from_board(board, strategy="random", seed=str(seed))
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
    Ties go to the lowest stream index.
    """
    if playouts < 1:
        raise ValueError("playouts must be >= 1")
    t0 = time.perf_counter()
    chunks: list[tuple[int, int, list[Move], int]]
    if workers > 1 and playouts > 1:
        from concurrent.futures import ProcessPoolExecutor

        step = -(-playouts // workers)
        spans = [(lo, min(lo + step, playouts)) for lo in range(0, playouts, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(
                pool.map(
                    _sweep_chunk,
                    *zip(*[(variant, seed, lo, hi) for lo, hi in spans]),
                )
            )
    else:
        chunks = [_sweep_chunk(variant, seed, 0, playouts)]
    best_score, best_stream, best_moves, _ = max(chunks, key=lambda c: (c[0], -c[1]))
    record = GameRecord(
        variant,
        best_moves,
        {"strategy": "random", "seed": str(seed), "stream": str(best_stream)},
    )
    check_record_bounds(record)
    nodes = sum(c[3] for c in chunks)
    return SearchResult(record, best_score, nodes, time.perf_counter() - t0)


# -- beam search ------------------------------------------------------------


def beam_search(
    variant: Variant,
    width: int,
    seed: int,
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
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    _check_budgets(node_budget)
    t0 = time.perf_counter()
    rng = rng_stream(seed)
    beam = [Board(variant)]
    best_board = beam[0]
    best_score = 0
    nodes = 0
    reason = "complete"
    while True:
        candidates: list[tuple[float, int, Move]] = []
        seen: set[frozenset] = set()
        alive = False
        for bi, board in enumerate(beam):
            moves = board.legal_moves()
            if not moves:
                if board.score > best_score:
                    best_score, best_board = board.score, board
                continue
            alive = True
            lines = board.state_key()
            for m in moves:
                key = lines | {(m.direction, m.anchor)}
                if key in seen:
                    continue
                seen.add(key)
                candidates.append((float(rng.random()), bi, m))
        if not alive or not candidates:
            break
        candidates.sort(key=itemgetter(0))
        # a level is counted whole or not at all, so nodes never pass the budget
        if nodes + len(candidates) > node_budget:
            reason = "node-budget"
            break
        nodes += len(candidates)
        next_beam = []
        for _, bi, m in candidates[:width]:
            next_beam.append(beam[bi].copy().apply(m))
        beam = next_beam
        tail = max(beam, key=lambda b: b.score)
        if tail.score > best_score:
            best_score, best_board = tail.score, tail
    record = record_from_board(
        best_board, strategy="beam", seed=str(seed), width=str(width)
    )
    check_record_bounds(record)
    return SearchResult(record, best_score, nodes, time.perf_counter() - t0, reason)


def greedy(variant: Variant, seed: int) -> SearchResult:
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

    def _tick(self) -> None:
        """Count one move about to be applied, or stop before it."""
        if self.nodes >= self.node_budget:
            raise _Stop("node-budget")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _Stop("time-budget")
        self.nodes += 1

    def _keep_if_best(self, board: Board) -> bool:
        """Bank the board's game if it beats the best so far; return whether it did."""
        if board.score <= self.best_score:
            return False
        self.best_score = board.score
        self.best_moves = list(board.moves)
        check_record_bounds(GameRecord(self.variant, self.best_moves), board)
        return True

    def _record_if_best(self, board: Board) -> None:
        if self._keep_if_best(board) and self.stop_score is not None:
            if self.best_score >= self.stop_score:
                raise _Stop("stop-score")

    def playout_suffix(self, board: Board) -> tuple[int, list[Move]]:
        """Random finish from the position; board itself is untouched."""
        copy = board.copy()
        depth = len(copy.moves)
        rng = self.rng
        try:
            while True:
                moves = copy.legal_moves()
                if not moves:
                    break
                self._tick()
                copy.apply(moves[int(rng.integers(0, len(moves)))])
        except _Stop:
            if self.best_score < 0:
                # no game has finished, so this unfinished playout is the
                # deepest position the search reached
                self._keep_if_best(copy)
            raise
        self._record_if_best(copy)
        return copy.score, copy.moves[depth:]

    def nested(self, board: Board, level: int) -> None:
        """Memorized nested search; advances ``board`` to a terminal position."""
        best_score = -1
        suffix: list[Move] = []
        while True:
            moves = board.legal_moves()
            if not moves:
                self._record_if_best(board)
                return
            for m in moves:
                self._tick()
                board.apply(m)
                if level <= 1:
                    s, cont = self.playout_suffix(board)
                else:
                    depth = len(board.moves)
                    probe = board.copy()
                    self.nested(probe, level - 1)
                    s, cont = probe.score, probe.moves[depth:]
                board.undo()
                if s > best_score:
                    best_score = s
                    suffix = [m] + cont
            if not suffix:
                # every continuation was worse than an already-banked line
                self.playout_suffix(board)
                return
            board.apply(suffix.pop(0))


def nmcs(
    variant: Variant,
    level: int,
    seed: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    stop_score: int | None = None,
) -> SearchResult:
    """Nested Monte-Carlo search with memorization.

    Level 0 is a bare playout.  At level L, each legal move is evaluated by
    a level L-1 search and the best line found so far is followed one move,
    re-searching after every step.  The global best game is kept across the
    whole run, so the result dominates every playout the search performed.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    _check_budgets(node_budget, time_budget)
    t0 = time.perf_counter()
    state = _Nmcs(variant, seed, node_budget, time_budget, stop_score)
    reason = "complete"
    board = Board(variant)
    try:
        if level == 0:
            state.playout_suffix(board)
        else:
            state.nested(board, level)
    except _Stop as stop:
        reason = stop.reason
    if state.best_score < 0:
        # stopped before any playout began: report the position reached
        state._keep_if_best(board)
    record = GameRecord(
        variant,
        state.best_moves,
        {"strategy": "nmcs", "seed": str(seed), "level": str(level)},
    )
    check_record_bounds(record)
    return SearchResult(
        record, state.best_score, state.nodes, time.perf_counter() - t0, reason
    )


# -- exhaustive search ------------------------------------------------------

# The eight lattice symmetries as (a, b, c, d): (x, y) -> (ax+by, cx+dy).
_SYMMETRIES = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (0, 1, 1, 0), (-1, 0, 0, 1), (1, 0, 0, -1), (0, -1, -1, 0),
)

_ZOBRIST_SEED = 0x6D6F7270696F6E  # fixed, so node counts repeat run to run

# (line images, hash delta), one entry per frame in each
_MoveImages = tuple[tuple[tuple[Point, Point], ...], tuple[int, ...]]


class _SymmetricKeys:
    """Transposition keys for the states reached from one board.

    A state is its set of lines; move order is forgotten.  Each move's cross
    lies on its own line, so the crosses are the initial ones plus the points
    the lines cover: from a fixed start the lines fix the state.  Two states
    share a key exactly when a symmetry of the initial crosses maps one onto
    the other: all eight lattice symmetries for the standard cross shape,
    only the identity for an arbitrary synthetic board (plain transposition
    merging).  Coordinates are doubled and re-centred on the initial
    bounding box so the symmetry centre stays integral; a line's image is
    the sorted pair of its end points' images.

    Each symmetry is a frame, and a state carries one 64-bit Zobrist hash
    per frame: the XOR of a random word for each line image in that frame.
    A move XORs its cached per-frame delta into the parent's hashes, so a
    child costs one update per frame and undo costs nothing.

    The key is ``(h, lines)``: ``h`` is the smallest frame hash, and
    ``lines`` are the sorted images of the state's lines in the first frame
    that reaches it.  Equal keys mean the two states have equal images under
    some pair of symmetries, so a merge is never wrong.  States related by a
    symmetry have the same frame hashes in another order, so they share
    ``h``; a 64-bit collision between two different images can only make
    them pick different frames and miss a merge.
    """

    def __init__(self, board: Board):
        init = board.initial
        self.cx = min(x for x, _ in init) + max(x for x, _ in init)
        self.cy = min(y for _, y in init) + max(y for _, y in init)
        doubled = {(2 * x - self.cx, 2 * y - self.cy) for x, y in init}
        self.group = [
            m
            for m in _SYMMETRIES
            if {(m[0] * u + m[1] * v, m[2] * u + m[3] * v) for u, v in doubled} == doubled
        ]
        self.span = board.variant.alpha - 1
        self.rng = random.Random(_ZOBRIST_SEED)
        self.words: dict[tuple[Point, Point], int] = {}
        self.moves: dict[Move, _MoveImages] = {}

    def _images(self, p: Point) -> tuple[Point, ...]:
        u, v = 2 * p[0] - self.cx, 2 * p[1] - self.cy
        return tuple((a * u + b * v, c * u + d * v) for a, b, c, d in self.group)

    def _word(self, line: tuple[Point, Point]) -> int:
        word = self.words.get(line)
        if word is None:
            word = self.words[line] = self.rng.getrandbits(64)
        return word

    def move(self, move: Move) -> _MoveImages:
        """Per-frame images of the move's line, and its hash delta."""
        out = self.moves.get(move)
        if out is None:
            (x, y), (sx, sy) = move.anchor, move.direction.step
            head = self._images(move.anchor)
            tail = self._images((x + self.span * sx, y + self.span * sy))
            lines = tuple((a, b) if a < b else (b, a) for a, b in zip(head, tail))
            out = self.moves[move] = (lines, tuple(map(self._word, lines)))
        return out

    def hashes(self, moves: list[Move]) -> tuple[int, ...]:
        """Frame hashes of the state ``moves`` reach, from scratch."""
        hashes = (0,) * len(self.group)
        for m in moves:
            hashes = tuple(map(xor, hashes, self.move(m)[1]))
        return hashes

    def key(self, hashes: tuple[int, ...], moves: list[Move]) -> tuple:
        """Key of the state with these frame hashes; reads each move's
        images from the cache :meth:`move` and :meth:`hashes` fill."""
        h = min(hashes)
        frame = hashes.index(h)
        images = self.moves
        return (h, tuple(sorted([images[m][0][frame] for m in moves])))

    def key_of(self, board: Board) -> tuple:
        return self.key(self.hashes(board.moves), board.moves)


def exhaustive_solve(
    variant: Variant,
    node_budget: int = DEFAULT_NODE_BUDGET,
    board: Board | None = None,
    use_transpositions: bool = True,
) -> SearchResult:
    """Exact maximum score by depth-first search with undo.

    With ``use_transpositions`` (the default) states are merged through the
    :class:`_SymmetricKeys` key: the same lines (which fix the crosses,
    each move's cross lying on its own line) reached by another move order,
    or related by a symmetry of the initial crosses.  Merged states have
    equal images under some pair of symmetries, hence the same value, so a
    merge is never wrong; a 64-bit hash collision can only miss a merge,
    which would show as a larger node count and never as a different value.
    The table stores the exact number of further moves available from each
    state, and the best line is reconstructed from the filled table
    afterwards.  Without transpositions this is a plain DFS, kept as the
    reference to test the merging against.  Exceeding the node budget
    returns the best game found so far flagged non-exact.

    Sized for length-6 variants and synthetic positions; a 5D/5T run will
    hit any realistic budget.  A ``board`` of another variant than
    ``variant`` raises ``ValueError``.
    """
    _check_budgets(node_budget)
    t0 = time.perf_counter()
    if board is None:
        board = Board(variant)
    elif board.variant != variant:
        raise ValueError(f"board is {board.variant.name}, not {variant.name}")
    else:
        board = board.copy()
    keys = _SymmetricKeys(board)
    table: dict[tuple, int] = {}
    nodes = 0
    budget_hit = False
    best_seen = 0
    best_moves: list[Move] = []
    root_depth = board.score

    def dfs(hashes: tuple[int, ...]) -> int:
        nonlocal nodes, budget_hit, best_seen, best_moves
        key = keys.key(hashes, board.moves) if use_transpositions else None
        if key is not None:
            hit = table.get(key)
            if hit is not None:
                return hit
        if board.score - root_depth > best_seen:
            best_seen = board.score - root_depth
            best_moves = board.moves[root_depth:]
        value = 0
        for move in board.legal_moves():
            # tested before counting, so that once the budget is spent each
            # ancestor stops without counting a move it will not apply
            if nodes >= node_budget:
                budget_hit = True
                break
            nodes += 1
            board.apply(move)
            child = 1 + dfs(tuple(map(xor, hashes, keys.move(move)[1])))
            if child > value:
                value = child
            board.undo()
        if key is not None and not budget_hit:
            table[key] = value
        return value

    value = dfs(keys.hashes(board.moves))
    # dfs refers to itself through its closure cell; breaking that cycle
    # frees the table now instead of at the next cyclic collection
    dfs = None  # type: ignore[assignment]

    if not budget_hit and use_transpositions:
        # replay the optimum from the filled table, preferring the first
        # move in canonical order at every step
        walk = board
        line: list[Move] = []
        while True:
            target = table.get(keys.key_of(walk), 0)
            if target == 0:
                break
            for m in walk.legal_moves():
                walk.apply(m)
                if table.get(keys.key_of(walk), -1) == target - 1:
                    line.append(m)
                    break
                walk.undo()
            else:
                raise AssertionError("transposition table lost the optimal line")
        best_moves = line
        best_seen = value
    record = GameRecord(
        variant,
        best_moves,
        {"strategy": "exhaustive", "exact": str(not budget_hit).lower()},
    )
    if root_depth == 0 and board.initial == initial_crosses(variant.alpha):
        check_record_bounds(record)
    return SearchResult(
        record,
        best_seen,
        nodes,
        time.perf_counter() - t0,
        "node-budget" if budget_hit else "complete",
        exact=not budget_hit,
    )


# -- dispatch ---------------------------------------------------------------


def solve(variant: Variant, config: SearchConfig) -> SearchResult:
    """Run the configured strategy; the CLI's single entry point."""
    if config.strategy == "random":
        t0 = time.perf_counter()
        record = random_playout(variant, config.seed)
        return SearchResult(
            record, len(record.moves), len(record.moves), time.perf_counter() - t0
        )
    if config.strategy == "greedy":
        return greedy(variant, config.seed)
    if config.strategy == "beam":
        return beam_search(
            variant, config.beam_width, config.seed, node_budget=config.node_budget
        )
    if config.strategy == "nmcs":
        return nmcs(
            variant,
            config.nmcs_level,
            config.seed,
            node_budget=config.node_budget,
            time_budget=config.time_budget,
        )
    if config.strategy == "exhaustive":
        return exhaustive_solve(variant, node_budget=config.node_budget)
    raise ValueError(f"unknown strategy {config.strategy!r} (expected one of {STRATEGIES})")
