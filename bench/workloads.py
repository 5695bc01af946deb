"""Workload inputs, operations and behaviour fingerprints.

Each workload turns a seed into a schedule of operations drawn from a pinned
pool of inputs (``pins.json``).  An operation returns a fingerprint of what
the program did and the number of moves it handled; the fingerprint must
equal the pinned one, so a faster run that explores a different tree shows
up as a failed operation, not as a win.

Inputs are a pure function of the seed.  Pools are split into strata (by
game length, subtree variant or record length) and each round of a schedule
takes one seeded pick per stratum in seeded order.  That keeps the median
operation time of a short run close to that of the whole pool while every
seed still sees different inputs.

Calls into the program go through module attributes (``solver.nmcs``, not a
name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from morpion import cli, linecover, recordio, solver
from morpion.engine import Board
from morpion.geometry import DIRECTIONS, FIVE_D, SIX_D, SIX_T, Direction, Segment, Variant

PINS_PATH = Path(__file__).with_name("pins.json")

NMCS_LEVEL = 1
PREFIX_MOVES = 5
SCAN_RULE_SETS = (("A",), ("A", "B"), ("A", "remark"))
SCAN_MAX_N = 200
MIN_COVER_WINDOWS = (5, 6, 7)
LEMMA_LAYOUTS = 60
PACK_SIZES = range(4, 11)
PACK_CUTS = (0, 1, 2, 3)


def load_pins(path: Path = PINS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def moves_digest(moves) -> str:
    return digest(repr([(m.cross, int(m.direction), m.anchor) for m in moves]))


@dataclass
class Op:
    """One closed-loop operation.

    ``kind`` names the work (game, solve, record, bounds); ``main`` marks the
    operations whose latency the end-to-end metrics report; the run stops
    only after an operation with ``ends_round`` set.
    """

    kind: str
    key: str
    expected: dict
    call: Callable[[], tuple[dict, int]]
    ends_round: bool
    main: bool = True


def schedule(strata: list[list[str]], tag: str, seed: int) -> Iterator[str]:
    """Endless rounds, each one seeded pick per stratum in seeded order."""
    rng = random.Random(f"{tag}:{seed}")
    order = list(range(len(strata)))
    while True:
        rng.shuffle(order)
        for i in order:
            yield rng.choice(strata[i])


# -- search: complete NMCS level-1 games on 5D --------------------------------


def game(game_seed: int) -> tuple[dict, int]:
    r = solver.nmcs(FIVE_D, NMCS_LEVEL, game_seed)
    fp = {
        "score": r.best_score,
        "nodes": r.nodes_expanded,
        "stopped": r.stopped_reason,
        "moves": moves_digest(r.best_record.moves),
    }
    return fp, r.nodes_expanded


class Search:
    """Record hunting: apply, sorted legal_moves, copy, random playouts."""

    name = "search"

    def __init__(self, seed: int, pins: dict, workdir: Path):
        self.pins = pins["search"]["pins"]
        self.strata = pins["search"]["strata"]
        self.seed = seed
        self.trace_ops = len(self.strata)
        # fills solver's initial-board cache before timing starts
        solver.random_playout(FIVE_D, seed)

    def ops(self) -> Iterator[Op]:
        keys = schedule(self.strata, self.name, self.seed)
        for i, key in enumerate(keys, 1):
            yield Op("game", key, self.pins[key], lambda s=int(key): game(s),
                     ends_round=i % len(self.strata) == 0)

    def close(self) -> None:
        pass


# -- proof: exact 6D/6T subtree solves ----------------------------------------

PROOF_VARIANTS = {v.name: v for v in (SIX_D, SIX_T)}


def prefix_board(variant: Variant, prefix_seed: int) -> Board:
    """The variant's start position after PREFIX_MOVES seeded random moves."""
    rng = solver.rng_stream(prefix_seed)
    board = Board(variant)
    for _ in range(PREFIX_MOVES):
        moves = board.legal_moves()
        board.apply(moves[int(rng.integers(0, len(moves)))])
    return board


def subtree(variant: Variant, board: Board) -> tuple[dict, int]:
    r = solver.exhaustive_solve(variant, board=board)
    fp = {
        "value": r.best_score,
        "nodes": r.nodes_expanded,
        "exact": r.exact,
        "line": moves_digest(r.best_record.moves),
    }
    return fp, r.nodes_expanded


def parse_subtree_key(key: str) -> tuple[Variant, int]:
    name, prefix_seed = key.split(":")
    return PROOF_VARIANTS[name], int(prefix_seed)


class Proof:
    """Exact DFS: apply, undo and the 8-way symmetric transposition key."""

    name = "proof"

    def __init__(self, seed: int, pins: dict, workdir: Path):
        self.pins = pins["proof"]["pins"]
        self.strata = pins["proof"]["strata"]
        self.seed = seed
        self.trace_ops = len(self.strata)
        # prefixes are built once per distinct key, ahead of the ops that use them
        self.boards = {k: prefix_board(*parse_subtree_key(k)) for k in self.pins}

    def ops(self) -> Iterator[Op]:
        keys = schedule(self.strata, self.name, self.seed)
        for i, key in enumerate(keys, 1):
            variant, _ = parse_subtree_key(key)
            board = self.boards[key]
            yield Op("solve", key, self.pins[key], lambda v=variant, b=board: subtree(v, b),
                     ends_round=i % len(self.strata) == 0)

    def close(self) -> None:
        pass


# -- audit: verify, round trip and render records; then a bounds batch -------


def record_text(record_seed: int) -> bytes:
    return recordio.emit_record(solver.random_playout(FIVE_D, record_seed)).encode()


def audit_record(path: Path) -> tuple[dict, int]:
    """The analyst's path for one record file: verify, emit∘parse, render."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", str(path)])
    data = path.read_bytes()
    record = recordio.parse_record(data.decode("utf-8"))
    roundtrip = recordio.emit_record(record).encode() == data
    art = recordio.render(record, recordio.RenderSpec("ascii", annotate_moves=True))
    art += recordio.render(record, recordio.RenderSpec("svg", annotate_moves=True))
    fp = {
        "verify": [rc, digest(out.getvalue())],
        "roundtrip": roundtrip,
        "render": digest(art),
    }
    return fp, len(record.moves)


def two_direction_layout(rng: np.random.Generator, d1: Direction, d2: Direction, k: int):
    """Layout with exactly 5k+1 lines in each of d1 and d2, on distinct lattice lines."""
    n = 5 * k + 1
    segments = []
    for d in (d1, d2):
        for key in rng.choice(np.arange(-30, 31), size=n, replace=False):
            off = int(rng.integers(-30, 31))
            key = int(key)
            anchor = {
                Direction.E: (off, key),
                Direction.N: (key, off),
                Direction.NE: (off, off - key),
                Direction.SE: (off, key - off),
            }[d]
            segments.append(Segment(d, anchor, 5))
    return linecover.Layout.from_segments(segments, 5)


def min_cover_batch() -> list[int]:
    return [
        linecover.min_cover_exact({d1: 1, d2: 1}, window=w)
        for d1, d2 in itertools.combinations(DIRECTIONS, 2)
        for w in MIN_COVER_WINDOWS
    ]


def bounds_batch(rng: np.random.Generator) -> tuple[dict, int]:
    """Line-counting bounds: scans, exact min cover, lemma replay, packing."""
    scans = [linecover.infeasibility_scan(frozenset(r), SCAN_MAX_N) for r in SCAN_RULE_SETS]
    covers = min_cover_batch()
    pairs = list(itertools.permutations(DIRECTIONS, 2))
    lemma_ok = True
    for i in range(LEMMA_LAYOUTS):
        d1, d2 = pairs[int(rng.integers(0, len(pairs)))]
        k = i % 3
        layout = two_direction_layout(rng, d1, d2, k)
        lemma_ok &= linecover.lemma_counting_replay(layout, d1, d2) == (5 * k + 1) * 5 + 4
    pack = linecover.packing_search("octagon", PACK_SIZES, PACK_SIZES, cuts=PACK_CUTS)
    text = recordio.emit_layout(pack.layout)
    fp = {
        "scan": scans,
        "min_cover": sorted(set(covers)),
        "lemma": lemma_ok,
        "pack": [pack.n, pack.coverage],
        "layout_roundtrip": recordio.emit_layout(recordio.parse_layout(text)) == text,
    }
    return fp, 0


class Audit:
    """Verify/round-trip/render per record, then one bounds batch per round.

    Builds a fresh Board per replay and never calls undo or the state key:
    the bypass workload for search-only optimisations.
    """

    name = "audit"

    def __init__(self, seed: int, pins: dict, workdir: Path):
        self.pins = pins["audit"]["pins"]
        self.seed = seed
        strata = pins["audit"]["strata"]
        keys = schedule(strata, self.name, seed)
        self.records = {}
        for key in itertools.islice(keys, len(strata)):
            path = workdir / f"record-{key}.rec"
            path.write_bytes(record_text(int(key)))
            self.records[key] = path
        self.trace_ops = len(self.records) + 1
        # fills linecover's exact-cover cache before timing starts
        min_cover_batch()

    def ops(self) -> Iterator[Op]:
        rng = random.Random(f"{self.name}-order:{self.seed}")
        keys = list(self.records)
        for batch in itertools.count():
            rng.shuffle(keys)
            for key in keys:
                path = self.records[key]
                yield Op("record", key, self.pins[key], lambda p=path: audit_record(p), False)
            yield Op("bounds", "bounds", self.pins["bounds"],
                     lambda b=batch: bounds_batch(np.random.default_rng([self.seed, b])),
                     ends_round=True, main=False)

    def close(self) -> None:
        for path in self.records.values():
            path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Search, Proof, Audit)}
