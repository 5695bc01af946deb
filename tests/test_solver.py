"""Search strategies: determinism, bound guards, and strategy behavior.

Score pins in here were calibrated once on the frozen default seeds and act
as regression tripwires; they are properties of (algorithm, seed), not of
the game.
"""

import concurrent.futures
import gc
import hashlib
import os
from operator import or_

import numpy as np
import pytest

from morpion.engine import Board, GameRecord, Move, replay
from morpion.geometry import (
    DIRECTIONS,
    FIVE_D,
    FIVE_T,
    SIX_D,
    SIX_T,
    Direction,
    Variant,
)
from morpion.linecover import ALL_RULES, infeasibility_scan
from morpion.potential import MonitorFailure, verify_record
from morpion.solver import (
    _SYMMETRIES,
    DEFAULT_NODE_BUDGET,
    FIVE_D_LINE_BOUND,
    _SymmetricKeys,
    beam_search,
    check_record_bounds,
    exhaustive_solve,
    greedy,
    nmcs,
    playout_sweep,
    random_playout,
    rng_stream,
)


def assert_well_formed(record):
    board = check_record_bounds(record)
    assert len(board.lines) == len(record.moves)
    assert len(board.crosses) == len(board.initial) + len(record.moves)
    return board


def test_random_playout_is_deterministic_and_terminal():
    a = random_playout(FIVE_D, 42)
    b = random_playout(FIVE_D, 42)
    assert a.moves == b.moves
    assert a.metadata["seed"] == "42"
    board = assert_well_formed(a)
    assert not board.has_legal_moves()
    assert random_playout(FIVE_D, 43).moves != a.moves


def test_playout_sweep_worker_count_invariance():
    lone = playout_sweep(FIVE_D, 9, 30)
    multi = playout_sweep(FIVE_D, 9, 30, workers=3)
    assert lone.best_score == multi.best_score
    assert lone.best_record.moves == multi.best_record.moves
    assert lone.nodes_expanded == multi.nodes_expanded


def test_playout_sweep_starts_at_most_one_process_per_cpu(monkeypatch):
    pools = []

    class SerialPool:
        """Runs the chunks in this process; starts no worker."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for workers, playouts, pool in [(10**9, 12, 3), (10**9, 2, 2), (2, 12, 2)]:
        multi = playout_sweep(FIVE_D, 9, playouts, workers=workers)
        lone = playout_sweep(FIVE_D, 9, playouts)
        assert pools == [pool]
        pools.clear()
        assert multi.best_record.moves == lone.best_record.moves
        assert multi.nodes_expanded == lone.nodes_expanded
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            playout_sweep(FIVE_D, 9, 12, workers=workers)
    with pytest.raises(ValueError, match="playouts must be >= 1"):
        playout_sweep(FIVE_D, 9, 0)


def test_playout_sweep_best_matches_individual_streams():
    sweep = playout_sweep(FIVE_D, 9, 16)
    board = assert_well_formed(sweep.best_record)
    assert sweep.best_score == len(sweep.best_record.moves)
    assert not board.has_legal_moves()
    # the sweep's winner must be one of the 16 per-stream playouts
    scores = []
    for i in range(16):
        rng = rng_stream(9, i)
        b = Board(FIVE_D)
        while b.has_legal_moves():
            moves = b.legal_moves()
            b.apply(moves[int(rng.integers(0, len(moves)))])
        scores.append(b.score)
    assert sweep.best_score == max(scores)


def test_rng_streams_are_distinct():
    def draws(seed, stream):
        rng = rng_stream(seed, stream)
        return [rng.integers(0, 2**31) for _ in range(8)]

    a = draws(1, 0)
    b = draws(1, 1)
    c = draws(1, 0)
    assert a != b
    assert a == c


def test_greedy_equals_width_one_beam():
    g = greedy(FIVE_D, 0)
    b1 = beam_search(FIVE_D, 1, 0)
    assert g.best_score == b1.best_score == 55  # pinned on seed 0
    assert g.best_record.moves == b1.best_record.moves
    assert_well_formed(g.best_record)
    with pytest.raises(ValueError, match="beam width must be >= 1"):
        beam_search(FIVE_D, 0, 0)


def test_beam_width_dominance_pin():
    wide = beam_search(FIVE_D, 64, 0)
    assert wide.best_score == 58  # pinned on seed 0
    assert wide.best_score >= beam_search(FIVE_D, 1, 0).best_score
    board = assert_well_formed(wide.best_record)
    assert not board.has_legal_moves()


def moves_digest(moves):
    """sha256 of the move list, so a search that reorders its candidates fails."""
    lines = [(m.cross, int(m.direction), m.anchor) for m in moves]
    return hashlib.sha256(repr(lines).encode()).hexdigest()


def test_beam_width_16_pin():
    r = beam_search(FIVE_D, 16, 0)
    assert (r.best_score, r.nodes_expanded) == (57, 11_219)  # pinned on seed 0
    assert moves_digest(r.best_record.moves) == (
        "dc8284d238dc20dbdc066236b3ed13a9ff91f8b464ac8966fece934ad2d3f92b"
    )


def test_beam_determinism():
    a = beam_search(FIVE_D, 16, 3)
    b = beam_search(FIVE_D, 16, 3)
    assert a.best_record.moves == b.best_record.moves
    assert a.nodes_expanded == b.nodes_expanded


def test_nmcs_level1_pin_and_determinism():
    a = nmcs(FIVE_D, 1, 0)
    b = nmcs(FIVE_D, 1, 0)
    assert a.best_score == b.best_score == 61  # pinned on seed 0
    assert a.nodes_expanded == b.nodes_expanded == 18_314
    assert a.best_record.moves == b.best_record.moves
    assert moves_digest(a.best_record.moves) == (
        "9a0f650e5e2781f1ce4e9187f27ce36781c498dbb4ec090fe4987cfd24d8e517"
    )
    assert a.stopped_reason == "complete"
    assert_well_formed(a.best_record)


def test_nmcs_stop_score_short_circuits():
    full = nmcs(FIVE_D, 1, 0)
    early = nmcs(FIVE_D, 1, 0, stop_score=40)
    assert early.best_score >= 40
    assert early.stopped_reason == "stop-score"
    assert early.nodes_expanded < full.nodes_expanded


def test_nmcs_node_budget_flags_truncation():
    r = nmcs(FIVE_D, 1, 0, node_budget=2000)
    assert r.stopped_reason == "node-budget"
    assert not r.complete
    # every move is counted before it is applied, playout moves included,
    # so the run stops exactly at the budget
    assert r.nodes_expanded == 2000
    assert_well_formed(r.best_record)


@pytest.mark.parametrize(
    "variant, budget, score, nodes, reason",
    [
        (SIX_D, DEFAULT_NODE_BUDGET, 12, 69_368, "complete"),  # the proven 6D optimum
        (FIVE_D, 50_000, 62, 50_000, "node-budget"),
    ],
    ids=["6D", "5D-budget"],
)
def test_nmcs_level2_pins(variant, budget, score, nodes, reason):
    """Level 2 follows the lines its level-1 probes return; pinned on seed 0."""
    r = nmcs(variant, 2, 0, node_budget=budget)
    assert (r.best_score, r.nodes_expanded, r.stopped_reason) == (score, nodes, reason)
    assert_well_formed(r.best_record)


@pytest.mark.parametrize(
    "level, budget", [(0, 5), (1, 0), (1, 1), (1, 7), (2, 1), (3, 2), (4, 3)]
)
def test_nmcs_budget_spent_before_any_game_ends_reports_the_position_reached(level, budget):
    r = nmcs(FIVE_D, level, 0, node_budget=budget)
    assert r.stopped_reason == "node-budget"
    assert r.nodes_expanded == budget
    # every counted move was applied on the way down to the first game end
    assert r.best_score == len(r.best_record.moves) == budget
    assert_well_formed(r.best_record)


def test_bound_checks_count_covered_points(monkeypatch):
    """Lines derive from the moves, so both record checks count the points
    the cover counts hold instead; a lost entry fails each of them."""
    record = random_playout(FIVE_D, 3)
    board = replay(record)
    del board.cover_count[record.moves[-1].cross]
    with pytest.raises(AssertionError, match="line/cross counts"):
        check_record_bounds(record, board)

    # 5T has no potential monitor, which would fail first
    game = random_playout(FIVE_T, 3)
    apply = Board.apply

    def losing_apply(b, move):
        apply(b, move)
        if b.score == len(game.moves):
            del b.cover_count[move.cross]
        return b

    monkeypatch.setattr(Board, "apply", losing_apply)
    with pytest.raises(MonitorFailure) as err:
        verify_record(game)
    assert err.value.check == "fact"


def test_beam_node_budget_flags_truncation():
    full = beam_search(FIVE_D, 16, 0)
    r = beam_search(FIVE_D, 16, 0, node_budget=2000)
    assert full.complete and full.nodes_expanded > 2000
    assert r.stopped_reason == "node-budget"
    assert not r.complete
    # a level whose candidates would pass the budget is not counted
    assert r.nodes_expanded <= 2000
    assert_well_formed(r.best_record)


@pytest.mark.parametrize(
    "search",
    [
        lambda: nmcs(FIVE_D, 1, 0, node_budget=-5),
        lambda: nmcs(FIVE_D, 1, 0, node_budget=float("nan")),
        lambda: nmcs(FIVE_D, 1, 0, time_budget=float("nan")),
        lambda: nmcs(FIVE_D, 1, 0, time_budget=-1.0),
        lambda: beam_search(FIVE_D, 4, 0, node_budget=-1),
        lambda: beam_search(FIVE_D, 4, 0, node_budget=float("nan")),
        lambda: exhaustive_solve(SIX_D, node_budget=-1),
        lambda: exhaustive_solve(SIX_D, node_budget=float("nan")),
    ],
)
def test_negative_or_nan_budgets_are_rejected(search):
    # no count or clock reading ever passes a NaN budget, so it would run
    # unbounded
    with pytest.raises(ValueError, match="budget must be >= 0"):
        search()


@pytest.mark.parametrize("variant", [Variant(3, False), Variant(3, True)])
@pytest.mark.parametrize(
    "search",
    [
        lambda v: random_playout(v, 0),
        lambda v: playout_sweep(v, 0, 1),
        lambda v: beam_search(v, 1, 0),
        lambda v: nmcs(v, 1, 0),
        lambda v: exhaustive_solve(v, node_budget=3000),
    ],
)
def test_searches_refuse_line_length_3(variant, search):
    # 3D/3T play does not run out of moves, so each of these would never
    # return (or would recurse past the stack in the exhaustive case)
    with pytest.raises(ValueError, match="without end"):
        search(variant)


def test_zero_budgets_stop_at_once():
    assert nmcs(FIVE_D, 1, 0, time_budget=0.0).stopped_reason == "time-budget"
    assert exhaustive_solve(SIX_D, node_budget=0).nodes_expanded == 0


def test_nmcs_level_zero_is_a_playout():
    r = nmcs(FIVE_D, 0, 6)
    assert r.best_score == len(random_playout(FIVE_D, 6).moves)
    assert nmcs(FIVE_D, np.int64(0), 6).best_record == r.best_record
    # a fractional level would never reach 0 and nest to the end of every game
    for level in (-1, 1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="level must be an integer >= 0"):
            nmcs(FIVE_D, level, 0, node_budget=3000)


def tiny_board(crosses):
    return Board(Variant(5, False), crosses)


CLUSTER = [
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1), (3, 1),
    (4, 1),
]


def test_exhaustive_agrees_with_plain_dfs_on_synthetic_boards():
    for crosses in (
        CLUSTER,
        [(0, 0), (1, 0), (2, 0), (3, 0), (9, 5)],
        [(x, 0) for x in range(4)] + [(x, 2) for x in range(4)],
    ):
        merged = exhaustive_solve(FIVE_D, board=tiny_board(crosses))
        plain = exhaustive_solve(
            FIVE_D, board=tiny_board(crosses), use_transpositions=False
        )
        assert merged.exact and plain.exact
        assert merged.best_score == plain.best_score
        # both report the lexicographically first optimal line
        assert merged.best_record.moves == plain.best_record.moves
        board = tiny_board(crosses)
        for mv in merged.best_record.moves:
            board.apply(mv)
        assert board.score == merged.best_score


def test_exhaustive_solves_an_empty_board():
    # no crosses, so no moves: the value is 0, exactly
    r = exhaustive_solve(SIX_D, board=Board(SIX_D, []))
    assert (r.best_score, r.nodes_expanded, r.exact, r.complete) == (0, 0, True, True)


def test_exhaustive_reports_budget_truncation():
    r = exhaustive_solve(FIVE_D, node_budget=500)
    assert not r.exact
    assert r.stopped_reason == "node-budget"
    assert r.nodes_expanded == 500
    assert r.best_score >= 1
    assert_well_formed(r.best_record)


def test_exhaustive_value_only_depends_on_state_not_history():
    board = tiny_board(CLUSTER)
    first = board.legal_moves()[0]
    board.apply(first)
    mid = exhaustive_solve(FIVE_D, board=board)
    assert mid.exact
    total = exhaustive_solve(FIVE_D, board=tiny_board(CLUSTER))
    assert total.best_score >= mid.best_score  # optimum from earlier is no worse


def seeded_prefix(variant, seed, length):
    """The variant's start position after ``length`` seeded random moves."""
    rng = rng_stream(seed)
    board = Board(variant)
    for _ in range(length):
        moves = board.legal_moves()
        board.apply(moves[int(rng.integers(0, len(moves)))])
    return board


@pytest.mark.parametrize("variant", [SIX_D, SIX_T], ids=["6D", "6T"])
def test_exhaustive_agrees_with_plain_dfs_on_symmetric_starts(variant):
    # the standard cross has all eight symmetries, so this compares the
    # eight-frame key with plain DFS (the synthetic boards above have one)
    start = seeded_prefix(variant, 3, 7)
    merged = exhaustive_solve(variant, board=start)
    plain = exhaustive_solve(variant, board=start, use_transpositions=False)
    assert merged.exact and plain.exact
    assert merged.best_score == plain.best_score
    assert merged.best_record.moves == plain.best_record.moves
    # exact counts pin the merge partition: a key that merged more states,
    # or fewer, would change the first
    assert (merged.nodes_expanded, plain.nodes_expanded) == (810, 6330)
    board = start.copy()
    for mv in merged.best_record.moves:
        board.apply(mv)
    assert board.score - start.score == merged.best_score
    assert not board.has_legal_moves()


@pytest.fixture(scope="module")
def nmcs_game():
    """The 61 moves of the NMCS level-1, seed-0 5D game."""
    return nmcs(FIVE_D, 1, 0).best_record.moves


def five_d_tail(game, moves_left):
    board = Board(FIVE_D)
    for mv in game[:-moves_left]:
        board.apply(mv)
    return board


def test_exhaustive_agrees_with_plain_dfs_on_a_five_d_endgame(nmcs_game):
    # a 5D tail is not symmetric, so this checks the merging on the
    # asymmetric positions the 6D starts never reach
    start = five_d_tail(nmcs_game, 8)
    merged = exhaustive_solve(FIVE_D, board=start)
    plain = exhaustive_solve(FIVE_D, board=start, use_transpositions=False)
    assert merged.exact and plain.exact
    assert (merged.best_score, merged.nodes_expanded) == (8, 434)
    assert (plain.best_score, plain.nodes_expanded) == (8, 10540)
    assert merged.best_record.moves == plain.best_record.moves


def test_exhaustive_five_d_endgame_is_pinned(nmcs_game):
    r = exhaustive_solve(FIVE_D, board=five_d_tail(nmcs_game, 12))
    assert (r.best_score, r.nodes_expanded, r.exact) == (12, 5148, True)


@pytest.mark.parametrize("variant", [SIX_D, SIX_T], ids=["6D", "6T"])
def test_every_length_six_game_scores_twelve(variant):
    # the 24 legal first moves form 12 mutually exclusive pairs and no move
    # makes another, so every game, random or optimal, plays exactly 12
    assert {len(random_playout(variant, seed).moves) for seed in range(20)} == {12}


@pytest.mark.parametrize("variant", [SIX_D, SIX_T], ids=["6D", "6T"])
def test_exhaustive_probes_before_applying(variant, monkeypatch):
    start = seeded_prefix(variant, 3, 7)
    applied = 0
    apply = Board.apply

    def counting_apply(self, move):
        nonlocal applied
        applied += 1
        return apply(self, move)

    monkeypatch.setattr(Board, "apply", counting_apply)
    merged = exhaustive_solve(variant, board=start)
    # a table hit is a node but no apply: one apply per state expanded
    # below the root
    assert (merged.nodes_expanded, applied) == (810, 242)
    applied = 0
    plain = exhaustive_solve(variant, board=start, use_transpositions=False)
    assert (plain.nodes_expanded, applied) == (6330, 6330)


@pytest.mark.parametrize("variant", [FIVE_D, SIX_D], ids=["5D", "6D"])
def test_probe_key_equals_entry_key(variant):
    # the key a child is probed with, before its move is applied, is the
    # key of the state the move reaches
    for seed in range(3):
        for length in (0, 1, 5, 12):
            board = seeded_prefix(variant, seed, length)
            keys = _SymmetricKeys(board)
            masks = keys.masks(board.moves)
            # one bit per line: a frame maps distinct lines to distinct images
            assert bin(min(masks)).count("1") == board.score
            for m in board.legal_moves():
                probe = min(map(or_, masks, keys[m]))
                identity = masks[0] | keys[m][0]
                board.apply(m)
                child = keys.masks(board.moves)
                assert probe == min(child)
                # the solver's first probe, and the mask it stores a state under
                assert identity == child[0]
                board.undo()


@pytest.mark.parametrize("variant", [FIVE_D, SIX_D], ids=["5D", "6D"])
def test_frame_mask_is_the_identity_mask_of_the_image(variant):
    # the fact the identity-first probe rests on: a state's mask in frame f
    # is the identity mask of its image under frame f's symmetry
    for seed in range(3):
        for length in (1, 5, 12):
            board = seeded_prefix(variant, seed, length)
            keys = _SymmetricKeys(board)
            assert keys.group[0] == (1, 0, 0, 1)
            masks = keys.masks(board.moves)
            for f, sym in enumerate(keys.group):
                image = symmetric_image(board, sym, board.moves)
                assert masks[f] == keys.masks(image)[0]


# (best_score, nodes_expanded, stopped_reason, exact) for each budget,
# identical for 6D and 6T, and a digest of the reported lines
BUDGETS = (0, 1, 2, 7, 100, 500, 5000, 50000)
BUDGET_RUNS = {
    0: (
        [(0, 0, "node-budget", False), (1, 1, "node-budget", False),
         (2, 2, "node-budget", False), (7, 7, "node-budget", False)]
        + [(12, budget, "node-budget", False) for budget in BUDGETS[4:]],
        "aa394069fbbf874796d0825a0eec9235592fe2aaa6796a2048d0b89450e72124",
    ),
    7: (
        [(0, 0, "node-budget", False), (1, 1, "node-budget", False),
         (2, 2, "node-budget", False)]
        + [(5, budget, "node-budget", False) for budget in (7, 100, 500)]
        + [(5, 810, "complete", True)] * 2,
        "a1632dc371e9add177c07785a384dcc2949d88d0fba4c2ed543531903b47dbca",
    ),
}


@pytest.mark.parametrize("prefix", [0, 7])
@pytest.mark.parametrize("variant", [SIX_D, SIX_T], ids=["6D", "6T"])
def test_exhaustive_budget_runs_are_pinned(variant, prefix):
    # a table hit is a node tested against the budget like any other, so
    # where a budget stops the search does not depend on the probe
    runs, lines = [], []
    for budget in BUDGETS:
        r = exhaustive_solve(variant, budget, seeded_prefix(variant, 3, prefix))
        runs.append((r.best_score, r.nodes_expanded, r.stopped_reason, r.exact))
        lines.append([(m.cross, int(m.direction), m.anchor) for m in r.best_record.moves])
    expected_runs, digest = BUDGET_RUNS[prefix]
    assert runs == expected_runs
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == digest


def test_exhaustive_rejects_a_board_of_another_variant():
    with pytest.raises(ValueError, match="6D, not 5D"):
        exhaustive_solve(FIVE_D, board=Board(SIX_D))


def test_exhaustive_frees_its_table_without_the_cycle_collector():
    board = seeded_prefix(SIX_D, 0, 7)
    gc.collect()
    gc.disable()
    try:
        exhaustive_solve(SIX_D, board=board)
        assert gc.collect() == 0
    finally:
        gc.enable()


def reference_state_key_fn(board):
    """The symmetric key by brute force: every frame sorted, least one wins.

    Maps every move under each symmetry of the initial crosses, sorts the
    crosses and the lines of each frame and takes the minimum, so two states
    get equal keys exactly when a symmetry maps one onto the other.
    """
    init = board.initial
    cx = min(x for x, _ in init) + max(x for x, _ in init)
    cy = min(y for _, y in init) + max(y for _, y in init)
    doubled = {(2 * x - cx, 2 * y - cy) for x, y in init}
    group = [
        m
        for m in _SYMMETRIES
        if {(m[0] * u + m[1] * v, m[2] * u + m[3] * v) for u, v in doubled} == doubled
    ]
    if len(group) == 1:
        return Board.state_key

    by_step = {}
    for d in DIRECTIONS:
        sx, sy = d.step
        by_step[sx, sy] = d
        by_step[-sx, -sy] = d
    dir_maps = []
    for a, b, c, d in group:
        img = {}
        for direction in DIRECTIONS:
            sx, sy = direction.step
            ix, iy = a * sx + b * sy, c * sx + d * sy
            if ix < 0 or (ix == 0 and iy < 0):
                ix, iy = -ix, -iy
            img[direction] = by_step[ix, iy]
        dir_maps.append(img)

    span = board.variant.alpha - 1
    idx = range(len(group))

    def point_images(p):
        u, v = 2 * p[0] - cx, 2 * p[1] - cy
        return tuple((a * u + b * v, c * u + d * v) for a, b, c, d in group)

    def line_images(direction, anchor):
        head = point_images(anchor)
        sx, sy = direction.step
        tail = point_images((anchor[0] + span * sx, anchor[1] + span * sy))
        return tuple((dir_maps[i][direction], min(head[i], tail[i])) for i in idx)

    def key(b):
        crosses = [point_images(m.cross) for m in b.moves]
        lines = [line_images(m.direction, m.anchor) for m in b.moves]
        return min(
            (
                tuple(sorted(c[i] for c in crosses)),
                tuple(sorted(ln[i] for ln in lines)),
            )
            for i in idx
        )

    return key


def symmetric_image(board, sym, moves):
    """``moves`` mapped by the lattice symmetry ``sym`` about the start's centre."""
    a, b, c, d = sym
    init = board.initial
    cx = min(x for x, _ in init) + max(x for x, _ in init)
    cy = min(y for _, y in init) + max(y for _, y in init)

    def image(p):
        u, v = 2 * p[0] - cx, 2 * p[1] - cy
        return ((a * u + b * v + cx) // 2, (c * u + d * v + cy) // 2)

    span = board.variant.alpha - 1
    out = []
    for m in moves:
        sx, sy = m.direction.step
        ends = (image(m.anchor), image((m.anchor[0] + span * sx, m.anchor[1] + span * sy)))
        anchor = min(ends)
        step = (max(ends)[0] - anchor[0]) // span, (max(ends)[1] - anchor[1]) // span
        direction = next(dd for dd in DIRECTIONS if dd.step == step)
        out.append(Move(image(m.cross), direction, anchor))
    return out


@pytest.mark.parametrize("variant", [FIVE_D, SIX_D], ids=["5D", "6D"])
def test_symmetric_key_matches_reference_partition(variant):
    start = Board(variant)
    keys = _SymmetricKeys(start)
    reference = reference_state_key_fn(start)
    assert len(keys.group) == 8
    states = []
    for seed in range(6):
        game = seeded_prefix(variant, seed, 12).moves
        for depth in (1, 2, 3, 12):
            new_keys = set()
            for sym in _SYMMETRIES:
                board = start.copy()
                for mv in symmetric_image(start, sym, game[:depth]):
                    board.apply(mv)  # the start is symmetric: every image is legal
                new_key = min(keys.masks(board.moves))
                new_keys.add(new_key)
                states.append((new_key, reference(board)))
            assert len(new_keys) == 1, "the key must not depend on the frame"
    # equal new keys exactly when the reference keys are equal
    new_classes = {new for new, _ in states}
    ref_classes = {ref for _, ref in states}
    assert len(set(states)) == len(new_classes) == len(ref_classes)
    # shallow prefixes of different games coincide up to symmetry
    assert len(ref_classes) < len(states) // 8


def test_five_t_playouts_outscore_five_d_on_average():
    d = playout_sweep(FIVE_D, 0, 64)
    t = playout_sweep(FIVE_T, 0, 64)
    assert t.best_score > d.best_score


def test_bound_guard_rejects_impossible_records():
    long_moves = [Move((i, 0), Direction.E, (i, 0)) for i in range(140)]
    record = GameRecord(FIVE_D, long_moves, {})
    with pytest.raises(AssertionError):
        check_record_bounds(record)


def test_line_bound_guard_is_the_line_counting_scan():
    assert FIVE_D_LINE_BOUND == infeasibility_scan(ALL_RULES, 200)


def test_all_strategy_records_replay_with_n_lines_and_n_plus_36_crosses():
    records = [
        random_playout(FIVE_D, 3),
        greedy(FIVE_D, 2).best_record,
        beam_search(FIVE_D, 4, 2).best_record,
        nmcs(FIVE_D, 1, 2, node_budget=20000).best_record,
    ]
    for record in records:
        board = replay(record)
        n = len(record.moves)
        assert n <= 121
        assert len(board.lines) == n
        assert len(board.crosses) == 36 + n
