"""Acceptance gate: the eleven go/no-go checks, one per test, in order.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Numeric pins marked "calibrated" were frozen from the first
calibration run on the default seeds and act as regression floors; the hard
constants (36, 144, the bound table, 132/121/125, 9/34, 64/100, 12) are
exact by construction.
"""

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import two_direction_layout
from morpion.engine import Board, replay
from morpion.geometry import DIRECTIONS, FIVE_D, SIX_D, SIX_T
from morpion.linecover import (
    ALL_RULES,
    RULE_A,
    RULE_B,
    RULE_REMARK,
    coverage,
    grid_packing,
    infeasibility_scan,
    lemma_counting_replay,
    lemma_min_cover_bound,
    min_cover_exact,
    octagon_points,
    packing_search,
)
from morpion.potential import PUBLISHED_BOUNDS, potential_bound, potential_report
from morpion.recordio import (
    RenderSpec,
    emit_layout,
    emit_record,
    parse_layout,
    parse_record,
    render,
)
from morpion.solver import (
    beam_search,
    exhaustive_solve,
    greedy,
    nmcs,
    playout_sweep,
    random_playout,
    rng_stream,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, label, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} overran: {elapsed:.1f}s >= {limit_s}s"
    print(f"criterion {number:2d} PASS: {label} ({elapsed:.1f}s)")


def test_criterion_01_initial_state():
    with criterion(1, "initial board has 36 crosses and potential 144", 1.0):
        board = Board(FIVE_D)
        assert len(board.crosses) == 36
        assert potential_report(board).total == 144


def test_criterion_02_potential_law_over_1000_playouts():
    with criterion(2, "144-N identity and terminal lemma over 1000 playouts", 60.0):
        for seed in range(1000):
            rng = rng_stream(seed)
            board = Board(FIVE_D)
            n = 0
            while True:
                moves = board.legal_moves()
                if not moves:
                    break
                board.apply(moves[int(rng.integers(0, len(moves)))])
                n += 1
                assert potential_report(board).total == 144 - n
            report = potential_report(board)
            assert sum(report.recent[-3:]) >= 7
            assert report.recent[-1] == 3


def test_criterion_03_potential_bound_table():
    with criterion(3, "potential bounds 141/138/137/136", 1.0):
        assert [d.bound for d in PUBLISHED_BOUNDS] == [141, 138, 137, 136]
        assert potential_bound(144, 4, 1) == 141
        assert potential_bound(144, 6, 0) == 138
        assert potential_bound(144, 7, 0) == 137
        assert potential_bound(144, 9, 1) == 136


def test_criterion_04_line_based_scans():
    with criterion(4, "infeasibility scans A:132, A+B:121, A+remark:125", 1.0):
        assert infeasibility_scan(frozenset({RULE_A}), 200) == 132
        assert infeasibility_scan(frozenset({RULE_A, RULE_B}), 200) == 121
        assert infeasibility_scan(frozenset({RULE_A, RULE_REMARK}), 200) == 125
        assert infeasibility_scan(ALL_RULES, 200) == 121


def test_criterion_05_min_cover_oracle():
    with criterion(5, "exact two-direction min cover 9; lemma bound 34", 30.0):
        for d1, d2 in itertools.combinations(DIRECTIONS, 2):
            for window in (5, 6, 7):
                assert min_cover_exact({d1: 1, d2: 1}, window=window) == 9
        assert lemma_min_cover_bound(0) == 9
        assert lemma_min_cover_bound(1) == 34


def test_criterion_06_counting_lemma_replay():
    with criterion(6, "5-coloring replay on 1050 random two-direction layouts", 120.0):
        rng = np.random.default_rng(2024)
        pairs = list(itertools.permutations(DIRECTIONS, 2))
        checked = 0
        for i in range(1050):
            d1, d2 = pairs[i % len(pairs)]
            k = i % 3
            layout = two_direction_layout(rng, d1, d2, k)
            floor = lemma_counting_replay(layout, d1, d2)
            assert floor == (5 * k + 1) * 5 + 4
            assert coverage(layout) >= floor
            checked += 1
        assert checked >= 1000


def test_criterion_07_packing_frontier():
    with criterion(7, "grid packing 64/100; search frontier n >= 64", 600.0):
        layout = grid_packing(10)
        assert layout.line_count == 64
        assert coverage(layout) == 100
        assert layout.points() == octagon_points(10, 10, (0, 0, 0, 0))
        result = packing_search(
            "octagon", range(4, 15), range(4, 15), cuts=(0, 1, 2, 3)
        )
        assert result.n >= 64
        assert result.coverage <= result.n + 36
        # published frontier reaches 102 lines / 138 points; reported only,
        # the constructions beyond this search's family are not recoverable
        print(
            f"    frontier: search best n={result.n} coverage={result.coverage}; "
            f"stretch target n=102 coverage=138 not gated"
        )


def test_criterion_08_exhaustive_length_six_variants():
    with criterion(8, "exhaustive 6D and 6T optimum is exactly 12", 600.0):
        for variant in (SIX_D, SIX_T):
            result = exhaustive_solve(variant)
            assert result.exact, "node budget exceeded: not an exhaustive answer"
            assert result.best_score == 12
            # every game scores 12 (the 24 first moves form 12 exclusive
            # pairs and no move makes another; tests/test_length_six_proof.py),
            # so this pins transposition merging and the node count on a
            # uniform tree, not pruning: a search that missed a symmetric
            # twin, or merged two states that are not, would count otherwise
            assert result.nodes_expanded == 534_330
            assert len(result.best_record.moves) == 12
            replay(result.best_record)


def test_criterion_09_search_floors():
    with criterion(9, "10k playouts reach >= 40; NMCS level 2 reaches >= 60", 600.0):
        sweep = playout_sweep(FIVE_D, 0, 10_000, workers=4)
        assert sweep.best_score >= 40  # calibrated: seed 0 gives 61
        result = nmcs(FIVE_D, 2, 0, node_budget=20_000_000, stop_score=60)
        assert result.best_score >= 60  # calibrated: stops at 60 in < 1 min
        assert result.stopped_reason in ("stop-score", "complete")


def test_criterion_10_global_bound_guard():
    with criterion(10, "every produced record stays legal and <= 121 moves", 120.0):
        records = [random_playout(FIVE_D, seed) for seed in range(8)]
        records.append(greedy(FIVE_D, 0).best_record)
        records.append(beam_search(FIVE_D, 16, 0).best_record)
        records.append(nmcs(FIVE_D, 1, 0).best_record)
        records.append(playout_sweep(FIVE_D, 1, 64).best_record)
        records.append(exhaustive_solve(FIVE_D, node_budget=3000).best_record)
        for record in records:
            n = len(record.moves)
            assert n <= 121
            board = replay(record)
            assert len(board.lines) == n
            assert len(board.crosses) == 36 + n


def test_criterion_11_serialization_and_render_stability():
    with criterion(11, "golden roundtrips and byte-identical renders", 30.0):
        record_text = (GOLDEN / "greedy_5d_seed1.rec").read_text()
        assert emit_record(parse_record(record_text)) == record_text
        layout_text = (GOLDEN / "grid10.lay").read_text()
        assert emit_layout(parse_layout(layout_text)) == layout_text
        board = Board(FIVE_D)
        assert render(board) == render(board)
        assert render(board) == (GOLDEN / "initial_board_5d.txt").read_bytes()
        layout = parse_layout(layout_text)
        svg = render(layout, RenderSpec(format="svg"))
        assert svg == render(layout, RenderSpec(format="svg"))
        assert svg == (GOLDEN / "grid10.svg").read_bytes()
