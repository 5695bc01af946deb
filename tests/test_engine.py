"""Board mechanics against a definition-only oracle.

The oracle below re-derives the legal move set from nothing but the rules:
scan every empty point in a generous window, every direction, every shift
of the new cross along its line, and test the two conditions (all other
covered points bear crosses; the line conflicts with no same-direction
line).  The engine's incremental index must match it exactly, at the start
and throughout play.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morpion.engine import Board, GameRecord, IllegalMoveError, Move, _geometry, replay
from morpion.geometry import (
    DIRECTIONS,
    FIVE_D,
    FIVE_T,
    OVERLAPPING,
    SIX_D,
    SIX_T,
    TOUCHING,
    Direction,
    Variant,
    initial_crosses,
    segment_relation,
    segment_through,
)

# frozen oracle value: legal first moves on the standard 36-cross board,
# 12 in each axis direction plus 2 on each diagonal
INITIAL_LEGAL_5D = 28

# every supported variant; 5D, 5T, 6D come first so their test ids stay variant0..2
ALL_VARIANTS = [FIVE_D, FIVE_T, SIX_D, SIX_T] + [
    Variant(alpha, touching) for alpha in (3, 4) for touching in (False, True)
]


def oracle_moves(board):
    """Legal moves straight from the definition; O(window^2 * 4 * alpha)."""
    alpha = board.variant.alpha
    touching = board.variant.touching_allowed
    xs = [p[0] for p in board.crosses]
    ys = [p[1] for p in board.crosses]
    found = set()
    for x in range(min(xs) - alpha, max(xs) + alpha + 1):
        for y in range(min(ys) - alpha, max(ys) + alpha + 1):
            if (x, y) in board.crosses:
                continue
            for d in DIRECTIONS:
                for shift in range(alpha):
                    seg = segment_through(d, (x, y), shift, alpha)
                    if any(
                        p != (x, y) and p not in board.crosses for p in seg.points()
                    ):
                        continue
                    bad = False
                    for other in board.lines:
                        rel = segment_relation(seg, other)
                        if rel == OVERLAPPING or (rel == TOUCHING and not touching):
                            bad = True
                            break
                    if not bad:
                        found.add(Move((x, y), d, seg.anchor))
    return found


@pytest.mark.parametrize("variant", [FIVE_D, FIVE_T])
def test_initial_legal_moves_match_oracle(variant):
    board = Board(variant)
    moves = set(board.legal_moves())
    assert moves == oracle_moves(board)
    assert len(moves) == INITIAL_LEGAL_5D


def test_initial_legal_moves_by_direction():
    counts = {d: 0 for d in DIRECTIONS}
    for m in Board(FIVE_D).legal_moves():
        counts[m.direction] += 1
    assert counts == {Direction.E: 12, Direction.N: 12, Direction.NE: 2, Direction.SE: 2}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_legal_index_tracks_oracle_through_play(variant):
    rng = random.Random(11)
    board = Board(variant)
    applied = 0
    while board.score < 14:
        moves = board.legal_moves()
        assert set(moves) == oracle_moves(board)
        if not moves:
            break
        board.apply(rng.choice(moves))
        applied += 1
        if applied % 3 == 0:
            board.undo()
            board.check_invariants()
    board.check_invariants()


def test_boards_of_every_alpha_interleaved_match_oracle():
    """Boards of different line lengths, played in turn in one process.

    The segment tables are shared per process; the boards start from the
    same 36 crosses, so rows filed under the wrong line length would show
    up as legal-move sets that disagree with the oracle.
    """
    rng = random.Random(17)
    start = initial_crosses(5)
    boards = [Board(v, start) for v in ALL_VARIANTS] + [Board(FIVE_D), Board(SIX_T)]
    for _ in range(10):
        for board in boards:
            moves = board.legal_moves()
            assert set(moves) == oracle_moves(board)
            if not moves:
                continue
            board.apply(rng.choice(moves))
            if board.score > 1 and rng.random() < 0.3:
                board.undo()
                board.check_invariants()
    for board in boards:
        board.check_invariants()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_standard_start_is_untouched_by_play_on_another_board(variant):
    """``Board(variant)`` copies one start board per process; play on one
    copy must not leak into the next."""
    rng = random.Random(23)
    first = Board(variant)
    for _ in range(6):
        first.apply(rng.choice(first.legal_moves()))
    second = Board(variant)
    fresh = Board(variant, initial_crosses(variant.alpha))
    assert second.legal_moves() == fresh.legal_moves()
    assert second.crosses == fresh.crosses == set(second.initial)
    assert second.moves == [] and second.cover_count == {}
    second.check_invariants()


@pytest.mark.parametrize("alpha", [3, 4, 5, 6])
def test_window_table_matches_a_brute_force_count(alpha):
    """Every pattern of crosses on the 2 * alpha - 2 neighbours of a new
    cross, in every direction: the table's windows are exactly the segments
    through the cross that ``segment_through`` finds with one empty point."""
    geo = _geometry(alpha)
    origin = (0, 0)
    for d, nbrs, rows in geo.around(origin):
        for bits in range(2 ** (2 * alpha - 2)):
            pattern = bytes((bits >> k) & 1 for k in range(2 * alpha - 2))
            crosses = {origin} | {p for p, bit in zip(nbrs, pattern) if bit}
            expected = set()
            for shift in range(alpha):
                seg = segment_through(d, origin, shift, alpha)
                empty = [p for p in seg.points() if p not in crosses]
                if len(empty) == 1:
                    expected.add((seg.points(), empty[0]))
            hits = geo.windows[pattern]
            assert {(rows[i][0], nbrs[k]) for i, k in hits} == expected


def test_first_move_example_legal():
    """Placing (2,0) and drawing east through (2..6,0) is a legal opener."""
    board = Board(FIVE_D)
    move = Move((2, 0), Direction.E, (2, 0))
    ok, reason = board.is_legal(move)
    assert ok and reason is None
    board.apply(move)
    assert (2, 0) in board.crosses
    assert board.score == 1


def test_illegal_move_reason_names_first_empty_point():
    board = Board(FIVE_D)
    move = Move((1, 0), Direction.E, (1, 0))  # would need (2,0) which is empty
    ok, reason = board.is_legal(move)
    assert not ok
    assert reason == "(c): point 2,0 empty"
    with pytest.raises(IllegalMoveError) as err:
        board.apply(move)
    assert "(c): point 2,0 empty" in str(err.value)


def test_illegal_reasons_cover_all_clauses():
    board = Board(FIVE_D)
    # (a) cross already present
    ok, reason = board.is_legal(Move((0, 3), Direction.N, (0, 3)))
    assert not ok and reason.startswith("(a)")
    # (b) line missing the new cross
    ok, reason = board.is_legal(Move((2, 0), Direction.E, (3, 0)))
    assert not ok and reason.startswith("(b)")
    # (d) conflict with an existing line
    board.apply(Move((2, 0), Direction.E, (2, 0)))
    ok, reason = board.is_legal(Move((7, 0), Direction.E, (3, 0)))
    assert not ok and reason.startswith("(d)")


def test_touching_rule_splits_5d_from_5t():
    """Two east lines sharing exactly one point: legal in 5T, not in 5D."""
    m1 = Move((4, 3), Direction.E, (0, 3))
    m2 = Move((5, 3), Direction.E, (4, 3))
    for variant, allowed in ((FIVE_T, True), (FIVE_D, False)):
        board = Board(variant)
        board.apply(m1)
        ok, reason = board.is_legal(m2)
        assert ok is allowed
        if not allowed:
            assert reason.startswith("(d)")
        else:
            board.apply(m2)
            assert board.score == 2


def test_apply_undo_roundtrip_restores_everything():
    rng = random.Random(3)
    board = Board(FIVE_D)
    baseline = (
        set(board.crosses),
        list(board.lines),
        board.state_key(),
        set(board.legal_moves()),
    )
    depth = 0
    while depth < 30:
        moves = board.legal_moves()
        if not moves:
            break
        board.apply(rng.choice(moves))
        depth += 1
    board.check_invariants()
    for _ in range(depth):
        board.undo()
    assert (
        set(board.crosses),
        list(board.lines),
        board.state_key(),
        set(board.legal_moves()),
    ) == baseline
    board.check_invariants()


def test_undo_on_fresh_board_fails():
    with pytest.raises(IndexError):
        Board(FIVE_D).undo()


def test_state_key_merges_transposed_orders():
    board = Board(FIVE_D)
    a = Move((2, 0), Direction.E, (2, 0))
    b = Move((0, 2), Direction.N, (0, 2))
    board.apply(a)
    board.apply(b)
    key_ab = board.state_key()
    other = Board(FIVE_D)
    other.apply(b)
    other.apply(a)
    assert other.state_key() == key_ab
    other.undo()
    assert other.state_key() != key_ab


def test_copy_is_independent():
    # a board and its copy share their legal-move containers, so a step on
    # either that edited them in place would show in the other's audit
    rng = random.Random(3)
    board = Board(FIVE_D)
    for _ in range(3):
        board.apply(rng.choice(board.legal_moves()))
    clone = board.copy()
    steps = [
        (clone, "apply"), (board, "apply"), (clone, "apply"), (board, "undo"),
        (clone, "undo"), (board, "apply"), (clone, "undo"), (clone, "undo"),
        (clone, "apply"), (board, "undo"), (clone, "undo"), (board, "apply"),
    ]
    for target, step in steps:
        if step == "apply":
            target.apply(rng.choice(target.legal_moves()))
        else:
            target.undo()
        board.check_invariants()
        clone.check_invariants()
    # the clone was undone past the point it was copied at
    assert clone.score == 2 and board.score == 4
    while clone.moves:
        clone.undo()
        board.check_invariants()
        clone.check_invariants()
    assert clone.legal_moves() == Board(FIVE_D).legal_moves()


def test_replay_roundtrip_and_error_index():
    rng = random.Random(5)
    board = Board(FIVE_D)
    while board.has_legal_moves():
        board.apply(rng.choice(board.legal_moves()))
    record = GameRecord(FIVE_D, list(board.moves))
    replayed = replay(record)
    assert replayed.state_key() == board.state_key()

    bad = GameRecord(FIVE_D, list(board.moves[:4]) + [board.moves[2]])
    with pytest.raises(IllegalMoveError) as err:
        replay(bad)
    assert err.value.index == 5


def test_canonical_move_order_is_cross_then_direction_then_anchor():
    moves = Board(FIVE_D).legal_moves()
    assert moves == sorted(moves)
    assert moves[0].cross <= moves[-1].cross


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_play_keeps_invariants(seed):
    rng = random.Random(seed)
    board = Board(FIVE_T if seed % 2 else FIVE_D)
    for _ in range(rng.randrange(0, 40)):
        moves = board.legal_moves()
        if not moves:
            break
        board.apply(rng.choice(moves))
        if rng.random() < 0.25 and board.moves:
            board.undo()
    board.check_invariants()
    assert len(board.crosses) == 36 + board.score
    assert len(board.lines) == board.score


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_terminal_boards_have_no_oracle_moves(seed):
    rng = random.Random(seed)
    board = Board(FIVE_D)
    while board.has_legal_moves():
        board.apply(rng.choice(board.legal_moves()))
    assert oracle_moves(board) == set()


def test_six_variant_initial_moves_match_oracle():
    board = Board(SIX_D)
    assert len(board.crosses) == 48
    assert set(board.legal_moves()) == oracle_moves(board)
    assert len(board.legal_moves()) == 24


def test_force_reads_an_iterator_of_moves_once():
    move = Move((2, 0), Direction.E, (0, 0))
    crosses = [(0, 0), (1, 0), (3, 0), (4, 0)]
    board = Board.force(FIVE_D, iter([move]), crosses)
    assert board.moves == [move]
    assert board.lines == [move.segment(5)]
    assert board.crosses == set(crosses) | {move.cross}
    board.check_invariants()


def test_check_invariants_rejects_a_cross_off_its_line():
    # every point of the line bears a cross, so only the new clause catches it
    move = Move((5, 0), Direction.E, (0, 0))
    board = Board.force(FIVE_D, [move], [(x, 0) for x in range(5)])
    with pytest.raises(AssertionError, match="off its line"):
        board.check_invariants()
