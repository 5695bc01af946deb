"""Potential accounting: the 144 - N identity, bound table, replay monitors."""

import random

import pytest

from morpion.engine import Board, GameRecord, Move
from morpion.geometry import FIVE_D, FIVE_T, Direction
from morpion.potential import (
    PRE_MOVE_FLOOR,
    PUBLISHED_BOUNDS,
    BoundDerivation,
    MonitorFailure,
    check_terminal_lemma,
    potential_bound,
    potential_report,
    verify_record,
)


def test_initial_board_potential():
    report = potential_report(Board(FIVE_D))
    assert report.total == 144
    assert set(report.per_cross.values()) == {4}
    assert report.recent == ()


def test_identity_total_is_144_minus_n():
    rng = random.Random(2)
    board = Board(FIVE_D)
    n = 0
    while board.has_legal_moves():
        board.apply(rng.choice(board.legal_moves()))
        n += 1
        assert potential_report(board).total == 144 - n


def test_identity_holds_for_5t_arithmetic_too():
    """4 crosses gained minus 5 covers per move is pure arithmetic; the
    monitors stay 5D-gated but the identity itself is rule-independent."""
    rng = random.Random(9)
    board = Board(FIVE_T)
    for _ in range(20):
        if not board.has_legal_moves():
            break
        board.apply(rng.choice(board.legal_moves()))
    assert potential_report(board).total == 144 - board.score


def test_recent_and_last_k_sum():
    board = Board(FIVE_D)
    board.apply(Move((2, 0), Direction.E, (2, 0)))
    report = potential_report(board)
    assert report.recent == (3,)  # one line through the new cross
    assert report.last_k_sum(1) == 3
    assert report.last_k_sum(0) == 0
    with pytest.raises(ValueError):
        report.last_k_sum(2)


def test_published_bound_table():
    assert [d.bound for d in PUBLISHED_BOUNDS] == [141, 138, 137, 136]
    assert PUBLISHED_BOUNDS[0] == BoundDerivation(144, 4, 1)
    assert PUBLISHED_BOUNDS[-1] == BoundDerivation(144, 9, 1)


def test_potential_bound_formula_and_validation():
    assert potential_bound(144, 4, 1) == 141
    assert potential_bound(144, 9, 1) == 136
    with pytest.raises(ValueError):
        potential_bound(-1, 0, 0)
    with pytest.raises(ValueError):
        potential_bound(144, -2, 0)


def test_terminal_lemma_on_played_games():
    for seed in range(6):
        rng = random.Random(seed)
        board = Board(FIVE_D)
        while board.has_legal_moves():
            board.apply(rng.choice(board.legal_moves()))
        ok, witness = check_terminal_lemma(board)
        assert ok, witness
        assert sum(witness) >= 7
        # the final cross is covered by exactly the line that placed it
        assert witness[-1] == 3


def test_terminal_lemma_catches_synthetic_violation():
    """A board built with legality bypassed can end with last-three sum 6;
    the monitor must flag it."""
    crosses = [(0, 0), (3, 0), (4, 0), (5, 0)]
    forced = [
        Move((2, 0), Direction.E, (0, 0)),
        Move((1, 0), Direction.E, (1, 0)),
        Move((6, 0), Direction.E, (2, 0)),
    ]
    board = Board.force(FIVE_D, forced, crosses)
    assert not board.has_legal_moves()
    ok, witness = check_terminal_lemma(board)
    assert not ok
    assert witness == (1, 2, 3)
    assert sum(witness) == 6


def test_terminal_lemma_preconditions():
    board = Board(FIVE_D)
    with pytest.raises(ValueError):
        check_terminal_lemma(board)  # not terminal
    with pytest.raises(ValueError):
        check_terminal_lemma(Board(FIVE_T))  # wrong variant


def random_game(variant, seed):
    rng = random.Random(seed)
    board = Board(variant)
    while board.has_legal_moves():
        board.apply(rng.choice(board.legal_moves()))
    return GameRecord(variant, list(board.moves))


def test_pre_move_floor():
    record = random_game(FIVE_D, 4)
    board = Board(FIVE_D)
    for move in record.moves:
        assert potential_report(board).total >= PRE_MOVE_FLOOR
        board.apply(move)
    result = verify_record(record)
    assert result.potential == 144 - len(record.moves)
    assert result.terminal is not None and sum(result.terminal) >= 7
    assert result.lines == len(record.moves)
    # the monitors are 5D-only: a 5T record is replayed but not monitored
    result = verify_record(random_game(FIVE_T, 4))
    assert result.potential is None and result.terminal is None


def test_verify_record_catches_a_cover_count_corrupted_off_the_move(monkeypatch):
    """The total is recomputed at every position, so a count broken at a
    point the move does not touch still fails the identity."""
    record = random_game(FIVE_D, 6)
    apply = Board.apply

    def corrupting_apply(board, move):
        apply(board, move)
        if board.score == 10:
            line = set(move.segment(5).points())
            far = min(p for p in board.initial if p not in line)
            board.cover_count[far] = board.cover_count.get(far, 0) + 1
        return board

    monkeypatch.setattr(Board, "apply", corrupting_apply)
    with pytest.raises(MonitorFailure) as err:
        verify_record(record)
    assert err.value.check == "potential"
    assert str(err.value) == "total != 144-10 after move 10"
