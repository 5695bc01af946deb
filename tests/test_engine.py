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
    line_row,
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
        assert moves == sorted(oracle_moves(board))
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
            assert moves == sorted(oracle_moves(board))
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
    cross, in every direction, read as the engine reads it (the gather over
    cross flags indexed by the interned ids): the table's entries are exactly
    the segments through the cross that ``segment_through`` finds with one
    empty point, each as the move that places that point and the row
    ``line_row`` builds, so a line placed before a board's index was built
    is lifted after it, and the reverse.  Each entry is the geometry's one
    entry for its move."""
    geo = _geometry(alpha)
    origin = (0, 0)
    around = geo[origin]
    assert geo[origin] is around
    assert [d for d, _, _ in around] == list(DIRECTIONS)
    for d, gather, table in around:
        sx, sy = d.step
        assert table.line == tuple((t * sx, t * sy) for t in range(1 - alpha, alpha))
        nbrs = [p for p in table.line if p != origin]
        for bits in range(2 ** (2 * alpha - 2)):
            crosses = {origin} | {p for k, p in enumerate(nbrs) if (bits >> k) & 1}
            flags = bytearray(len(geo.ids))
            for p in crosses:
                flags[geo.ids[p]] = 1
            pattern = gather(flags)
            assert pattern == tuple(int(p in crosses) for p in nbrs)
            expected = []
            for shift in range(alpha):
                seg = segment_through(d, origin, shift, alpha)
                empty = [p for p in seg.points() if p not in crosses]
                if len(empty) == 1:
                    move = Move(empty[0], d, seg.anchor)
                    expected.append((move, line_row(d, seg.anchor, alpha)))
            entries = table[pattern]
            assert sorted(entries) == sorted(expected)
            assert table[pattern] is entries
            assert all(geo.entries[e[0]] is e for e in entries)


def test_first_move_example_legal():
    """Placing (2,0) and drawing east through (2..6,0) is a legal opener."""
    board = Board(FIVE_D)
    move = Move((2, 0), Direction.E, (2, 0))
    assert board.legality_failure(move) is None
    board.apply(move)
    assert (2, 0) in board.crosses
    assert board.score == 1


def test_illegal_move_reason_names_first_empty_point():
    board = Board(FIVE_D)
    move = Move((1, 0), Direction.E, (1, 0))  # would need (2,0) which is empty
    assert board.legality_failure(move) == "(c): point 2,0 empty"
    with pytest.raises(IllegalMoveError) as err:
        board.apply(move)
    assert "(c): point 2,0 empty" in str(err.value)


def test_illegal_reasons_cover_all_clauses():
    board = Board(FIVE_D)
    # (a) cross already present
    assert board.legality_failure(Move((0, 3), Direction.N, (0, 3))).startswith("(a)")
    # (b) line missing the new cross
    assert board.legality_failure(Move((2, 0), Direction.E, (3, 0))).startswith("(b)")
    # (d) conflict with an existing line
    board.apply(Move((2, 0), Direction.E, (2, 0)))
    assert board.legality_failure(Move((7, 0), Direction.E, (3, 0))).startswith("(d)")


def test_touching_rule_splits_5d_from_5t():
    """Two east lines sharing exactly one point: legal in 5T, not in 5D."""
    m1 = Move((4, 3), Direction.E, (0, 3))
    m2 = Move((5, 3), Direction.E, (4, 3))
    for variant, allowed in ((FIVE_T, True), (FIVE_D, False)):
        board = Board(variant)
        board.apply(m1)
        reason = board.legality_failure(m2)
        assert (reason is None) is allowed
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
        board.legal_moves(),
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
        board.legal_moves(),
    ) == baseline
    board.check_invariants()


def test_undo_on_fresh_board_fails():
    with pytest.raises(IndexError):
        Board(FIVE_D).undo()


def test_undo_takes_back_every_forced_move():
    """Forced moves play through ``_play``, so each one undoes like any
    other, overlapping lines included."""
    start = [(x, 0) for x in range(1, 5)]
    moves = [
        Move((5, 0), Direction.E, (1, 0)),
        Move((6, 0), Direction.E, (2, 0)),  # overlaps the first line
        Move((3, 1), Direction.N, (3, -3)),  # covers three empty points
    ]
    board = Board.force(FIVE_D, moves, start)
    for k in reversed(range(len(moves))):
        board.undo()
        ref = Board.force(FIVE_D, moves[:k], start)
        assert (board.moves, board.crosses, board.cover_count, board._line_offsets) == (
            ref.moves, ref.crosses, ref.cover_count, ref._line_offsets
        )
    assert board.crosses == set(start) and board.cover_count == {} and board._line_offsets == {}
    with pytest.raises(IndexError, match="no move to undo"):
        board.undo()


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
    # a board and its copy share one legal-move list, so a step on either
    # that edited it in place would show in the other's audit
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


def test_legal_moves_returns_a_fresh_list():
    board = Board(FIVE_D)
    moves = board.legal_moves()
    expected = tuple(moves)
    moves.clear()
    assert tuple(board.legal_moves()) == expected
    board.apply(expected[0])
    board.check_invariants()


@pytest.mark.parametrize("fan_out", ["copy", "start"])
def test_play_on_a_fan_out_leaves_the_published_lists_unchanged(fan_out):
    # every published legal-move list is shared: by a board's copies, its
    # undo trail and, for the start list, by every Board(variant)
    start = Board(FIVE_D)._legal
    start_snapshot = tuple(start)
    rng = random.Random(11)
    parent = Board(FIVE_D)
    for _ in range(3):
        parent.apply(rng.choice(parent.legal_moves()))
    published = [parent._legal, *(legal for legal, _ in parent._trail)]
    snapshots = [tuple(legal) for legal in published]
    child = parent.copy() if fan_out == "copy" else Board(FIVE_D)
    for _ in range(5):
        child.apply(rng.choice(child.legal_moves()))
    while child.moves:
        child.undo()
    child.apply(rng.choice(child.legal_moves()))
    assert [tuple(legal) for legal in published] == snapshots
    assert parent._legal is published[0]
    assert tuple(start) == start_snapshot
    assert Board(FIVE_D)._legal is start
    parent.check_invariants()


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


def play_and_check(board, rng, steps):
    """Play up to ``steps`` random moves, matching the oracle and the audit
    at every step."""
    for _ in range(steps):
        moves = board.legal_moves()
        assert moves == sorted(oracle_moves(board))
        board.check_invariants()
        if not moves:
            break
        board.apply(rng.choice(moves))
    board.check_invariants()


def test_flags_sized_before_another_board_interned_fresh_points():
    """Boards share one point-id table, so a board's cross flags can be
    shorter than the ids another board has interned since; the board must
    grow them before it reads the new points."""
    far = [(x + 500, y - 700) for x, y in initial_crosses(5)]
    early = Board(FIVE_D, far)
    early.legal_moves()  # builds the index, which sizes the flags
    sized = len(early._flags)
    other = Board(FIVE_D, far)
    rng = random.Random(31)
    for _ in range(25):
        moves = other.legal_moves()
        if not moves:
            break
        other.apply(rng.choice(moves))
    assert len(_geometry(5).ids) > sized
    # the same game again on the early board: every point it reaches was
    # interned after its flags were sized
    for move in other.moves:
        assert early.legal_moves() == sorted(oracle_moves(early))
        early.apply(move)
        early.check_invariants()
    assert len(early._flags) > sized
    play_and_check(early, random.Random(37), 10)


@pytest.mark.parametrize("variant", [FIVE_D, FIVE_T])
def test_far_from_the_origin_the_constructors_match_oracle(variant):
    far = [(x + 10**6, y - 10**6) for x, y in initial_crosses(5)]
    board = Board(variant, far)
    assert len(board.legal_moves()) == INITIAL_LEGAL_5D
    play_and_check(board, random.Random(41), 8)
    forced = Board.force(variant, board.moves, far)
    assert forced.crosses == board.crosses
    assert forced.legal_moves() == sorted(oracle_moves(forced))
    assert forced.legal_moves() == board.legal_moves()
    forced.check_invariants()
    play_and_check(forced, random.Random(43), 8)


@pytest.mark.parametrize("flip", ["cross", "empty"])
def test_check_invariants_rejects_a_flipped_cross_flag(flip):
    board = Board(FIVE_D)
    board.apply(board.legal_moves()[0])
    ids = _geometry(5).ids
    point = board.moves[0].cross if flip == "cross" else board.legal_moves()[0].cross
    board._flags[ids[point]] ^= 1
    with pytest.raises(AssertionError, match="cross flags out of sync"):
        board.check_invariants()


def test_check_invariants_rejects_an_index_out_of_order():
    board = Board(FIVE_D)
    board.apply(board.legal_moves()[0])
    legal = list(board._legal)
    legal[0], legal[1] = legal[1], legal[0]
    board._legal = legal
    with pytest.raises(AssertionError, match="legal index out of canonical order"):
        board.check_invariants()


@pytest.mark.parametrize("corrupt", ["row", "replayed row", "list"])
def test_check_invariants_rejects_a_corrupt_trail_entry(corrupt):
    board = Board(FIVE_D)
    for _ in range(2):
        board.apply(board.legal_moves()[0])
    if corrupt == "replayed row":
        board = replay(GameRecord(FIVE_D, board.moves))
    parent, row = board._trail[0]
    if corrupt == "list":
        # the list after both moves no longer holds the first
        board._trail[0] = (board._legal, row)
        match = "trail list lacks move"
    else:
        board._trail[0] = (parent, board._trail[1][1])
        match = "trail row of move .* out of sync"
    with pytest.raises(AssertionError, match=match):
        board.check_invariants()


# -- the index built on first read ---------------------------------------------

INDEX_VARIANTS = [Variant(4, False), Variant(4, True), FIVE_D, FIVE_T, SIX_D, SIX_T]


def random_game(variant, seed, limit):
    """Up to ``limit`` seeded random moves from the standard start."""
    rng = random.Random(seed)
    board = Board(variant)
    while board.score < limit and board.has_legal_moves():
        board.apply(rng.choice(board.legal_moves()))
    return board


def table_sizes(geo):
    """Points in the point table, interned ids, patterns in the entry
    tables of every point and direction, and shared entries."""
    patterns = sum(len(table) for around in geo.values() for _, _, table in around)
    return len(geo), len(geo.ids), patterns, len(geo.entries)


def unbuilt(variant, moves):
    board = replay(GameRecord(variant, list(moves)))
    assert board._legal is None
    return board


def candidate_moves(board):
    """Every segment through every point near the board, plus moves whose
    line misses the cross and moves far from the board: each legality clause
    fails on some of them."""
    alpha = board.variant.alpha
    xs = [p[0] for p in board.crosses]
    ys = [p[1] for p in board.crosses]
    far = (10**6, -(10**6))
    for x in range(min(xs) - alpha, max(xs) + alpha + 1):
        for y in range(min(ys) - alpha, max(ys) + alpha + 1):
            for d in DIRECTIONS:
                for shift in range(-1, alpha + 1):
                    yield Move((x, y), d, segment_through(d, (x, y), shift, alpha).anchor)
            yield Move((x, y), Direction.E, far)
    yield Move(far, Direction.N, far)


def board_pairs(variant):
    """An indexed and an unbuilt board at each of a few positions: the ends
    of three seeded random games, and a row of crosses with one line drawn,
    next to which a second line would touch the first."""
    for seed in range(3):
        board = random_game(variant, seed, 12 + 4 * seed)
        yield board, unbuilt(variant, board.moves)
    row = [(x, 0) for x in range(1, 2 * variant.alpha - 2)]
    first = Move((0, 0), Direction.E, (0, 0))
    indexed = Board(variant, row)
    assert indexed.legal_moves()
    yield indexed.apply(first), Board(variant, row).apply(first)


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_the_direct_check_accepts_exactly_the_indexed_moves(variant):
    """An unbuilt board tests each move against its own segment; it must
    accept the indexed board's legal moves and nothing else, and reject the
    rest for the reason the indexed board gives."""
    reasons = set()
    for board, direct in board_pairs(variant):
        assert direct._legal is None
        legal = set(board.legal_moves())
        accepted = set()
        for move in candidate_moves(board):
            want = board.legality_failure(move)
            try:
                direct.apply(move)
            except IllegalMoveError as exc:
                assert exc.reason == want, move
                reasons.add(want[:3])
                if want.startswith("(d)"):
                    seg = move.segment(variant.alpha)
                    shared = {segment_relation(seg, line) for line in board.lines}
                    reasons.add(OVERLAPPING if OVERLAPPING in shared else TOUCHING)
            else:
                assert want is None, move
                accepted.add(move)
                direct.undo()
            assert direct._legal is None
        assert accepted == legal
        assert direct.state_key() == board.state_key()
        assert direct.cover_count == board.cover_count
    # the D rule refuses a line that only touches another, the T rule one
    # that overlaps
    conflict = OVERLAPPING if variant.touching_allowed else TOUCHING
    assert {"(a)", "(b)", "(c)", "(d)", conflict} <= reasons


def audit(board):
    """``check_invariants`` and the oracle, on a copy while the board has no
    index, so the audit does not build it."""
    built = board._legal is not None
    probe = board if built else board.copy()
    probe.check_invariants()
    assert probe.legal_moves() == sorted(oracle_moves(board))
    assert (board._legal is not None) is built


@pytest.mark.parametrize("variant", [FIVE_D, FIVE_T, SIX_D])
def test_an_index_built_midway_survives_play_and_undo_to_the_start(variant):
    moves = random_game(variant, 53, 24).moves
    half = len(moves) // 2
    board = unbuilt(variant, [])
    audit(board)
    for move in moves[:half]:
        board.apply(move)
        audit(board)
        assert board._legal is None
    assert board.legal_moves() == sorted(oracle_moves(board))
    for move in moves[half:]:
        board.apply(move)
        audit(board)
    while board.moves:
        board.undo()
        audit(board)
        assert (board._legal is None) is (board.score < half)
    assert board.crosses == set(board.initial) and board.cover_count == {}


def test_copies_of_an_unbuilt_board_stay_independent():
    game = random_game(FIVE_D, 59, 30).moves
    board = unbuilt(FIVE_D, game[:10])
    clone = board.copy()
    assert clone.legal_moves()  # builds the clone's index, not the board's
    assert board._legal is None
    rng = random.Random(61)
    for _ in range(4):
        clone.apply(rng.choice(clone.legal_moves()))
    for move in game[10:14]:
        board.apply(move)
    clone.undo()
    board.undo()
    for target in (board, clone):
        again = unbuilt(FIVE_D, target.moves)
        assert target.state_key() == again.state_key()
        assert target.crosses == again.crosses
        assert target.cover_count == again.cover_count
        assert target._line_offsets == again._line_offsets
        audit(target)
    assert board._legal is None and clone._legal is not None


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_an_illegal_move_far_from_an_unbuilt_board_adds_no_point(variant):
    """The point table grows only with the legal-move index: the direct
    check of a move far from the board, on a board with no index, adds no
    point and no pattern."""
    alpha = variant.alpha
    geo = _geometry(alpha)
    boards = [
        unbuilt(variant, random_game(variant, 67, 10).moves),
        Board(variant, initial_crosses(alpha)),
    ]
    far = (3 * 10**9, 10**9)
    near = next(iter(boards[1].crosses))
    moves = [
        Move(far, Direction.E, far),  # (c): the line's other points are empty
        Move(far, Direction.NE, segment_through(Direction.NE, far, 2, alpha).anchor),
        Move(far, Direction.N, near),  # (b): the line misses the cross
        Move((near[0] + 1, 10**9), Direction.N, (near[0] + 1, near[1])),
    ]
    sizes = table_sizes(geo)
    for board in boards:
        for move in moves:
            with pytest.raises(IllegalMoveError):
                board.apply(move)
            assert board.legality_failure(move) is not None
            assert table_sizes(geo) == sizes
        assert board._legal is None


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_a_game_played_without_an_index_adds_no_point(variant):
    """The direct check reads the shared entries without writing them, and
    ``Board.force`` builds rows with ``line_row``, so a whole game played,
    undone and forced far from every other board leaves the point table,
    the ids, the entry tables and the shared entries as they were."""
    alpha = variant.alpha
    geo = _geometry(alpha)
    # an offset of its own per variant, far from every other test's boards
    dx, dy = 7 * 10**8 + 10**4 * (2 * alpha + variant.touching_allowed), -3 * 10**8

    def shift(p):
        return (p[0] + dx, p[1] + dy)

    crosses = [shift(p) for p in initial_crosses(alpha)]
    moves = [
        Move(shift(m.cross), m.direction, shift(m.anchor))
        for m in random_game(variant, 71, 20).moves
    ]
    sizes = table_sizes(geo)
    board = Board(variant, crosses)
    for move in moves:
        board.apply(move)
    assert board._legal is None and board.score == len(moves)
    offsets = {line: list(offs) for line, offs in board._line_offsets.items()}
    played = (set(board.crosses), dict(board.cover_count), offsets)
    while board.moves:
        board.undo()
    assert board.crosses == set(crosses) and board.cover_count == {}
    assert board._line_offsets == {}
    forced = Board.force(variant, moves, crosses)
    assert (forced.crosses, forced.cover_count, forced._line_offsets) == played
    assert table_sizes(geo) == sizes


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_apply_at_equals_applying_the_listed_move(variant):
    """On every 5th position of a seeded game, ``apply_at(i)`` equals
    ``copy().apply(legal_moves()[i])`` for every ``i``: on the played board,
    and on a replayed and a forced board that have no index until
    ``apply_at`` builds it.  ``undo`` restores the parent's index."""
    game = random_game(variant, 73, 10**6).moves
    start = initial_crosses(variant.alpha)
    for depth in range(0, len(game) + 1, 5):
        prefix = game[:depth]
        played = Board(variant)
        for move in prefix:
            played.apply(move)
        sources = [
            played.copy,
            lambda: unbuilt(variant, prefix),
            lambda: Board.force(variant, prefix, start),
        ]
        moves = played.legal_moves()
        parent = played._legal
        for i, move in enumerate(moves):
            ref = played.copy().apply(move)
            ref.check_invariants()
            for source in sources:
                board = source()
                board.apply_at(i)
                assert board.moves == ref.moves and board.crosses == ref.crosses
                assert board._legal == ref._legal
                board.undo()
                assert board._legal == parent and board.legal_moves() == moves
            board.check_invariants()


def test_apply_at_rejects_a_position_outside_the_list():
    """A negative or too large position raises ``IndexError`` and leaves the
    board as it was; it never counts from the end."""
    boards = [Board(FIVE_D), unbuilt(FIVE_D, random_game(FIVE_D, 79, 12).moves)]
    terminal = random_game(FIVE_D, 83, 10**6)
    assert terminal.legal_count() == 0
    boards.append(terminal)
    for board in boards:
        n = board.legal_count()
        assert n == len(board.legal_moves())
        before = (list(board.moves), set(board.crosses), board._legal)
        for i in (-1, -n, n, n + 1):
            with pytest.raises(IndexError):
                board.apply_at(i)
            assert (board.moves, board.crosses, board._legal) == before
        board.check_invariants()


def assert_entries_shared(board):
    """Every entry of ``board``'s index is its geometry's one entry for the
    move, and its row is the one ``line_row`` builds."""
    geo = _geometry(board.variant.alpha)
    for entry in board._index():
        move, row = entry
        assert geo.entries[move] is entry
        assert row == line_row(move.direction, move.anchor, board.variant.alpha)


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_every_index_entry_is_the_one_entry_of_its_move(variant):
    """At the start, through ``apply``, ``apply_at`` and ``undo``, and in an
    index rebuilt on a replayed, a ``Board(variant, crosses)`` and a
    far-from-origin board, each index entry is the shared entry of its move,
    with ``line_row``'s row."""
    game = random_game(variant, 89, 12).moves
    board = Board(variant)
    assert_entries_shared(board)
    for i, move in enumerate(game):
        if i % 2:
            board.apply(move)
        else:
            board.apply_at(board.legal_moves().index(move))
        assert_entries_shared(board)
    while board.moves:
        board.undo()
        assert_entries_shared(board)
    # an offset of its own per variant, far from every other test's boards
    dx, dy = -4 * 10**8, 9 * 10**8 + 10**4 * (2 * variant.alpha + variant.touching_allowed)
    far = [(x + dx, y + dy) for x, y in initial_crosses(variant.alpha)]
    rebuilt = [
        unbuilt(variant, game),
        Board(variant, initial_crosses(variant.alpha)),
        Board(variant, far),
    ]
    for other in rebuilt:
        assert other._legal is None
        assert_entries_shared(other)
        while other.has_legal_moves() and other.score < len(game) + 6:
            other.apply_at(other.score % other.legal_count())
            assert_entries_shared(other)
        other.check_invariants()


@pytest.mark.parametrize("variant", INDEX_VARIANTS)
def test_the_direct_check_plays_the_shared_row_of_a_listed_move(variant):
    """On a board with no index, a move that some index has listed is played
    with its shared entry's own row object; any other move with a new row
    equal to ``line_row``'s."""
    alpha = variant.alpha
    geo = _geometry(alpha)
    game = random_game(variant, 97, 10).moves
    board = Board(variant, initial_crosses(alpha))
    for move in game:
        board.apply(move)
        assert board._trail[-1][1] is geo.entries[move][1]
    assert board._legal is None
    # an offset of its own per variant, far from every other test's boards
    dx, dy = -6 * 10**8, -5 * 10**8 - 10**4 * (2 * alpha + variant.touching_allowed)

    def shift(p):
        return (p[0] + dx, p[1] + dy)

    far = Board(variant, [shift(p) for p in initial_crosses(alpha)])
    for move in game:
        moved = Move(shift(move.cross), move.direction, shift(move.anchor))
        far.apply(moved)
        assert far._trail[-1][1] == line_row(moved.direction, moved.anchor, alpha)
        assert moved not in geo.entries
