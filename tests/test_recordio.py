"""File formats and rendering: roundtrips, golden bytes, mutation fuzzing, and
cell-by-cell reference renderers that ``render`` must equal byte for byte."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from morpion import engine, recordio
from morpion.engine import Board, GameRecord, IllegalMoveError, Move, _geometry, replay
from morpion.geometry import (
    DIRECTIONS,
    FIVE_D,
    FIVE_T,
    SIX_D,
    TOUCHING,
    Direction,
    Segment,
    Variant,
    bounding_box,
    initial_crosses,
    segment_relation,
)
from morpion.linecover import Layout, LayoutError, grid_packing
from morpion.recordio import (
    RecordParseError,
    RenderSpec,
    _scene,
    emit_layout,
    emit_record,
    parse_layout,
    parse_record,
    render,
)
from morpion.solver import beam_search, greedy, nmcs, random_playout

from conftest import HUGE, OVERSIZED_FIELDS, random_layout

GOLDEN = Path(__file__).parent / "golden"


# -- record format -----------------------------------------------------------


def test_empty_record_roundtrip_is_byte_identical():
    text = emit_record(GameRecord(FIVE_D, [], {}))
    assert text == "morpion-record v1 variant=5D\n"
    assert emit_record(parse_record(text)) == text


def test_playout_roundtrip_values_and_bytes():
    for seed in range(5):
        record = random_playout(FIVE_D, seed)
        text = emit_record(record)
        back = parse_record(text)
        assert back.variant == record.variant
        assert back.moves == record.moves
        assert back.metadata == record.metadata
        assert emit_record(back) == text


def test_six_variant_record_roundtrip():
    record = random_playout(SIX_D, 1)
    assert parse_record(emit_record(record)).variant == SIX_D


def test_golden_record_roundtrips_byte_identically():
    text = (GOLDEN / "greedy_5d_seed1.rec").read_text()
    assert emit_record(parse_record(text)) == text
    assert len(parse_record(text).moves) == 53


def test_metadata_is_sorted_and_validated():
    # values are written as they are: a trailing space or a tab round-trips
    values = {"zeta": "1", "alpha": "two words ok", "pad": "v ", "tab": "a\tb"}
    text = emit_record(GameRecord(FIVE_D, [], values))
    assert text.index("alpha") < text.index("zeta")
    assert "\n# pad=v \n" in text
    assert parse_record(text).metadata == values
    assert emit_record(parse_record(text)) == text
    with pytest.raises(ValueError):
        emit_record(GameRecord(FIVE_D, [], {"bad key": "x"}))
    with pytest.raises(ValueError):
        emit_record(GameRecord(FIVE_D, [], {"k": "a\nb"}))


# every separator ``str.splitlines`` splits at; the formats split at LF only
LINE_SEPARATORS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]


def test_line_separator_list_is_what_splitlines_splits_at():
    assert all(f"a{sep}b".splitlines() == ["a", "b"] for sep in LINE_SEPARATORS)
    others = [chr(c) for c in range(0x3000) if chr(c) not in "".join(LINE_SEPARATORS)]
    assert all(len(f"a{ch}b".splitlines()) == 1 for ch in others)


@pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=ascii)
def test_a_line_separator_in_metadata_round_trips_or_is_refused(sep):
    record = GameRecord(FIVE_D, [Move((2, 0), Direction.E, (2, 0))], {"note": f"a{sep}b"})
    if "\n" in sep or "\r" in sep:
        with pytest.raises(ValueError, match="line break"):
            emit_record(record)
        return
    text = emit_record(record)
    back = parse_record(text)
    assert back.metadata == record.metadata and back.moves == record.moves
    assert emit_record(back) == text


@pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=ascii)
@pytest.mark.parametrize("at", ["token", "number", "end"])
def test_a_line_separator_in_a_move_or_layout_line_names_its_line(sep, at):
    if sep == "\n" and at == "end":
        pytest.skip("an LF at the end of a line is its line ending")
    cases = (
        (parse_record, "morpion-record v1 variant=5D\n# k=v\n", "1 cross=2,0 dir=E anchor=2,0", 3),
        (parse_layout, "morpion-layout v1 alpha=5\n", "dir=E anchor=0,0", 2),
    )
    for parse, head, line, lineno in cases:
        cut = {"token": line.index(" "), "number": len(line) - 1, "end": len(line)}[at]
        text = head + line[:cut] + sep + line[cut:] + "\n"
        with pytest.raises(RecordParseError) as err:
            parse(text)
        assert err.value.line == lineno, text


def test_parse_errors_name_line_and_column():
    good = emit_record(random_playout(FIVE_D, 2))
    lines = good.splitlines()

    bad_dir = good.replace("dir=E", "dir=X", 1)
    with pytest.raises(RecordParseError) as err:
        parse_record(bad_dir)
    first = next(i for i, ln in enumerate(lines, 1) if "dir=E" in ln)
    assert err.value.line == first
    assert err.value.column == lines[first - 1].index("dir=") + 5
    assert "direction" in str(err.value)

    with pytest.raises(RecordParseError) as err:
        parse_record("morpion-record v9 variant=5D\n")
    assert "unsupported record version" in str(err.value)

    with pytest.raises(RecordParseError):
        parse_record("")
    with pytest.raises(RecordParseError) as err:
        parse_record("morpion-layout v1 alpha=5\n")
    assert "not a record file" in str(err.value)
    with pytest.raises(RecordParseError) as err:
        parse_record("morpion-record v1\n")
    assert "malformed header" in str(err.value)
    assert err.value.line == 1
    with pytest.raises(RecordParseError) as err:
        parse_layout("morpion-record v1 variant=5D\n")
    assert "not a layout file" in str(err.value)
    assert err.value.line == 1
    with pytest.raises(RecordParseError) as err:
        parse_layout("morpion-layout v1\n")
    assert "malformed header" in str(err.value)
    assert err.value.line == 1

    bad_variant = good.replace("variant=5D", "variant=9Z")
    with pytest.raises(RecordParseError) as err:
        parse_record(bad_variant)
    assert err.value.line == 1

    # a doubled space after a move index is rejected
    padded = good.replace("\n1 ", "\n1  ", 1)
    with pytest.raises(RecordParseError):
        parse_record(padded)

    crlf = good.replace("\n", "\r\n", 1)
    with pytest.raises(RecordParseError) as err:
        parse_record(crlf)
    assert "LF" in str(err.value)


def test_parse_rejects_out_of_order_indices():
    good = emit_record(random_playout(FIVE_D, 2))
    swapped = good.replace("\n1 ", "\n2 ", 1)
    with pytest.raises(RecordParseError) as err:
        parse_record(swapped)
    assert "out of order" in str(err.value)


def test_parse_rejects_metadata_after_moves_and_duplicates():
    base = emit_record(GameRecord(FIVE_D, [Move((2, 0), Direction.E, (2, 0))], {}))
    with pytest.raises(RecordParseError) as err:
        parse_record(base + "# late=1\n")
    assert "metadata after first move" in str(err.value)
    dup = "morpion-record v1 variant=5D\n# k=1\n# k=2\n"
    with pytest.raises(RecordParseError):
        parse_record(dup)


def test_validate_flag_controls_replay():
    text = "morpion-record v1 variant=5D\n1 cross=0,0 dir=E anchor=0,0\n"
    with pytest.raises(IllegalMoveError):
        parse_record(text)
    record = parse_record(text, validate=False)
    assert len(record.moves) == 1


def test_coordinate_mutations_are_caught_exactly_when_illegal():
    """Every +-1 coordinate flip either replays legally or parse rejects it;
    the two judgments must agree, and most flips must be illegal."""
    record = greedy(FIVE_D, 1).best_record
    moves = record.moves[:18]
    verdicts = {"legal": 0, "illegal": 0}
    for i, delta, field, axis in itertools.product(
        range(len(moves)), (1, -1), ("cross", "anchor"), (0, 1)
    ):
        mutated = list(moves)
        mv = mutated[i]
        point = list(getattr(mv, field))
        point[axis] += delta
        mutated[i] = mv._replace(**{field: tuple(point)})

        board = Board(FIVE_D)
        expect_illegal = False
        for m in mutated:
            if board.legality_failure(m) is not None:
                expect_illegal = True
                break
            board.apply(m)

        text = emit_record(GameRecord(FIVE_D, mutated, {}))
        if expect_illegal:
            with pytest.raises(IllegalMoveError):
                parse_record(text)
            verdicts["illegal"] += 1
        else:
            parse_record(text)
            verdicts["legal"] += 1
    assert verdicts["illegal"] > verdicts["legal"]
    assert verdicts["illegal"] + verdicts["legal"] == 18 * 2 * 2 * 2


def start_failure(move: Move, crosses: set) -> str:
    """The clause (a) or (c) that ``move`` breaks on a board with ``crosses``
    and no line, from the segment's points alone; "" if neither."""
    if move.cross in crosses:
        return f"(a): point {move.cross[0]},{move.cross[1]} already bears a cross"
    empty = [p for p in move.segment(5).points() if p != move.cross and p not in crosses]
    return f"(c): point {empty[0][0]},{empty[0][1]} empty" if empty else ""


def test_a_move_listed_in_another_game_is_still_refused_where_it_is_illegal():
    """A move some index has listed has a shared entry, whose row the
    unindexed check reads; where the move is illegal, ``replay``,
    ``parse_record``, ``render`` and ``legality_failure`` still name its
    clause and its 1-based index."""
    geo = _geometry(5)
    start = set(initial_crosses(5))
    game = random_playout(FIVE_D, 3).moves  # played on an indexed board
    late = next(m for m in game if start_failure(m, start).startswith("(c)"))
    opener = Move((2, 0), Direction.E, (2, 0))
    cases = [
        ([late], 1, start_failure(late, start)),
        ([opener, opener], 2, start_failure(opener, start | {opener.cross})),
        # listed at the start, and touches the opener under the D rule
        (
            [opener, Move((7, 0), Direction.E, (3, 0))],
            2,
            "(d): line touches an existing same-direction line",
        ),
    ]
    for moves, index, reason in cases:
        assert moves[-1] in geo.entries
        record = GameRecord(FIVE_D, moves)
        attempts = [
            lambda: replay(record),
            lambda: parse_record(emit_record(record)),
            lambda: render(record),
            lambda: render(record, RenderSpec("svg", annotate_moves=True)),
        ]
        for attempt in attempts:
            with pytest.raises(IllegalMoveError) as err:
                attempt()
            assert (err.value.reason, err.value.index) == (reason, index)
        board = replay(GameRecord(FIVE_D, moves[:-1]))
        assert board.legality_failure(moves[-1]) == reason


def test_a_tampered_record_adds_no_shared_entry_or_id():
    """Replaying a record reads the shared entries and never writes them:
    each one-coordinate tamper of a game leaves the entries and the
    interned ids as they were, whether it is refused or not."""
    geo = _geometry(5)
    moves = random_playout(FIVE_D, 5).moves
    sizes = (len(geo.entries), len(geo.ids))
    refused = 0
    for i in range(0, len(moves), 3):
        for field, axis, delta in itertools.product(("cross", "anchor"), (0, 1), (7, -7)):
            point = list(getattr(moves[i], field))
            point[axis] += delta
            tampered = list(moves)
            tampered[i] = moves[i]._replace(**{field: tuple(point)})
            record = GameRecord(FIVE_D, tampered)
            for attempt in (lambda: parse_record(emit_record(record)), lambda: render(record)):
                try:
                    attempt()
                except IllegalMoveError:
                    refused += 1
                assert (len(geo.entries), len(geo.ids)) == sizes
    assert refused > 0


# -- layout format -----------------------------------------------------------


def test_layout_roundtrip_canonicalizes_order():
    layout = grid_packing(6)
    text = emit_layout(layout)
    again = parse_layout(text)
    assert emit_layout(again) == text
    assert again == layout
    # scrambled segment order parses to the same layout
    head, *rest = text.splitlines()
    scrambled = "\n".join([head] + rest[::-1]) + "\n"
    assert emit_layout(parse_layout(scrambled)) == text


def test_golden_layout_roundtrips_byte_identically():
    text = (GOLDEN / "grid10.lay").read_text()
    assert emit_layout(parse_layout(text)) == text
    assert parse_layout(text).line_count == 64


def test_layout_parse_errors():
    with pytest.raises(RecordParseError):
        parse_layout("morpion-layout v2 alpha=5\n")
    with pytest.raises(RecordParseError):
        parse_layout("morpion-layout v1 alpha=2\n")
    # refused from the header alone, before any alpha-sized allocation
    for alpha in (7, 1_000_000_000):
        with pytest.raises(RecordParseError) as err:
            parse_layout(f"morpion-layout v1 alpha={alpha}\ndir=E anchor=0,0\n")
        assert err.value.line == 1 and "out of range" in str(err.value)
    with pytest.raises(RecordParseError) as err:
        parse_layout("morpion-layout v1 alpha=5\ndir=Q anchor=0,0\n")
    assert err.value.line == 2
    with pytest.raises(LayoutError):
        parse_layout(
            "morpion-layout v1 alpha=5\ndir=E anchor=0,0\ndir=E anchor=3,0\n"
        )


@pytest.mark.parametrize("field", sorted(OVERSIZED_FIELDS))
def test_oversized_integers_are_parse_errors_naming_the_field(field):
    template, line, column = OVERSIZED_FIELDS[field]
    parse = parse_layout if template.startswith("morpion-layout") else parse_record
    with pytest.raises(RecordParseError) as err:
        parse(template.format(HUGE))
    assert (err.value.line, err.value.column) == (line, column)
    assert "too many digits" in str(err.value)


def test_layout_alpha_other_than_five():
    text = "morpion-layout v1 alpha=6\ndir=E anchor=0,0\n"
    layout = parse_layout(text)
    assert layout.alpha == 6
    assert emit_layout(layout) == text


def test_layout_refuses_an_alpha_no_file_can_hold():
    with pytest.raises(LayoutError, match="alpha=7 out of range"):
        Layout(7, (Segment(Direction.E, (0, 0), 7),))
    with pytest.raises(LayoutError, match="alpha=2 out of range"):
        Layout(2, ())


@pytest.mark.parametrize("alpha", [3, 4, 5, 6])
def test_every_constructible_layout_round_trips(alpha):
    lines = (Segment(Direction.E, (0, 0), alpha), Segment(Direction.N, (0, 0), alpha))
    layout = Layout(alpha, lines)
    assert parse_layout(emit_layout(layout)) == layout


# -- rendering ---------------------------------------------------------------


def test_initial_board_ascii_matches_golden():
    got = render(Board(FIVE_D))
    assert got == (GOLDEN / "initial_board_5d.txt").read_bytes()


def test_annotated_render_matches_golden():
    record = greedy(FIVE_D, 1).best_record
    got = render(record, RenderSpec(annotate_moves=True))
    assert got == (GOLDEN / "greedy_5d_seed1_annotated.txt").read_bytes()


def test_render_is_deterministic():
    record = random_playout(FIVE_D, 4)
    for spec in (
        RenderSpec(),
        RenderSpec(annotate_moves=True),
        RenderSpec(format="svg"),
        RenderSpec(format="svg", annotate_moves=True),
    ):
        assert render(record, spec) == render(record, spec)


def test_grid10_svg_matches_golden_and_has_64_line_elements():
    data = render(grid_packing(10), RenderSpec(format="svg"))
    assert data == (GOLDEN / "grid10.svg").read_bytes()
    assert data.decode().count("<line ") == 64


def test_svg_line_count_tracks_layout_line_count():
    rng = np.random.default_rng(8)
    for _ in range(20):
        layout = random_layout(rng)
        data = render(layout, RenderSpec(format="svg")).decode()
        assert data.count("<line ") == layout.line_count


def test_record_and_replayed_board_render_identically():
    record = random_playout(FIVE_D, 12)
    board = Board(FIVE_D)
    for mv in record.moves:
        board.apply(mv)
    assert render(record) == render(board)


def test_render_rejects_unknown_format_and_type():
    with pytest.raises(ValueError):
        render(Board(FIVE_D), RenderSpec(format="png"))
    with pytest.raises(TypeError):
        render("not a board")
    # the format is checked before the record is replayed, so an illegal
    # record gets the format's error, not the replay's
    illegal = GameRecord(FIVE_D, [Move((0, 0), Direction.E, (0, 0))])
    with pytest.raises(IllegalMoveError):
        render(illegal)
    with pytest.raises(ValueError, match="unknown render format 'png'") as err:
        render(illegal, RenderSpec(format="png"))
    assert not isinstance(err.value, IllegalMoveError)


def test_empty_layout_renders():
    empty = Layout()
    assert render(empty) == b""
    svg = render(empty, RenderSpec(format="svg")).decode()
    assert svg.count("<line ") == 0 and "<svg" in svg


def test_ascii_marks_crosses_lines_and_diagonal_crossings():
    board = Board(FIVE_D)
    board.apply(Move((2, 0), Direction.E, (2, 0)))
    art = render(board).decode()
    assert "o-o-o-o-o" in art
    # x+y=3 meets y=x between lattice points, so one cell holds both glyphs
    seg1 = Segment(Direction.NE, (0, 0), 5)
    seg2 = Segment(Direction.SE, (0, 3), 5)
    crossing = Layout.from_segments([seg1, seg2])
    assert "X" in render(crossing, RenderSpec()).decode()
    assert_renders_match_references(crossing)


# -- the replay snapshot: render replays only what no replay has seen ---------


@pytest.fixture
def replays(monkeypatch):
    """The records ``parse_record`` and ``render`` replay during the test."""
    seen = []

    def counted(record):
        seen.append(record)
        return replay(record)

    for module in (engine, recordio):
        monkeypatch.setattr(module, "replay", counted)
    return seen


ALL_SPECS = [RenderSpec(fmt, annotate) for fmt in ("ascii", "svg") for annotate in (False, True)]


def test_a_parsed_record_renders_with_no_further_replay(replays):
    text = emit_record(random_playout(FIVE_D, 6))
    record = parse_record(text)
    assert len(replays) == 1
    for spec in ALL_SPECS:
        assert render(record, spec) == render(Board.force(FIVE_D, record.moves, initial_crosses(5)), spec)
    assert len(replays) == 1
    assert [render(record, spec) for spec in ALL_SPECS] == [
        render(replay(record), spec) for spec in ALL_SPECS
    ]
    # unvalidated, the same text is replayed on its first render only
    unchecked = parse_record(text, validate=False)
    assert render(unchecked) == render(record) == render(unchecked)
    assert len(replays) == 2 and replays[1] is unchecked


def test_a_hand_built_record_is_replayed_on_its_first_render(replays):
    moves = random_playout(FIVE_D, 6).moves
    record = GameRecord(FIVE_D, list(moves))
    first = render(record)
    assert replays == [record]
    assert render(record, RenderSpec("svg")) == render(replay(record), RenderSpec("svg"))
    assert first == render(replay(record)) and len(replays) == 1
    illegal = GameRecord(FIVE_D, [*moves[:4], moves[0]])
    with pytest.raises(IllegalMoveError) as err:
        render(illegal, RenderSpec("svg"))
    assert err.value.index == 5 and err.value.reason.startswith("(a)")


def test_a_record_changed_after_its_replay_is_replayed_again(replays):
    """Appending, replacing a move and switching the variant each void the
    snapshot: render replays and raises at the first illegal move, or draws
    the new legal game."""
    record = parse_record(emit_record(random_playout(FIVE_D, 6)))
    n = len(record.moves)
    record.moves.append(record.moves[0])
    with pytest.raises(IllegalMoveError) as err:
        render(record)
    assert err.value.index == n + 1
    record.moves.pop()
    before = render(record)  # the snapshot still holds the popped-back moves
    assert len(replays) == 2

    k = n // 2
    original = record.moves[k]
    record.moves[k] = record.moves[k - 1]
    with pytest.raises(IllegalMoveError) as err:
        render(record, RenderSpec("svg"))
    assert err.value.index == k + 1 and len(replays) == 3
    # another legal last move draws the new game
    record.moves[k] = original
    last = record.moves[-1]
    board = replay(GameRecord(FIVE_D, record.moves[:-1]))
    other = next(m for m in board.legal_moves() if m != last)
    record.moves[-1] = other
    assert render(record) == render(board.apply(other)) != before
    assert len(replays) == 4

    # every 5D game is a legal 5T game, drawn the same
    record.moves[-1] = last
    record.variant = FIVE_T
    assert render(record) == before and len(replays) == 5
    assert render(record) == before and len(replays) == 5


def first_illegal(variant: Variant, moves: list[Move]) -> int | None:
    """The 1-based index of the first of ``moves`` illegal under ``variant``."""
    board = Board(variant, initial_crosses(variant.alpha))
    for i, move in enumerate(moves, start=1):
        if board.legality_failure(move) is not None:
            return i
        board.apply(move)
    return None


def test_a_variant_switch_that_makes_a_move_illegal_is_caught(replays):
    for seed in itertools.count():
        record = random_playout(FIVE_T, seed)
        touch = first_illegal(FIVE_D, record.moves)
        if touch is not None:
            break
    image = render(record)
    assert replays == []
    record.variant = FIVE_D
    with pytest.raises(IllegalMoveError) as err:
        render(record)
    assert err.value.index == touch and "touches" in err.value.reason
    # the failed replay wrote no snapshot, so the 5T one still holds
    record.variant = FIVE_T
    assert render(record) == image and len(replays) == 1


@pytest.mark.parametrize(
    "search",
    [
        lambda: nmcs(FIVE_D, 1, 0).best_record,
        lambda: beam_search(FIVE_D, 4, 0).best_record,
        lambda: greedy(FIVE_D, 1).best_record,
        lambda: random_playout(FIVE_D, 9),
    ],
    ids=["nmcs", "beam_search", "greedy", "random_playout"],
)
def test_search_results_render_with_no_replay(replays, search):
    record = search()
    art = [render(record, spec) for spec in ALL_SPECS]
    assert replays == []
    assert art == [render(replay(record), spec) for spec in ALL_SPECS]
    record.moves.append(record.moves[0])
    with pytest.raises(IllegalMoveError) as err:
        render(record)
    assert err.value.index == len(record.moves) and replays == [record]


def test_the_replay_snapshot_is_not_part_of_equality_or_repr(replays):
    text = emit_record(random_playout(FIVE_D, 3))
    checked = parse_record(text)
    unchecked = parse_record(text, validate=False)
    plain = GameRecord(checked.variant, checked.moves, checked.metadata)
    assert checked._replayed is not None and unchecked._replayed is None
    for _ in range(2):
        assert checked == unchecked == plain
        assert repr(checked) == repr(unchecked) == repr(plain)
        # rendering both replays the unvalidated record only, and the
        # snapshot it writes leaves == and repr as they were
        assert render(checked) == render(unchecked)
        assert replays == [checked, unchecked]
    assert "_replayed" not in repr(checked)
    with pytest.raises(TypeError):
        GameRecord(FIVE_D, [], {}, checked._replayed)


# -- rendering against cell-by-cell references ------------------------------


def reference_ascii(points: dict, segments: list[Segment]) -> bytes:
    """The ASCII render cell by cell: every connector through a per-edge
    node mapping, then every cell of the box of the points and the
    segments' points."""
    if not points:
        return b""
    minx, miny, maxx, maxy = bounding_box([*points, *(p for s in segments for p in s.points())])
    width = max((len(str(v)) for v in points.values() if v != "o"), default=1)
    width = 1 if width == 1 else max(3, width)
    step = width + 1

    nrows = 2 * (maxy - miny) + 1
    ncols = (maxx - minx) * step + width
    grid = [[" "] * ncols for _ in range(nrows)]

    def node(x: int, y: int) -> tuple[int, int]:
        return 2 * (maxy - y), (x - minx) * step + width - 1

    for seg in segments:
        pts = seg.points()
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            r1, c1 = node(x1, y1)
            r2, c2 = node(x2, y2)
            if seg.direction is Direction.E:
                for c in range(c1 + 1, c2):
                    grid[r1][c] = "-"
            elif seg.direction is Direction.N:
                grid[(r1 + r2) // 2][c1] = "|"
            else:
                glyph = "/" if seg.direction is Direction.NE else "\\"
                r, c = (r1 + r2) // 2, (c1 + c2) // 2
                grid[r][c] = "X" if grid[r][c] in "/\\" and grid[r][c] != glyph else glyph

    for y in range(miny, maxy + 1):
        for x in range(minx, maxx + 1):
            r, c = node(x, y)
            label = points.get((x, y))
            if label is None:
                grid[r][c] = "."
            elif label == "o":
                grid[r][c] = "o"
            else:
                for i, ch in enumerate(reversed(str(label))):
                    grid[r][c - i] = ch

    text = "\n".join("".join(row).rstrip() for row in grid)
    return (text + "\n").encode()


def reference_svg(points: dict, segments: list[Segment]) -> bytes:
    """The SVG render with a pixel mapping per coordinate call."""
    cell = 24
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not points:
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{cell}" height="{cell}"></svg>')
        return ("\n".join(out) + "\n").encode()
    minx, miny, maxx, maxy = bounding_box([*points, *(p for s in segments for p in s.points())])
    w = (maxx - minx + 2) * cell
    h = (maxy - miny + 2) * cell

    def sx(x: int) -> int:
        return (x - minx + 1) * cell

    def sy(y: int) -> int:
        return (maxy - y + 1) * cell

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    )
    for seg in segments:
        (x1, y1), (x2, y2) = seg.anchor, seg.last
        out.append(
            f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{sx(x2)}" y2="{sy(y2)}"'
            f' stroke="#444" stroke-width="2"/>'
        )
    radius = cell * 3 // 10
    for x, y in sorted(points):
        if points[x, y] == "o":
            out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{radius}" fill="#222"/>')
        else:
            out.append(
                f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{radius}" fill="#fff"'
                f' stroke="#222" stroke-width="2"/>'
            )
    for number, (x, y) in sorted(
        (label, p) for p, label in points.items() if label != "o"
    ):
        out.append(
            f'<text x="{sx(x)}" y="{sy(y)}" font-size="{cell // 2}"'
            f' font-family="sans-serif" text-anchor="middle"'
            f' dominant-baseline="central">{number}</text>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()


def assert_renders_match_references(obj):
    """``render`` equals the references, ASCII and SVG, annotated and plain,
    with the segments in (direction, anchor) order."""
    for annotate in (False, True):
        points, segments, _ = _scene(obj, annotate)
        assert segments == sorted(segments, key=lambda s: (s.direction, s.anchor))
        for fmt, reference in (("ascii", reference_ascii), ("svg", reference_svg)):
            want = reference(points, segments)
            assert render(obj, RenderSpec(fmt, annotate)) == want, (fmt, annotate)


PLAYOUT_VARIANTS = [Variant.from_name(n) for n in ("4D", "4T", "5D", "5T", "6D", "6T")]


@pytest.mark.parametrize("variant", PLAYOUT_VARIANTS, ids=lambda v: v.name)
def test_playouts_render_as_the_references(variant):
    for seed in range(10):
        record = random_playout(variant, seed)
        assert_renders_match_references(record)
        # nine moves or fewer keep annotated cells one character wide
        assert_renders_match_references(GameRecord(variant, record.moves[:9]))


def test_layouts_and_packings_render_as_the_references():
    for seed in range(40):
        assert_renders_match_references(random_layout(np.random.default_rng(seed)))
    for n in range(1, 13):
        assert_renders_match_references(grid_packing(n))
    assert_renders_match_references(Layout())


def test_touching_collinear_lines_render_as_the_references():
    """A 5T game in which two lines on one lattice line share a point."""
    for seed in itertools.count():
        record = random_playout(FIVE_T, seed)
        lines = replay(record).lines
        if any(segment_relation(a, b) == TOUCHING for a, b in itertools.combinations(lines, 2)):
            break
    assert_renders_match_references(record)


def forced_board(seed: int, n: int) -> Board:
    """``n`` random lines forced inside a 14 x 14 box, most over empty points,
    some overlapping, on a board with only the box's corners as crosses."""
    rng = random.Random(seed)
    size = 14
    moves = []
    for _ in range(n):
        d = rng.choice(DIRECTIONS)
        sx, sy = d.step
        x = rng.randrange(0, size - 4 * sx + 1)
        y = rng.randrange(max(0, -4 * sy), size - max(0, 4 * sy) + 1)
        i = rng.randrange(5)
        moves.append(Move((x + i * sx, y + i * sy), d, (x, y)))
    return Board.force(FIVE_D, moves, [(0, 0), (size, size)])


def test_forced_boards_render_as_the_references():
    """Lines over empty points keep the '.' of every lattice point they pass
    over; 120 moves give three-digit labels."""
    for seed, n in ((0, 3), (1, 9), (2, 30), (3, 120), (4, 120)):
        board = forced_board(seed, n)
        assert any(p not in board.crosses for s in board.lines for p in s.points())
        assert_renders_match_references(board)
    art = render(forced_board(3, 120), RenderSpec(annotate_moves=True)).decode()
    assert "120" in art and "X" in art
    # an east line over an empty point: '.' between its connectors
    board = Board.force(FIVE_D, [Move((0, 0), Direction.E, (0, 0))], [(4, 0)])
    assert render(board) == b"o-.-.-.-o\n"
    assert_renders_match_references(board)


# a forced line with its cross inside the box of the crosses (0, 0) and
# (6, 6), leaving the box through each side
LEAVING_LINES = {
    "top": Move((3, 6), Direction.N, (3, 6)),
    "right": Move((4, 3), Direction.E, (4, 3)),
    "bottom": Move((3, 0), Direction.N, (3, -4)),
    "left": Move((0, 2), Direction.E, (-2, 2)),
    "top-right": Move((4, 4), Direction.NE, (4, 4)),
    "bottom-right": Move((4, 2), Direction.SE, (4, 2)),
}


@pytest.mark.parametrize("move", LEAVING_LINES.values(), ids=LEAVING_LINES.keys())
def test_a_forced_line_leaving_the_crosses_box_is_drawn_whole(move):
    """Both formats span the crosses and every point of every line."""
    board = Board.force(FIVE_D, [move], [(0, 0), (6, 6)])
    minx, miny, maxx, maxy = bounding_box([*board.crosses, *board.lines[0].points()])
    rows = render(board).decode().splitlines()
    assert len(rows) == 2 * (maxy - miny) + 1
    assert max(map(len, rows)) == 2 * (maxx - minx) + 1
    glyph = {Direction.E: "-", Direction.N: "|", Direction.NE: "/", Direction.SE: "\\"}
    assert "".join(rows).count(glyph[move.direction]) == 4
    svg = render(board, RenderSpec("svg")).decode()
    w, h = (maxx - minx + 2) * 24, (maxy - miny + 2) * 24
    assert f'viewBox="0 0 {w} {h}"' in svg
    assert_renders_match_references(board)
