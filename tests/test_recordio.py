"""File formats and rendering: roundtrips, golden bytes, mutation fuzzing."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from morpion.engine import Board, GameRecord, IllegalMoveError, Move
from morpion.geometry import FIVE_D, SIX_D, Direction, Segment
from morpion.linecover import Layout, LayoutError, grid_packing, random_layout
from morpion.recordio import (
    RecordParseError,
    RenderSpec,
    emit_layout,
    emit_record,
    parse_layout,
    parse_record,
    render,
)
from morpion.solver import greedy, random_playout

from conftest import HUGE, OVERSIZED_FIELDS

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
    record = GameRecord(FIVE_D, [], {"zeta": "1", "alpha": "two words ok"})
    text = emit_record(record)
    assert text.index("alpha") < text.index("zeta")
    assert parse_record(text).metadata == {"alpha": "two words ok", "zeta": "1"}
    with pytest.raises(ValueError):
        emit_record(GameRecord(FIVE_D, [], {"bad key": "x"}))
    with pytest.raises(ValueError):
        emit_record(GameRecord(FIVE_D, [], {"k": "a\nb"}))


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

    bad_variant = good.replace("variant=5D", "variant=9Z")
    with pytest.raises(RecordParseError) as err:
        parse_record(bad_variant)
    assert err.value.line == 1

    # trailing whitespace is rejected, naming the spot
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


# -- layout format -----------------------------------------------------------


def test_layout_roundtrip_canonicalizes_order():
    layout = grid_packing(6)
    text = emit_layout(layout)
    again = parse_layout(text)
    assert emit_layout(again) == text
    assert again.canonical_key() == layout.canonical_key()
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
    art = render(Layout.from_segments([seg1, seg2]), RenderSpec()).decode()
    assert "X" in art
