"""Fuzzing of the file parsers and the CLI that reads files.

Bad input must fail with the documented error types (``RecordParseError``,
``IllegalMoveError``, ``LayoutError``) and the CLI with exit code 1 or 2,
never with another exception.  Texts are built from record and layout
fragments (a legal game's moves, well-formed and mangled lines, oversized
integers) as well as from arbitrary characters, so that examples get past
the header into the move, replay and render paths.  The CLI also reads
raw bytes, some of them not UTF-8.  The record-line matcher, which tries the
whole line first, is checked against a walk over its cumulative prefixes.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morpion.cli import main
from morpion.engine import IllegalMoveError
from morpion.geometry import FIVE_D
from morpion.linecover import LayoutError
from morpion.recordio import (
    _LAYOUT_PARTS,
    _MOVE_PARTS,
    RecordParseError,
    _match_parts,
    emit_record,
    parse_layout,
    parse_record,
)
from morpion.solver import random_playout

from conftest import HUGE

GAME_LINES = emit_record(random_playout(FIVE_D, 0)).splitlines()[1:]

numbers = st.one_of(
    st.integers(min_value=-12, max_value=12).map(str),
    st.text("0123456789-", min_size=1, max_size=4),
    st.just(HUGE),
)
dirs = st.sampled_from(["E", "N", "NE", "SE", "X"])
record_headers = st.sampled_from(
    [
        "morpion-record v1 variant=5D",
        "morpion-record v1 variant=5T",
        "morpion-record v1 variant=6D",
        "morpion-record v2 variant=5D",
        "morpion-record v1 variant=9Q",
    ]
)
layout_headers = st.one_of(
    st.sampled_from(["morpion-layout v1 alpha=5", "morpion-layout v0 alpha=5"]),
    numbers.map("morpion-layout v1 alpha={}".format),
)
move_lines = st.builds(
    "{} cross={},{} dir={} anchor={},{}".format,
    st.one_of(st.integers(min_value=1, max_value=14).map(str), numbers),
    numbers, numbers, dirs, numbers, numbers,
)
layout_lines = st.builds("dir={} anchor={},{}".format, dirs, numbers, numbers)
junk_lines = st.one_of(
    st.sampled_from(["# seed=1", "#", "# bad key=1", ""]), st.text(max_size=30)
)


@st.composite
def files(draw):
    """A record (a legal game's first moves) or a layout, with fuzzed lines mixed in."""
    if draw(st.booleans()):
        lines = [draw(record_headers)]
        lines += GAME_LINES[: draw(st.integers(min_value=0, max_value=12))]
        fuzzed = move_lines
    else:
        lines = [draw(layout_headers)]
        fuzzed = layout_lines
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        line = draw(st.one_of(fuzzed, fuzzed, junk_lines))
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), line)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))


@st.composite
def spliced(draw):
    """A record or layout file with a few arbitrary bytes spliced in."""
    data = draw(files()).encode()
    at = draw(st.integers(min_value=0, max_value=len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]


texts = st.one_of(files(), files(), files(), st.text(max_size=200))
contents = st.one_of(texts.map(str.encode), spliced(), st.binary(max_size=200))
FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(texts, st.booleans())
def test_parse_record_raises_only_documented_errors(text, validate):
    try:
        parse_record(text, validate=validate)
    except (RecordParseError, IllegalMoveError):
        pass


@FUZZ
@given(texts)
def test_parse_layout_raises_only_documented_errors(text):
    try:
        parse_layout(text)
    except (RecordParseError, LayoutError):
        pass


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(contents, st.sampled_from(["verify", "replay", "render"]))
def test_main_reading_fuzzed_files_exits_0_1_or_2(tmp_path, data, command):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        # a malformed input file, not a usage error
        assert code == 1


def walk_parts(parts, text, lineno):
    """Reference line matcher: match every cumulative prefix, stop at the first failure."""
    pos = 0
    for prefix, want in parts:
        m = re.match(prefix.pattern, text)
        if m is None:
            raise RecordParseError(f"expected {want}", lineno, pos + 1)
        pos = m.end()
    return m


@st.composite
def mutated(draw, lines):
    """A well-formed-looking line with a few characters inserted, deleted or replaced."""
    text = draw(lines)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=2))
        text = text[:at] + draw(st.text(" =,-0123456789ENSacdhinorsx\n", max_size=2)) + text[at + cut:]
    return text


def outcome(matcher, parts, text):
    try:
        return matcher(parts, text, 7).groups()
    except RecordParseError as exc:
        return (str(exc), exc.line, exc.column)


@FUZZ
@given(st.one_of(
    st.tuples(st.just(_MOVE_PARTS), mutated(st.one_of(move_lines, st.sampled_from(GAME_LINES)))),
    st.tuples(st.just(_LAYOUT_PARTS), mutated(layout_lines)),
))
def test_match_parts_agrees_with_the_prefix_walk(case):
    parts, text = case
    assert outcome(_match_parts, parts, text) == outcome(walk_parts, parts, text)
