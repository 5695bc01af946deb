"""Game record and layout file formats, plus ASCII and SVG rendering.

Both formats are line-oriented UTF-8 with LF endings.  Header, move and
layout lines have no trailing whitespace; a metadata value is everything
after its ``=``, so it round-trips exactly as written, trailing spaces and
tabs included.  Emitters write the canonical form (metadata sorted by key,
layout segments in (direction, anchor) order), so ``emit . parse`` is the
identity on canonical text and ``parse . emit`` is the identity on values;
metadata values are kept as strings for that reason.

Record files::

    morpion-record v1 variant=5D
    # seed=7
    # strategy=random
    1 cross=4,-1 dir=N anchor=4,-1
    2 cross=6,4 dir=E anchor=2,4

Layout files::

    morpion-layout v1 alpha=5
    dir=E anchor=0,0
    dir=N anchor=3,-2

Rendering is a pure function of (object, RenderSpec): identical inputs give
byte-identical output, which is what the golden-file tests pin down.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .engine import Board, GameRecord, Move, _start, ensure_legal, replay
from .geometry import SUPPORTED_ALPHAS, Direction, Segment, Variant, bounding_box
from .linecover import Layout, LayoutError, verify_layout

RECORD_MAGIC = "morpion-record"
LAYOUT_MAGIC = "morpion-layout"

#: Most characters an ASCII render may lay out.  The grid spans the bounding
#: box, so a few far-apart lines in a small layout file would otherwise ask
#: for unbounded memory; an annotated 5D game needs a few thousand.
_ASCII_CELL_CAP = 1_000_000

#: SVG pixels per lattice unit.
_SVG_CELL = 24


class RecordParseError(ValueError):
    """A record or layout file failed to parse.

    Carries the 1-based ``line`` and, when the failure is at a known
    position within the line, the 1-based ``column``.
    """

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


def _prefixes(parts: tuple[tuple[str, str], ...]) -> tuple[tuple[re.Pattern, str], ...]:
    """Each token's cumulative prefix pattern, compiled, with what the token expects."""
    out = []
    pattern = ""
    for fragment, want in parts:
        pattern += fragment
        out.append((re.compile(pattern), want))
    return tuple(out)


# Cumulative-prefix token lists: the last prefix is the whole line, whose
# groups are the line's fields.  On a mismatch the first failing prefix
# names what was expected and the end of the last matching one gives the
# column.  Both formats end a line with the same line tokens.
_LINE = (
    (r"(NE|SE|E|N)", "direction (E|N|NE|SE)"),
    (r" anchor=", "' anchor='"),
    (r"(-?\d+),(-?\d+)", "anchor coordinates <x>,<y>"),
    (r"\Z", "end of line"),
)
_MOVE_PARTS = _prefixes((
    (r"(\d+)", "move index"),
    (r" cross=", "' cross='"),
    (r"(-?\d+),(-?\d+)", "cross coordinates <x>,<y>"),
    (r" dir=", "' dir='"),
    *_LINE,
))
_LAYOUT_PARTS = _prefixes(((r"dir=", "'dir='"), *_LINE))
_META_RE = re.compile(r"# ([A-Za-z0-9_.-]+)=(.*)\Z")


def _match_parts(parts, text: str, lineno: int) -> re.Match:
    m = parts[-1][0].match(text)
    if m is not None:
        return m
    # the whole line failed: walk the prefixes to name the token and column
    pos = 0
    for prefix, want in parts:
        m = prefix.match(text)
        if m is None:
            break
        pos = m.end()
    raise RecordParseError(f"expected {want}", lineno, pos + 1)


def _ints(m: re.Match, groups: tuple[int, ...], lineno: int) -> list[int]:
    """``m``'s digit groups as ints; one over ``int``'s digit limit is a parse error."""
    out = []
    for g in groups:
        try:
            out.append(int(m.group(g)))
        except ValueError:
            raise RecordParseError("integer has too many digits", lineno, m.start(g) + 1) from None
    return out


def _logical_lines(text: str) -> list[str]:
    """The text's lines, split at LF only: ``str.splitlines`` would also split
    at characters such as U+2028 that a metadata value may hold."""
    if "\r" in text:
        at = text.index("\r")
        raise RecordParseError(
            "carriage return (LF line endings required)", text.count("\n", 0, at) + 1
        )
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _header(
    text: str, magic: str, field: str, value_re: str, hint: str
) -> tuple[list[str], re.Match]:
    """The lines of a ``magic`` file and the match of its v1 header
    ``<magic> v1 <field>=<value>``, whose group 2 is the value."""
    kind = magic.partition("-")[2]
    lines = _logical_lines(text)
    if not lines or not lines[0].strip():
        raise RecordParseError(f"empty file (expected '{magic} v1 ...')", 1)
    header = re.match(rf"{magic} v(\d+) {field}=({value_re})\Z", lines[0])
    if header is None:
        if not lines[0].startswith(magic):
            raise RecordParseError(f"not a {kind} file (expected '{magic} v1 {field}=...')", 1)
        raise RecordParseError(f"malformed header (expected '{magic} v<n> {field}={hint}')", 1)
    if header.group(1) != "1":
        raise RecordParseError(
            f"unsupported {kind} version v{header.group(1)} (supported: v1)", 1
        )
    return lines, header


def parse_record(text: str, validate: bool = True) -> GameRecord:
    """Parse a record file; by default also prove it legal by replaying it.

    Raises RecordParseError (with line/column) on malformed text and, when
    ``validate`` is set, lets the engine's IllegalMoveError propagate with
    the 1-based index of the offending move.  That replay writes the
    record's replay snapshot, so ``render`` draws the record unchanged with
    no further replay; with ``validate=False`` the first render replays it.
    """
    lines, header = _header(text, RECORD_MAGIC, "variant", r"\S+", "<name>")
    try:
        variant = Variant.from_name(header.group(2))
    except ValueError as exc:
        raise RecordParseError(str(exc), 1) from None

    metadata: dict[str, str] = {}
    moves: list[Move] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            if moves:
                raise RecordParseError("metadata after first move", lineno)
            m = _META_RE.match(raw)
            if m is None:
                raise RecordParseError("malformed metadata (expected '# key=value')", lineno)
            if m.group(1) in metadata:
                raise RecordParseError(f"duplicate metadata key {m.group(1)!r}", lineno)
            metadata[m.group(1)] = m.group(2)
            continue
        m = _match_parts(_MOVE_PARTS, raw, lineno)
        index, cx, cy, ax, ay = _ints(m, (1, 2, 3, 5, 6), lineno)
        if index != len(moves) + 1:
            raise RecordParseError(
                f"move index {index} out of order (expected {len(moves) + 1})", lineno, 1
            )
        moves.append(Move((cx, cy), Direction[m.group(4)], (ax, ay)))

    record = GameRecord(variant, moves, metadata)
    if validate:
        replay(record)
    return record


def emit_record(record: GameRecord) -> str:
    """Serialize a record canonically: sorted metadata, LF endings."""
    out = [f"{RECORD_MAGIC} v1 variant={record.variant.name}"]
    for key in sorted(record.metadata):
        value = str(record.metadata[key])
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", key):
            raise ValueError(f"metadata key {key!r} is not serializable")
        if "\n" in value or "\r" in value:
            raise ValueError(f"metadata value for {key!r} contains a line break")
        out.append(f"# {key}={value}")
    for i, mv in enumerate(record.moves, start=1):
        out.append(
            f"{i} cross={mv.cross[0]},{mv.cross[1]}"
            f" dir={mv.direction.name} anchor={mv.anchor[0]},{mv.anchor[1]}"
        )
    return "\n".join(out) + "\n"


def parse_layout(text: str) -> Layout:
    """Parse a layout file and check same-direction disjointness."""
    lines, header = _header(text, LAYOUT_MAGIC, "alpha", r"\d+", "<a>")
    (alpha,) = _ints(header, (2,), 1)
    if alpha not in SUPPORTED_ALPHAS:
        raise RecordParseError(f"alpha={alpha} out of range (supported: 3..6)", 1)

    segments = []
    for lineno, raw in enumerate(lines[1:], start=2):
        m = _match_parts(_LAYOUT_PARTS, raw, lineno)
        ax, ay = _ints(m, (2, 3), lineno)
        segments.append(Segment(Direction[m.group(1)], (ax, ay), alpha))
    layout = Layout.from_segments(segments, alpha)
    ok, why = verify_layout(layout)
    if not ok:
        raise LayoutError(why)
    return layout


def emit_layout(layout: Layout) -> str:
    """Serialize a layout canonically: segments in (direction, anchor) order."""
    out = [f"{LAYOUT_MAGIC} v1 alpha={layout.alpha}"]
    for seg in layout.lines:
        out.append(f"dir={seg.direction.name} anchor={seg.anchor[0]},{seg.anchor[1]}")
    return "\n".join(out) + "\n"


# -- rendering ---------------------------------------------------------------


@dataclass(frozen=True)
class RenderSpec:
    """How to draw a board or layout.

    format: "ascii" or "svg".
    annotate_moves: number the move crosses by 1-based move index.
    """

    format: str = "ascii"
    annotate_moves: bool = False


def _scene(obj, annotate: bool):
    """Reduce the input to (point -> label, segments in ``Segment`` order,
    the bounding box of the points and of both end points of every segment,
    or None when there is no point); label 'o' or move number.

    A record is replayed only when :func:`~morpion.engine.ensure_legal`
    finds no replay snapshot of its current variant and moves."""
    if isinstance(obj, GameRecord):
        ensure_legal(obj)
        return _game_scene(_start(obj.variant).initial, obj.moves, obj.variant.alpha, annotate)
    if isinstance(obj, Board):
        return _game_scene(obj.initial, obj.moves, obj.variant.alpha, annotate)
    if isinstance(obj, Layout):
        # a layout's points are its lines' points, end points included
        points = dict.fromkeys(obj.points(), "o")
        return points, list(obj.lines), bounding_box(points) if points else None
    raise TypeError(f"cannot render {type(obj).__name__} (need Board, GameRecord, or Layout)")


def _game_scene(initial, moves: list[Move], alpha: int, annotate: bool):
    """The scene of a game from its start crosses and its moves.  A forced
    line may pass over empty points and leave the box of the crosses, so
    each line's end points are added to the box."""
    points: dict = dict.fromkeys(initial, "o")
    segments = []
    ends = []
    n = alpha - 1
    for i, (cross, d, anchor) in enumerate(moves, start=1):
        points[cross] = i if annotate else "o"
        segments.append(Segment(d, anchor, alpha))
        sx, sy = d.step
        ends += (anchor, (anchor[0] + n * sx, anchor[1] + n * sy))
    box = bounding_box(itertools.chain(points, ends)) if points else None
    # the lines share one length, so this is (direction, anchor) order
    segments.sort()
    return points, segments, box


def render(obj, spec: RenderSpec | None = None) -> bytes:
    """Draw a Board, GameRecord, or Layout per the RenderSpec; deterministic bytes.

    A record is replayed, raising IllegalMoveError with the 1-based index of
    its first illegal move, unless its replay snapshot, written by
    ``engine.replay`` alone, equals its current variant and moves.  The
    format is checked before anything is replayed.  Raises LayoutError when
    an ASCII grid would exceed a fixed cell cap."""
    spec = spec if spec is not None else RenderSpec()
    draw = _RENDERERS.get(spec.format)
    if draw is None:
        raise ValueError(f"unknown render format {spec.format!r} (expected ascii or svg)")
    return draw(*_scene(obj, spec.annotate_moves))


def _render_ascii(points: dict, segments: list[Segment], box) -> bytes:
    """Character grid: lattice points on even rows, connectors between.

    Unannotated cells are one character wide ('o' cross, '.' empty) with
    '-', '|', '/', '\\' connectors and 'X' where the two diagonals cross.
    Annotated renders widen each cell so move numbers fit right-aligned on
    the lattice column.

    The grid spans ``box``.  Point ``(x, y)`` sits at row ``2 * (maxy - y)``
    and column ``(x - minx) * step + width - 1``.  Even rows start as copies
    of one dotted row.  Each line, in segment order, writes its connectors
    at those positions; then each cross or label is written over its '.'
    and over any '-' a wide label reaches.
    """
    if not points:
        return b""
    minx, miny, maxx, maxy = box
    width = max((len(str(v)) for v in points.values() if v != "o"), default=1)
    width = 1 if width == 1 else max(3, width)
    step = width + 1

    nrows = 2 * (maxy - miny) + 1
    ncols = (maxx - minx) * step + width
    if nrows * ncols > _ASCII_CELL_CAP:
        raise LayoutError(
            f"ascii render needs {nrows}x{ncols} cells, over the cap of {_ASCII_CELL_CAP}"
        )
    dots = ((" " * (width - 1) + ". ") * (maxx - minx + 1))[:ncols]
    grid = [list(dots) if r % 2 == 0 else [" "] * ncols for r in range(nrows)]

    half = step // 2  # a diagonal's connector column, right of its lower-x node
    for d, (x, y), length in segments:
        r = 2 * (maxy - y)
        c = (x - minx) * step + width - 1
        if d is Direction.E:
            # the node columns keep their '.', so a forced line over an
            # empty point still shows it
            end = c + (length - 1) * step
            grid[r][c + 1 : end] = (("-" * width + ".") * (length - 1))[:-1]
        elif d is Direction.N:
            for k in range(1, 2 * length - 2, 2):
                grid[r - k][c] = "|"
        else:
            glyph, dr = ("/", -1) if d is Direction.NE else ("\\", 1)
            c += half
            for _ in range(length - 1):
                r += dr
                row = grid[r]
                cell = row[c]
                # segment order puts every NE before every SE; a diagonal
                # over an 'X' (overlapping forced lines) writes its glyph
                row[c] = "X" if cell in "/\\" and cell != glyph else glyph
                r += dr
                c += step

    for (x, y), label in points.items():
        row = grid[2 * (maxy - y)]
        c = (x - minx) * step + width - 1
        if label == "o":
            row[c] = "o"
        else:
            text = str(label)
            row[c + 1 - len(text) : c + 1] = text

    text = "\n".join("".join(row).rstrip() for row in grid)
    return (text + "\n").encode()


def _render_svg(points: dict, segments: list[Segment], box) -> bytes:
    """SVG 1.1 subset: line elements (canonical order), then circles, then text.

    The view spans ``box`` with a one-cell margin; lattice ``(x, y)`` maps
    to pixel ``(x * cell + ox, oy - y * cell)``."""
    cell = _SVG_CELL
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not points:
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{cell}" height="{cell}"></svg>')
        return ("\n".join(out) + "\n").encode()
    minx, miny, maxx, maxy = box
    w = (maxx - minx + 2) * cell
    h = (maxy - miny + 2) * cell
    ox = (1 - minx) * cell
    oy = (maxy + 1) * cell

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">'
    )
    stroke = ' stroke="#444" stroke-width="2"/>'
    for seg in segments:
        (x1, y1), (x2, y2) = seg.anchor, seg.last
        out.append(
            f'<line x1="{x1 * cell + ox}" y1="{oy - y1 * cell}"'
            f' x2="{x2 * cell + ox}" y2="{oy - y2 * cell}"{stroke}'
        )
    radius = cell * 3 // 10
    cross = '"#222"/>'
    labelled = '"#fff" stroke="#222" stroke-width="2"/>'
    for x, y in sorted(points):
        fill = cross if points[x, y] == "o" else labelled
        out.append(f'<circle cx="{x * cell + ox}" cy="{oy - y * cell}" r="{radius}" fill={fill}')
    font = (
        f' font-size="{cell // 2}" font-family="sans-serif" text-anchor="middle"'
        f' dominant-baseline="central">'
    )
    for number, (x, y) in sorted((label, p) for p, label in points.items() if label != "o"):
        out.append(f'<text x="{x * cell + ox}" y="{oy - y * cell}"{font}{number}</text>')
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode()


_RENDERERS = {"ascii": _render_ascii, "svg": _render_svg}
