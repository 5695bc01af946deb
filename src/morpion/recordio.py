"""Game record and layout file formats, plus ASCII and SVG rendering.

Both formats are line-oriented UTF-8 with LF endings and no trailing
whitespace.  Emitters write the canonical form (metadata sorted by key,
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

import re
from dataclasses import dataclass

from .engine import Board, GameRecord, Move, replay
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
# column.
_MOVE_PARTS = _prefixes((
    (r"(\d+)", "move index"),
    (r" cross=", "' cross='"),
    (r"(-?\d+),(-?\d+)", "cross coordinates <x>,<y>"),
    (r" dir=", "' dir='"),
    (r"(NE|SE|E|N)", "direction (E|N|NE|SE)"),
    (r" anchor=", "' anchor='"),
    (r"(-?\d+),(-?\d+)", "anchor coordinates <x>,<y>"),
    (r"\Z", "end of line"),
))
_LAYOUT_PARTS = _prefixes((
    (r"dir=", "'dir='"),
    (r"(NE|SE|E|N)", "direction (E|N|NE|SE)"),
    (r" anchor=", "' anchor='"),
    (r"(-?\d+),(-?\d+)", "anchor coordinates <x>,<y>"),
    (r"\Z", "end of line"),
))
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


def _logical_lines(text: str):
    if "\r" in text:
        at = text.index("\r")
        raise RecordParseError(
            "carriage return (LF line endings required)", text.count("\n", 0, at) + 1
        )
    return text.splitlines()


def parse_record(text: str, validate: bool = True) -> GameRecord:
    """Parse a record file; by default also prove it legal by replaying it.

    Raises RecordParseError (with line/column) on malformed text and, when
    ``validate`` is set, lets the engine's IllegalMoveError propagate with
    the 1-based index of the offending move.
    """
    lines = _logical_lines(text)
    if not lines or not lines[0].strip():
        raise RecordParseError(f"empty file (expected '{RECORD_MAGIC} v1 ...')", 1)
    header = re.match(rf"{RECORD_MAGIC} v(\d+) variant=(\S+)\Z", lines[0])
    if header is None:
        if not lines[0].startswith(RECORD_MAGIC):
            raise RecordParseError(
                f"not a record file (expected '{RECORD_MAGIC} v1 variant=...')", 1
            )
        raise RecordParseError(
            f"malformed header (expected '{RECORD_MAGIC} v<n> variant=<name>')", 1
        )
    if header.group(1) != "1":
        raise RecordParseError(
            f"unsupported record version v{header.group(1)} (supported: v1)", 1
        )
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
    lines = _logical_lines(text)
    if not lines or not lines[0].strip():
        raise RecordParseError(f"empty file (expected '{LAYOUT_MAGIC} v1 ...')", 1)
    header = re.match(rf"{LAYOUT_MAGIC} v(\d+) alpha=(\d+)\Z", lines[0])
    if header is None:
        raise RecordParseError(
            f"malformed header (expected '{LAYOUT_MAGIC} v<n> alpha=<a>')", 1
        )
    if header.group(1) != "1":
        raise RecordParseError(
            f"unsupported layout version v{header.group(1)} (supported: v1)", 1
        )
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
    for seg in layout.segments():
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
    """Reduce the input to (point -> label, segments); label 'o' or move number."""
    if isinstance(obj, GameRecord):
        obj = replay(obj)
    if isinstance(obj, Board):
        points: dict = {p: "o" for p in obj.crosses}
        if annotate:
            for i, mv in enumerate(obj.moves, start=1):
                points[mv.cross] = i
        segments = obj.lines
    elif isinstance(obj, Layout):
        points = {p: "o" for p in obj.points()}
        segments = obj.segments()
    else:
        raise TypeError(f"cannot render {type(obj).__name__} (need Board, GameRecord, or Layout)")
    return points, sorted(segments, key=lambda s: (s.direction, s.anchor))


def render(obj, spec: RenderSpec | None = None) -> bytes:
    """Draw a Board, GameRecord, or Layout per the RenderSpec; deterministic bytes.

    Raises LayoutError when an ASCII grid would exceed a fixed cell cap."""
    spec = spec if spec is not None else RenderSpec()
    points, segments = _scene(obj, spec.annotate_moves)
    if spec.format == "ascii":
        return _render_ascii(points, segments)
    if spec.format == "svg":
        return _render_svg(points, segments)
    raise ValueError(f"unknown render format {spec.format!r} (expected ascii or svg)")


def _render_ascii(points: dict, segments: list[Segment]) -> bytes:
    """Character grid: lattice points on even rows, connectors between.

    Unannotated cells are one character wide ('o' cross, '.' empty) with
    '-', '|', '/', '\\' connectors and 'X' where the two diagonals cross.
    Annotated renders widen each cell so move numbers fit right-aligned on
    the lattice column.
    """
    if not points:
        return b""
    minx, miny, maxx, maxy = bounding_box(points)
    width = max((len(str(v)) for v in points.values() if v != "o"), default=1)
    width = 1 if width == 1 else max(3, width)
    step = width + 1

    nrows = 2 * (maxy - miny) + 1
    ncols = (maxx - minx) * step + width
    if nrows * ncols > _ASCII_CELL_CAP:
        raise LayoutError(
            f"ascii render needs {nrows}x{ncols} cells, over the cap of {_ASCII_CELL_CAP}"
        )
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


def _render_svg(points: dict, segments: list[Segment]) -> bytes:
    """SVG 1.1 subset: line elements (canonical order), then circles, then text."""
    cell = _SVG_CELL
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not points:
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{cell}" height="{cell}"></svg>')
        return ("\n".join(out) + "\n").encode()
    minx, miny, maxx, maxy = bounding_box(points)
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
