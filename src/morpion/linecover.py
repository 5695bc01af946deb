"""Counting arguments over line layouts.

A layout is a bag of same-length segments, same-direction ones pairwise
disjoint, with no moves or crosses attached: :class:`Layout` holds them as one
tuple in canonical ``(direction, anchor)`` order.  Any game that reaches N
moves has drawn N such lines covering at most N+36 lattice points, so a lower
bound c'(N) on the points that ANY N valid lines must cover yields a score
bound: the first N with c'(N) > N + 36 is unreachable, and N-1 bounds the
score.

The layout searches test disjointness with the engine's D-rule test,
:func:`~morpion.geometry.conflicts`, over maps its bookkeeper
:func:`~morpion.geometry.place_line`/``lift_line`` keeps; :func:`verify_layout`
compares each line with the next on its lattice line by anchor offset and
calls :func:`~morpion.geometry.segment_relation` only to name the offence.

The bound ladder:

* base rule (A): some direction holds at least ceil(N/4) of the lines, and
  same-direction lines are disjoint, so c(N) >= ceil(N/4) * 5.
* two-direction rule (B): when N is not 1 mod 4, two directions each hold
  ceil(N/4) lines; if that count is 5k+1, a 5-coloring argument adds 4.
* the +5 refinement: same setup with ceil(N/4) = 2 or 3 mod 5 adds 5.

Scanning N upward with these rules yields the bounds 132, 121, and 125 (the
refinement without rule B).  ``min_cover_exact`` is a brute-force oracle for
the minimum coverage at desk scale, and the packing constructors build
layouts witnessing that c(N) <= N+36 holds for all N the bag of rules cannot
exclude, which caps what this style of argument can prove.  They pack each
shape's collinear runs greedily, then a post-pass shifts lines to shed
points and adds lines while the n+36 slack allows; it keeps cover counts
and per-lattice-line offers up to date, so each shift or added line
re-scores only the points and lattice lines it touches.  The packers work
on lattice arithmetic: runs are grouped by the per-direction key and offset
coefficients of :data:`~morpion.geometry.LATTICE`, shifts and offers are
scored from an anchor plus multiples of the direction's step, and only a
line that is kept becomes a :class:`~morpion.geometry.Segment`.

The counting analyses (the bound ladder, ``min_cover_exact`` and
``lemma_counting_replay``) are for length-5 lines only, though a layout
file may hold lines of length 3 to 6; ``lemma_counting_replay`` raises
``LayoutError`` on a layout of any other alpha.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Mapping

from .geometry import (
    DIRECTIONS,
    LATTICE,
    SUPPORTED_ALPHAS,
    Direction,
    Point,
    Segment,
    conflict_reach,
    conflicts,
    initial_crosses,
    lift_line,
    line_key,
    line_row,
    place_line,
    point_at,
    segment_relation,
)


class LayoutError(ValueError):
    """A layout violates same-direction disjointness or is malformed."""


class ExactSearchBudgetError(RuntimeError):
    """min_cover_exact refused or abandoned a search over the node budget."""


# same-direction length-5 lines conflict when their anchors are this close
_REACH = conflict_reach(5, False)

# the crosses of the 5D/5T start: N moves cover at most N + START_CROSSES points
START_CROSSES = len(initial_crosses(5))


RULE_A = "A"
RULE_B = "B"
RULE_REMARK = "remark"
ALL_RULES = frozenset((RULE_A, RULE_B, RULE_REMARK))


@dataclass(frozen=True)
class Layout:
    """A bag of lines, all of length ``alpha``: an immutable ``(alpha, lines)`` pair.

    ``lines`` is one tuple in canonical ``(direction, anchor)`` order, which
    construction sets however the lines are given, so two layouts of the
    same lines are equal; an ``alpha`` outside ``SUPPORTED_ALPHAS`` or a
    line of another length raises :class:`LayoutError` there, so every
    layout emits a file that parses back.  :func:`verify_layout` checks that
    same-direction lines are disjoint.
    """

    alpha: int = 5
    lines: tuple[Segment, ...] = ()

    def __post_init__(self):
        if self.alpha not in SUPPORTED_ALPHAS:
            raise LayoutError(f"alpha={self.alpha} out of range (supported: 3..6)")
        lines = tuple(sorted(self.lines))
        for seg in lines:
            if seg.length != self.alpha:
                raise LayoutError(f"segment {seg} has length {seg.length}, expected {self.alpha}")
        object.__setattr__(self, "lines", lines)

    @classmethod
    def from_segments(cls, segments: Iterable[Segment], alpha: int = 5) -> "Layout":
        return cls(alpha, tuple(segments))

    @property
    def line_count(self) -> int:
        return len(self.lines)

    def points(self) -> set[Point]:
        covered: set[Point] = set()
        for seg in self.lines:
            covered.update(seg.points())
        return covered


def verify_layout(layout: Layout) -> tuple[bool, str | None]:
    """Pairwise same-direction disjointness.

    Returns (True, None) or (False, message naming the first offense).
    Segments on different lattice lines are disjoint, so each segment is
    compared only with the later ones on its own lattice line.  Along a
    lattice line anchor order is offset order, and collinear lines meet
    exactly when their anchors are under ``alpha`` apart, so only the next
    mate is compared: if it is disjoint from the segment, so are the rest.
    """
    mates: dict[tuple[Direction, int], list[Segment]] = {}
    for seg in layout.lines:
        mates.setdefault((seg.direction, seg.key), []).append(seg)
    passed = dict.fromkeys(mates, 0)
    for a in layout.lines:
        line_id = (a.direction, a.key)
        line = mates[line_id]
        # a is the passed[line_id]-th segment of its line, so line[j] is the next
        passed[line_id] = j = passed[line_id] + 1
        if j < len(line) and line[j].offset - a.offset < layout.alpha:
            b = line[j]
            return (False, f"same-direction segments {a} and {b} are {segment_relation(a, b)}")
    return (True, None)


def coverage(layout: Layout) -> int:
    """Number of lattice points covered by the layout's lines."""
    ok, why = verify_layout(layout)
    if not ok:
        raise LayoutError(why)
    return len(layout.points())


def claim_a_lower(n: int) -> int:
    """ceil(n/4) * 5: the single-direction disjointness floor on coverage."""
    if n < 0:
        raise ValueError("line count must be nonnegative")
    return -(-n // 4) * 5


def lemma_min_cover_bound(k: int) -> int:
    """(5k+1)*5 + 4: minimum coverage of 5k+1 lines in each of two directions."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (5 * k + 1) * 5 + 4


@dataclass(frozen=True)
class CoverBound:
    """A certified lower bound on c(n) and the rule that produced it."""

    n: int
    bound: int
    rule: str  # "A" | "B" | "remark-plus-5" | "none"


def combined_lower(n: int, rules: frozenset[str] = ALL_RULES) -> CoverBound:
    """Best lower bound on c(n) from the enabled rules.

    The two add-ons share the hypothesis n != 1 (mod 4), which forces two
    directions to hold ceil(n/4) lines each; they differ on what
    ceil(n/4) mod 5 must be (1 for the +4 rule, 2 or 3 for the +5 rule).
    """
    if n < 1:
        raise ValueError("combined_lower is defined for n >= 1")
    unknown = rules - ALL_RULES
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    k = -(-n // 4)
    best = CoverBound(n, 0, "none")
    if RULE_A in rules:
        best = CoverBound(n, claim_a_lower(n), RULE_A)
    if n % 4 != 1:
        if RULE_B in rules and k % 5 == 1:
            bound = lemma_min_cover_bound((k - 1) // 5)
            if bound > best.bound:
                best = CoverBound(n, bound, RULE_B)
        if RULE_REMARK in rules and k % 5 in (2, 3) and 5 * k + 5 > best.bound:
            best = CoverBound(n, 5 * k + 5, "remark-plus-5")
    return best


def scan_table(
    rules: frozenset[str], n_max: int
) -> list[tuple[int, str, int, int, bool]]:
    """Rows (n, rule, lower bound, n+36, feasible) for n = 1..n_max.

    Stops at the first infeasible row (inclusive), where the lower bound
    exceeds the n+36 points a real game could have on the board.  An empty
    rule set bounds nothing, so no row would ever be infeasible; it raises
    ``ValueError``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not rules:
        raise ValueError("the rule set is empty: no N is ever infeasible")
    rows = []
    for n in range(1, n_max + 1):
        cb = combined_lower(n, rules)
        feasible = cb.bound <= n + START_CROSSES
        rows.append((n, cb.rule, cb.bound, n + START_CROSSES, feasible))
        if not feasible:
            break
    return rows


def infeasibility_scan(rules: frozenset[str], n_max: int) -> int | None:
    """Score bound implied by the first n whose coverage floor exceeds n+36.

    Returns that n minus 1, or None when every n up to n_max stays feasible.
    """
    rows = scan_table(rules, n_max)
    n, _, _, _, feasible = rows[-1]
    return None if feasible else n - 1


# -- exact minimum coverage at desk scale ---------------------------------

# (counts, window) -> (minimum, nodes the search took)
_exact_cache: dict[tuple, tuple[int, int]] = {}


def min_cover_exact(
    n_per_direction: Mapping[Direction, int],
    window: int,
    node_budget: int = 10**8,
) -> int:
    """Exhaustive minimum of coverage over all valid windowed placements.

    Anchors range over the window x window square; same-direction lines must
    be disjoint.  Translation is factored out by keeping only placements
    whose anchor set touches x=0 and y=0.  Configurations whose estimated
    tree exceeds ``node_budget`` are rejected up front ("too large for exact
    search") rather than answered approximately, and so is a search that
    takes more than ``node_budget`` nodes, whether or not its answer is cached.
    """
    # written so that NaN fails too: no node count ever passes a NaN budget
    if not node_budget >= 0:
        raise ValueError("node budget must be >= 0")
    counts = {d: n_per_direction.get(d, 0) for d in DIRECTIONS}
    if any(d not in counts for d in n_per_direction):
        raise ValueError(f"line counts keyed by {list(n_per_direction)!r}, not all directions")
    if not all(isinstance(c, Integral) and c >= 0 for c in counts.values()):
        raise ValueError(f"line counts must be nonnegative integers, not {list(counts.values())!r}")
    if window < 1:
        raise ValueError("window must be positive")
    total = sum(counts.values())
    if total == 0:
        return 0

    cells = window * window
    estimate = 1
    for c in counts.values():
        estimate *= math.comb(cells, c)
        if estimate > node_budget:
            raise ExactSearchBudgetError(
                f"too large for exact search: ~{estimate:.2e} placements > budget {node_budget}"
            )

    over = f"too large for exact search: exceeded budget {node_budget}"
    cache_key = (tuple(counts[d] for d in DIRECTIONS), window)
    if cache_key in _exact_cache:
        # answer as the search would: it takes the same nodes every time
        best, nodes = _exact_cache[cache_key]
        if nodes > node_budget:
            raise ExactSearchBudgetError(over)
        return best

    anchors = [(x, y) for x in range(window) for y in range(window)]
    active = [d for d in DIRECTIONS if counts[d]]
    rows = {d: [line_row(d, a, 5) for a in anchors] for d in active}
    cover: dict[Point, int] = {}
    placed_offsets: dict[tuple[Direction, int], list[int]] = {}
    best = total * 5 + 1
    nodes = 0

    def place(di: int, remaining: int, start: int, min_x: int, min_y: int) -> None:
        nonlocal best, nodes
        if remaining == 0:
            di += 1
            if di == len(active):
                if min_x == 0 and min_y == 0 and len(cover) < best:
                    best = len(cover)
                return
            remaining = counts[active[di]]
            start = 0
        d_rows = rows[active[di]]
        for idx in range(start, len(d_rows)):
            pts, off, line = row = d_rows[idx]
            if conflicts(placed_offsets, _REACH, line, off):
                continue
            nodes += 1
            if nodes > node_budget:
                raise ExactSearchBudgetError(over)
            fresh = sum(1 for p in pts if p not in cover)
            if len(cover) + fresh < best:
                ax, ay = pts[0]
                place_line(placed_offsets, cover, row)
                place(di, remaining - 1, idx + 1, min(min_x, ax), min(min_y, ay))
                lift_line(placed_offsets, cover, row)

    place(0, counts[active[0]], 0, window, window)

    if best > total * 5:
        raise ValueError(f"no valid placement of {counts} fits in window {window}")

    floor = claim_a_lower(total)
    two = [c for c in counts.values() if c]
    if len(two) == 2 and two[0] == two[1] and (two[0] - 1) % 5 == 0:
        floor = max(floor, lemma_min_cover_bound((two[0] - 1) // 5))
    assert best >= floor, f"exact search returned {best}, below the certified floor {floor}"

    _exact_cache[cache_key] = (best, nodes)
    return best


# -- the two-direction counting argument, replayed on concrete layouts ----


def lemma_counting_replay(layout: Layout, d1: Direction, d2: Direction) -> int:
    """Execute the 5-coloring count behind the two-direction coverage floor.

    Requires the layout to hold exactly 5k+1 lines in each of ``d1`` and
    ``d2`` (others are ignored).  Lattice lines in direction ``d1`` are
    colored by their key mod 5, so every ``d1`` line is monochromatic while
    every ``d2`` line covers each color exactly once (its key step is 1 or 2,
    coprime to 5).  The replay then checks, on this concrete layout:

    1. the ``d2`` lines cover exactly 5k+1 points of every color;
    2. some color class of the ``d1``-covered points holds >= 5k+5 points;
    3. hence >= 4 points of that class are missed by the ``d2`` lines,

    and returns the implied floor (5k+1)*5 + 4 after confirming the layout's
    two-direction coverage meets it.  A layout whose alpha is not 5 raises
    ``LayoutError``.
    """
    if d1 == d2:
        raise ValueError("the two directions must differ")
    if layout.alpha != 5:
        raise LayoutError(f"the counting replay needs length-5 lines, got alpha={layout.alpha}")
    ok, why = verify_layout(layout)
    if not ok:
        raise LayoutError(why)
    lines1 = [seg for seg in layout.lines if seg.direction == d1]
    lines2 = [seg for seg in layout.lines if seg.direction == d2]
    m1, m2 = len(lines1), len(lines2)
    if m1 != m2 or m1 % 5 != 1:
        raise LayoutError(f"need 5k+1 lines in both directions, got {m1} and {m2}")
    k = (m1 - 1) // 5

    def color(p: Point) -> int:
        return line_key(d1, *p) % 5

    pts1: set[Point] = set()
    for seg in lines1:
        pts1.update(seg.points())
    pts2: set[Point] = set()
    for seg in lines2:
        pts2.update(seg.points())

    by_color2 = [0] * 5
    for p in pts2:
        by_color2[color(p)] += 1
    assert all(c == m2 for c in by_color2), f"d2 color counts {by_color2} != {m2}"

    by_color1: dict[int, set[Point]] = {c: set() for c in range(5)}
    for p in pts1:
        by_color1[color(p)].add(p)
    heavy = max(by_color1.values(), key=len)
    assert len(heavy) >= 5 * k + 5, f"heaviest d1 color has {len(heavy)} < {5 * k + 5}"

    missed = len(heavy - pts2)
    assert missed >= 4, f"only {missed} heavy-color points escape the d2 lines"

    floor = lemma_min_cover_bound(k)
    assert len(pts1 | pts2) >= floor
    return floor


# -- packing constructors: upper bounds on c(N) ---------------------------


def pack_runs(points: Iterable[Point]) -> Layout:
    """Greedy line packing of a point set.

    In each direction, every maximal collinear run of length l contributes
    floor(l/5) disjoint lines packed from the run's start.  Along one
    lattice line, point order is offset order, so the points are sorted once
    and each direction groups their offsets by line key in that order.
    """
    pts = sorted(set(points))
    segments: list[Segment] = []
    for d in DIRECTIONS:
        kx, ky, ox, oy = LATTICE[d]
        by_key: defaultdict[int, list[int]] = defaultdict(list)
        for x, y in pts:
            by_key[kx * x + ky * y].append(ox * x + oy * y)
        for key, offs in by_key.items():
            # a sentinel past the end closes the last run
            offs.append(offs[-1] + 2)
            start = prev = offs[0]
            for cur in offs[1:]:
                if cur != prev + 1:
                    for off in range(start, prev - 3, 5):
                        segments.append(Segment(d, point_at(d, key, off), 5))
                    start = cur
                prev = cur
    return Layout.from_segments(segments)


def grid_packing(n: int) -> Layout:
    """Packed layout of the n x n grid; 64 lines covering 100 points at n=10."""
    if n < 1:
        raise ValueError("grid side must be >= 1")
    return pack_runs(octagon_points(n, n, (0, 0, 0, 0)))


def octagon_points(w: int, h: int, cuts: tuple[int, int, int, int]) -> set[Point]:
    """A w x h rectangle minus four corner staircases of the given depths.

    Cut order: bottom-left, bottom-right, top-left, top-right.  A cut of
    depth t removes the triangle of points within taxicab distance < t of
    the corner, leaving a 45-degree edge that suits diagonal line runs.
    """
    t_bl, t_br, t_tl, t_tr = cuts
    out = set()
    for x in range(w):
        for y in range(h):
            if x + y < t_bl:
                continue
            if (w - 1 - x) + y < t_br:
                continue
            if x + (h - 1 - y) < t_tl:
                continue
            if (w - 1 - x) + (h - 1 - y) < t_tr:
                continue
            out.add((x, y))
    return out


@dataclass
class PackResult:
    layout: Layout
    n: int
    coverage: int


def _improve(layout: Layout) -> Layout:
    """Greedy post-pass: shift lines to shed coverage, then add cheap lines.

    A shift slides one line by 1 or 2 along its lattice line while keeping
    the layout valid, kept when total coverage strictly drops.  Only the
    points that leave at one end and enter at the other change, so a shift
    gains (leaving points no other line covers) - (entering points nothing
    covers); the first shift of greatest positive gain in the order -2, -1,
    1, 2 wins.  Each line is kept as the row :func:`~morpion.geometry.line_row`
    builds for :func:`~morpion.geometry.place_line`, and a shift is scored
    from the cover counts of the points its anchor plus j steps reaches.  A
    shift can only gain by shedding one of the two points at either end that
    the line alone covers, so a line with none is skipped before any
    conflict test.

    An addition appends one more line at either end of an existing lattice
    line's packed run, kept while the n+36 slack allows it (each new line
    must bring at most new_line_count points beyond its own count plus the
    slack available).  Each lattice line keeps its cheaper end as its offer,
    a ``(fresh points, direction, anchor)`` tuple, which orders as the
    candidate segments do since all have length 5; the least offer is added
    as a row, and segments are built only for the returned layout.  An
    offer depends only on its lattice line's offsets and on which points are
    covered, so an addition changes only the offers of its own lattice line
    and of lattice lines through a point it is the first to cover; those of
    them that hold a line are re-scored.
    """
    # each line as its place_line row; cover counts per point and sorted
    # offsets per lattice line, kept in step with rows so that each pass is
    # linear in the layout
    rows = [line_row(seg.direction, seg.anchor, 5) for seg in layout.lines]
    count: dict[Point, int] = {}
    offsets: dict[tuple[Direction, int], list[int]] = {}
    for row in rows:
        place_line(offsets, count, row)

    # shift pass
    improved = True
    while improved:
        improved = False
        for i, row in enumerate(rows):
            pts, offset, line = row
            # shed[j]: the line alone covers the point j steps past its anchor
            shed = [count[p] == 1 for p in pts]
            if not (shed[0] or shed[1] or shed[3] or shed[4]):
                continue
            (x, y), d = pts[0], line[0]
            sx, sy = d.step
            # fresh_j: nothing covers the point j steps past the anchor
            fresh_m1 = (x - sx, y - sy) not in count
            fresh_m2 = (x - 2 * sx, y - 2 * sy) not in count
            fresh_5 = (x + 5 * sx, y + 5 * sy) not in count
            fresh_6 = (x + 6 * sx, y + 6 * sy) not in count
            gains = (
                (-2, shed[4] + shed[3] - fresh_m1 - fresh_m2),
                (-1, shed[4] - fresh_m1),
                (1, shed[0] - fresh_5),
                (2, shed[0] + shed[1] - fresh_5 - fresh_6),
            )
            # test the shifts against the other lines on the lattice line
            mates = offsets[line]
            mates.remove(offset)
            best_delta, best_gain = 0, 0
            for delta, gain in gains:
                if gain > best_gain and not conflicts(offsets, _REACH, line, offset + delta):
                    best_delta, best_gain = delta, gain
            bisect.insort(mates, offset)
            if best_delta:
                moved = line_row(d, (x + best_delta * sx, y + best_delta * sy), 5)
                lift_line(offsets, count, row)
                place_line(offsets, count, moved)
                rows[i] = moved
                improved = True

    # addition pass
    def offer(line: tuple[Direction, int]) -> tuple[int, Direction, Point]:
        d, key = line
        sx, sy = d.step
        offs = offsets[line]
        cands = []
        for x, y in (point_at(d, key, offs[0] - 5), point_at(d, key, offs[-1] + 5)):
            fresh = 0
            for j in range(5):
                if (x + j * sx, y + j * sy) not in count:
                    fresh += 1
            cands.append((fresh, d, (x, y)))
        return min(cands)

    offers = {line: offer(line) for line in offsets}
    while offers:
        fresh, d, anchor = min(offers.values())
        slack = len(rows) + START_CROSSES - len(count)
        if fresh > slack + 1:
            break
        add = line_row(d, anchor, 5)
        # only the points add is the first to cover change other offers
        covered = [p for p in add[0] if p not in count]
        rows.append(add)
        place_line(offsets, count, add)
        stale = {add[2]}
        for x, y in covered:
            for d in DIRECTIONS:
                line = (d, line_key(d, x, y))
                if line in offsets:
                    stale.add(line)
        for line in stale:
            offers[line] = offer(line)

    return Layout.from_segments(Segment(line[0], pts[0], 5) for pts, _, line in rows)


def _corner_cuts(cut) -> tuple[int, int, int, int]:
    """One ``packing_search`` cut as its four corner depths; an int cuts all four."""
    if isinstance(cut, int):
        return (cut, cut, cut, cut)
    depths = tuple(cut) if isinstance(cut, Iterable) else ()
    if len(depths) != 4 or not all(isinstance(t, int) for t in depths):
        raise ValueError(f"cut {cut!r} must be an int or four ints")
    return depths


def packing_search(
    shape_family: str,
    widths: Iterable[int],
    heights: Iterable[int],
    cuts: Iterable[int | tuple[int, int, int, int]] = (0,),
) -> PackResult:
    """Best packed layout over a shape family: max lines n with coverage <= n+36.

    ``shape_family`` is "rectangle" or "octagon" (rectangles with staircase
    corner cuts; an int cut applies to all four corners).  Ties break toward
    the smallest canonical segment list.  The empty layout (n=0) is the
    fallback when no shape in range produces a line.
    """
    widths = sorted(set(widths))
    heights = sorted(set(heights))
    cut_list = sorted(set(map(_corner_cuts, cuts)))
    if not widths or not heights or (shape_family == "octagon" and not cut_list):
        raise ValueError("parameter ranges must be nonempty")
    if shape_family not in ("rectangle", "octagon"):
        raise ValueError(f"unknown shape family {shape_family!r}")
    if shape_family == "rectangle" and cut_list != [(0, 0, 0, 0)]:
        raise ValueError(f"a rectangle has no corner cuts: cuts must be (0,), got {cut_list}")

    best = PackResult(Layout(), 0, 0)
    for w in widths:
        for h in heights:
            for cut in cut_list:
                pts = octagon_points(w, h, cut)
                if not pts:
                    continue
                layout = _improve(pack_runs(pts))
                n = layout.line_count
                # all lines share one length, so tuple order is (direction, anchor) order
                if n == 0 or n < best.n or (n == best.n and layout.lines >= best.layout.lines):
                    continue
                cov = len(layout.points())
                if cov > n + START_CROSSES:
                    continue
                ok, why = verify_layout(layout)
                if not ok:
                    raise LayoutError(f"packing produced an invalid layout: {why}")
                assert combined_lower(n).bound <= cov
                best = PackResult(layout, n, cov)
    return best

