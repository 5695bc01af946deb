"""Counting arguments over line layouts.

A layout is a bag of length-5 segments, same-direction ones pairwise
disjoint, with no crosses attached.  Any game that reaches N moves has drawn
N such lines covering at most N+36 lattice points, so a lower bound c'(N) on
the points that ANY N valid lines must cover yields a score bound: the first
N with c'(N) > N + 36 is unreachable, and N-1 bounds the score.

The layout searches test disjointness with the engine's D-rule test,
:func:`~morpion.geometry.conflicts`; :func:`verify_layout` keeps the pairwise
:func:`~morpion.geometry.segment_relation` as the reference.

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
re-scores only the points and lattice lines it touches.

The counting analyses (the bound ladder, ``min_cover_exact`` and
``lemma_counting_replay``) are for length-5 lines only, though a layout
file may hold lines of length 3 to 6; ``lemma_counting_replay`` raises
``LayoutError`` on a layout of any other alpha.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .geometry import (
    DIRECTIONS,
    DISJOINT,
    DISTINCT_DIRECTION,
    Direction,
    Point,
    Segment,
    conflict_reach,
    conflicts,
    line_key,
    line_offset,
    point_at,
    segment_relation,
)


class LayoutError(ValueError):
    """A layout violates same-direction disjointness or is malformed."""


class ExactSearchBudgetError(RuntimeError):
    """min_cover_exact refused or abandoned a search over the node budget."""


# same-direction length-5 lines conflict when their anchors are this close
_REACH = conflict_reach(5, False)

RULE_A = "A"
RULE_B = "B"
RULE_REMARK = "remark"
ALL_RULES = frozenset((RULE_A, RULE_B, RULE_REMARK))


@dataclass
class Layout:
    """Per-direction segment collections, all of one length."""

    alpha: int = 5
    lines: dict[Direction, tuple[Segment, ...]] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.lines is None:
            self.lines = {d: () for d in DIRECTIONS}
        else:
            for d in DIRECTIONS:
                self.lines.setdefault(d, ())

    @classmethod
    def from_segments(cls, segments: Iterable[Segment], alpha: int = 5) -> "Layout":
        slots: dict[Direction, list[Segment]] = {d: [] for d in DIRECTIONS}
        for seg in segments:
            slots[seg.direction].append(seg)
        return cls(alpha, {d: tuple(sorted(slots[d])) for d in DIRECTIONS})

    def segments(self) -> list[Segment]:
        """All segments, canonically sorted by (direction, anchor)."""
        out: list[Segment] = []
        for d in DIRECTIONS:
            out.extend(sorted(self.lines[d]))
        return out

    @property
    def line_count(self) -> int:
        return sum(len(self.lines[d]) for d in DIRECTIONS)

    def points(self) -> set[Point]:
        covered: set[Point] = set()
        for d in DIRECTIONS:
            for seg in self.lines[d]:
                covered.update(seg.points())
        return covered

    def canonical_key(self) -> tuple:
        """Deterministic tie-break identity: the sorted segment list."""
        return tuple((s.direction, s.anchor) for s in self.segments())


def verify_layout(layout: Layout) -> tuple[bool, str | None]:
    """Well-formedness plus pairwise same-direction disjointness.

    Returns (True, None) or (False, message naming the first offense).
    Segments on different lattice lines are disjoint, so each segment is
    compared only with the later ones on its own lattice line.  Along a
    lattice line anchor order is offset order, so those comparisons stop at
    the first mate ``alpha`` or more away: it and every later one are
    disjoint from the segment.
    """
    for d in DIRECTIONS:
        segs = sorted(layout.lines[d])
        for seg in segs:
            if seg.direction != d:
                return (False, f"segment {seg} filed under direction {d.name}")
            if seg.length != layout.alpha:
                return (False, f"segment {seg} has length {seg.length}, expected {layout.alpha}")
        mates: dict[int, list[Segment]] = {}
        for seg in segs:
            mates.setdefault(seg.key, []).append(seg)
        passed = dict.fromkeys(mates, 0)
        for a in segs:
            line = mates[a.key]
            # a is the passed[a.key]-th segment of its line, so line[j] is the next
            passed[a.key] = j = passed[a.key] + 1
            while j < len(line) and line[j].offset - a.offset < layout.alpha:
                rel = segment_relation(a, line[j])
                if rel not in (DISJOINT, DISTINCT_DIRECTION):
                    return (False, f"same-direction segments {a} and {line[j]} are {rel}")
                j += 1
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
    rule: str  # "A" | "B" | "remark-plus-5" | "exact" | "none"


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
        best = CoverBound(n, 5 * k, RULE_A)
    if n % 4 != 1:
        if RULE_B in rules and k % 5 == 1 and 5 * k + 4 > best.bound:
            best = CoverBound(n, 5 * k + 4, RULE_B)
        if RULE_REMARK in rules and k % 5 in (2, 3) and 5 * k + 5 > best.bound:
            best = CoverBound(n, 5 * k + 5, "remark-plus-5")
    return best


def scan_table(
    rules: frozenset[str], n_max: int
) -> list[tuple[int, str, int, int, bool]]:
    """Rows (n, rule, lower bound, n+36, feasible) for n = 1..n_max.

    Stops at the first infeasible row (inclusive), where the lower bound
    exceeds the n+36 points a real game could have on the board.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        cb = combined_lower(n, rules)
        feasible = cb.bound <= n + 36
        rows.append((n, cb.rule, cb.bound, n + 36, feasible))
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

_exact_cache: dict[tuple, int] = {}


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
    search") rather than answered approximately.
    """
    counts = {d: int(n_per_direction.get(d, 0)) for d in DIRECTIONS}
    if any(c < 0 for c in counts.values()):
        raise ValueError("line counts must be nonnegative")
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

    cache_key = (tuple(counts[d] for d in DIRECTIONS), window)
    if cache_key in _exact_cache:
        return _exact_cache[cache_key]

    anchors = [(x, y) for x in range(window) for y in range(window)]
    active = [d for d in DIRECTIONS if counts[d]]
    covered: set[Point] = set()
    placed_offsets: dict[tuple[Direction, int], list[int]] = {}
    best = total * 5 + 1
    nodes = 0

    def place(di: int, remaining: int, start: int, min_x: int, min_y: int) -> None:
        nonlocal best, nodes
        if remaining == 0:
            di += 1
            if di == len(active):
                if min_x == 0 and min_y == 0 and len(covered) < best:
                    best = len(covered)
                return
            remaining = counts[active[di]]
            start = 0
        d = active[di]
        for idx in range(start, len(anchors)):
            ax, ay = anchors[idx]
            line = (d, line_key(d, ax, ay))
            off = line_offset(d, ax, ay)
            if conflicts(placed_offsets, _REACH, line, off):
                continue
            nodes += 1
            if nodes > node_budget:
                raise ExactSearchBudgetError(
                    f"too large for exact search: exceeded budget {node_budget}"
                )
            seg = Segment(d, (ax, ay), 5)
            fresh = [p for p in seg.points() if p not in covered]
            covered.update(fresh)
            if len(covered) < best:
                offs = placed_offsets.setdefault(line, [])
                bisect.insort(offs, off)
                place(di, remaining - 1, idx + 1, min(min_x, ax), min(min_y, ay))
                offs.remove(off)
            covered.difference_update(fresh)

    place(0, counts[active[0]], 0, window, window)

    if best > total * 5:
        raise ValueError(f"no valid placement of {counts} fits in window {window}")

    floor = claim_a_lower(total)
    two = [c for c in counts.values() if c]
    if len(two) == 2 and two[0] == two[1] and (two[0] - 1) % 5 == 0:
        floor = max(floor, lemma_min_cover_bound((two[0] - 1) // 5))
    assert best >= floor, f"exact search returned {best}, below the certified floor {floor}"

    _exact_cache[cache_key] = best
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
    m1, m2 = len(layout.lines[d1]), len(layout.lines[d2])
    if m1 != m2 or m1 % 5 != 1:
        raise LayoutError(f"need 5k+1 lines in both directions, got {m1} and {m2}")
    k = (m1 - 1) // 5

    def color(p: Point) -> int:
        return line_key(d1, *p) % 5

    pts1: set[Point] = set()
    for seg in layout.lines[d1]:
        pts1.update(seg.points())
    pts2: set[Point] = set()
    for seg in layout.lines[d2]:
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
    floor(l/5) disjoint lines packed from the run's start.
    """
    pts = set(points)
    segments: list[Segment] = []
    for d in DIRECTIONS:
        by_key: dict[int, list[int]] = {}
        for x, y in pts:
            by_key.setdefault(line_key(d, x, y), []).append(line_offset(d, x, y))
        for key, offs in by_key.items():
            offs.sort()
            run_start = offs[0]
            run_len = 1
            runs = []
            for prev, cur in zip(offs, offs[1:]):
                if cur == prev + 1:
                    run_len += 1
                else:
                    runs.append((run_start, run_len))
                    run_start, run_len = cur, 1
            runs.append((run_start, run_len))
            for start, length in runs:
                for j in range(length // 5):
                    segments.append(Segment(d, point_at(d, key, start + j * 5), 5))
    return Layout.from_segments(segments)


def grid_points(n: int) -> set[Point]:
    return {(x, y) for x in range(n) for y in range(n)}


def grid_packing(n: int) -> Layout:
    """Packed layout of the n x n grid; 64 lines covering 100 points at n=10."""
    if n < 1:
        raise ValueError("grid side must be >= 1")
    return pack_runs(grid_points(n))


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
    1, 2 wins.

    An addition appends one more line at either end of an existing lattice
    line's packed run, kept while the n+36 slack allows it (each new line
    must bring at most new_line_count points beyond its own count plus the
    slack available).  Each lattice line keeps its cheaper end as its offer,
    and the least (fresh points, segment) offer is added.  An addition only
    changes the offers of its own lattice line and of the lattice lines whose
    offer windows hold a point it is the first to cover, so only those are
    re-scored.
    """
    segs = layout.segments()
    # cover counts per point and sorted offsets per lattice line, kept in
    # step with segs so that each pass is linear in the layout
    count: dict[Point, int] = {}
    offsets: dict[tuple[Direction, int], list[int]] = {}

    def place(seg: Segment, sign: int) -> None:
        for p in seg.points():
            n = count.get(p, 0) + sign
            if n:
                count[p] = n
            else:
                del count[p]
        line_offs = offsets.setdefault((seg.direction, seg.key), [])
        if sign > 0:
            bisect.insort(line_offs, seg.offset)
        else:
            line_offs.remove(seg.offset)

    for seg in segs:
        place(seg, 1)

    # shift pass
    improved = True
    while improved:
        improved = False
        for i, seg in enumerate(segs):
            d, key, offset = seg.direction, seg.key, seg.offset
            line = (d, key)
            sx, sy = d.step
            x, y = seg.anchor
            # run[j + 2] is the point j steps past the anchor, for j in -2..6
            run = [(x + j * sx, y + j * sy) for j in range(-2, 7)]
            # test the shifts against the other lines on seg's lattice line
            mates = offsets[line]
            mates.remove(offset)
            best_delta, best_gain = 0, 0
            for delta in (-2, -1, 1, 2):
                if conflicts(offsets, _REACH, line, offset + delta):
                    continue
                if delta > 0:
                    leaving, entering = run[2 : 2 + delta], run[7 : 7 + delta]
                else:
                    leaving, entering = run[7 + delta : 7], run[2 + delta : 2]
                gain = sum(1 for p in leaving if count[p] == 1) - sum(
                    1 for p in entering if p not in count
                )
                if gain > best_gain:
                    best_delta, best_gain = delta, gain
            bisect.insort(mates, offset)
            if best_delta:
                moved = Segment(d, run[2 + best_delta], 5)
                place(seg, -1)
                place(moved, 1)
                segs[i] = moved
                improved = True

    # addition pass
    def offer(line: tuple[Direction, int]) -> tuple[int, Segment]:
        d, key = line
        offs = offsets[line]
        return min(
            (sum(1 for p in cand.points() if p not in count), cand)
            for cand in (
                Segment(d, point_at(d, key, offs[0] - 5), 5),
                Segment(d, point_at(d, key, offs[-1] + 5), 5),
            )
        )

    offers = {line: offer(line) for line in offsets}
    while offers:
        fresh, add = min(offers.values())
        slack = len(segs) + 36 - len(count)
        if fresh > slack + 1:
            break
        # only the points add is the first to cover change other offers
        covered = [p for p in add.points() if p not in count]
        segs.append(add)
        place(add, 1)
        stale = {(add.direction, add.key)}
        for p in covered:
            for d in DIRECTIONS:
                line = (d, line_key(d, *p))
                offs = offsets.get(line)
                if offs is None:
                    continue
                off = line_offset(d, *p)
                if offs[0] - 5 <= off < offs[0] or offs[-1] + 5 <= off < offs[-1] + 10:
                    stale.add(line)
        for line in stale:
            offers[line] = offer(line)

    return Layout.from_segments(segs)


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
    cut_list = [(c, c, c, c) if isinstance(c, int) else tuple(c) for c in cuts]
    cut_list = sorted(set(cut_list))
    if not widths or not heights or (shape_family == "octagon" and not cut_list):
        raise ValueError("parameter ranges must be nonempty")
    if shape_family not in ("rectangle", "octagon"):
        raise ValueError(f"unknown shape family {shape_family!r}")
    if shape_family == "rectangle":
        cut_list = [(0, 0, 0, 0)]

    best = PackResult(Layout(), 0, 0)
    best_key = None
    for w in widths:
        for h in heights:
            for cut in cut_list:
                pts = octagon_points(w, h, cut)
                if not pts:
                    continue
                layout = _improve(pack_runs(pts))
                n = layout.line_count
                cov = len(layout.points())
                if cov > n + 36 or n == 0:
                    continue
                key = layout.canonical_key()
                if n > best.n or (n == best.n and (best_key is None or key < best_key)):
                    ok, why = verify_layout(layout)
                    if not ok:
                        raise LayoutError(f"packing produced an invalid layout: {why}")
                    assert combined_lower(n).bound <= cov
                    best = PackResult(layout, n, cov)
                    best_key = key
    return best


def random_layout(rng) -> Layout:
    """A small random valid layout for property tests and demos.

    ``rng`` is a numpy Generator.  Up to 12 anchors are drawn uniformly in
    the 20 x 20 window; draws conflicting with an already-kept same-direction
    line are dropped, so the result may hold fewer lines.
    """
    kept: list[Segment] = []
    offsets: dict[tuple[Direction, int], list[int]] = {}
    n = int(rng.integers(0, 13))
    for _ in range(n):
        d = DIRECTIONS[int(rng.integers(0, 4))]
        ax = int(rng.integers(0, 20))
        ay = int(rng.integers(0, 20))
        line = (d, line_key(d, ax, ay))
        off = line_offset(d, ax, ay)
        if conflicts(offsets, _REACH, line, off):
            continue
        bisect.insort(offsets.setdefault(line, []), off)
        kept.append(Segment(d, (ax, ay), 5))
    return Layout.from_segments(kept)
