"""Line-counting bounds, the exact min-cover search, and packing constructions.

The exact-search tests carry their own oracle: a plain itertools sweep over
every anchor combination in a small window, with coverage computed by raw
point sets.  The production search (translation normalization, symmetry
pooling, pruning) must agree with it exactly.
"""

import bisect
import hashlib
import itertools
import re

import numpy as np
import pytest

from morpion import geometry, linecover
from morpion.geometry import DIRECTIONS, Direction, Segment, conflicts, point_at
from morpion.linecover import (
    ALL_RULES,
    RULE_A,
    RULE_B,
    RULE_REMARK,
    _REACH,
    ExactSearchBudgetError,
    Layout,
    LayoutError,
    claim_a_lower,
    combined_lower,
    coverage,
    grid_packing,
    infeasibility_scan,
    lemma_counting_replay,
    lemma_min_cover_bound,
    min_cover_exact,
    octagon_points,
    pack_runs,
    packing_search,
    _improve,
    scan_table,
    verify_layout,
)
from morpion.recordio import emit_layout

from conftest import random_layout, two_direction_layout

A_ONLY = frozenset({RULE_A})
AB = frozenset({RULE_A, RULE_B})
AR = frozenset({RULE_A, RULE_REMARK})


# -- counting rules ----------------------------------------------------------


def test_claim_a_small_table():
    assert [claim_a_lower(n) for n in range(1, 9)] == [5, 5, 5, 5, 10, 10, 10, 10]
    assert claim_a_lower(122) == 155
    with pytest.raises(ValueError):
        claim_a_lower(-1)


def test_lemma_min_cover_bound_values():
    assert lemma_min_cover_bound(0) == 9
    assert lemma_min_cover_bound(1) == 34
    assert lemma_min_cover_bound(2) == 59
    with pytest.raises(ValueError, match="k must be nonnegative"):
        lemma_min_cover_bound(-1)


def test_combined_lower_rule_selection():
    # 122 = 2 mod 4 and ceil(122/4) = 31 = 1 mod 5: the +4 rule fires
    cb = combined_lower(122, AB)
    assert (cb.bound, cb.rule) == (159, RULE_B)
    # 126: ceil = 32 = 2 mod 5: the +5 remark fires
    cb = combined_lower(126, AR)
    assert (cb.bound, cb.rule) == (165, "remark-plus-5")
    # n = 1 mod 4 keeps plain A regardless of enabled rules
    cb = combined_lower(121, ALL_RULES)
    assert (cb.bound, cb.rule) == (155, RULE_A)
    # disabled rules never fire
    assert combined_lower(122, A_ONLY).rule == RULE_A
    with pytest.raises(ValueError):
        combined_lower(0)
    with pytest.raises(ValueError):
        combined_lower(5, frozenset({"C"}))


def test_infeasibility_scans():
    assert infeasibility_scan(A_ONLY, 200) == 132
    assert infeasibility_scan(AB, 200) == 121
    assert infeasibility_scan(AR, 200) == 125
    assert infeasibility_scan(ALL_RULES, 200) == 121
    assert infeasibility_scan(AB, 100) is None


def test_scan_table_stops_at_first_infeasible_row():
    rows = scan_table(AB, 200)
    assert rows[-1] == (122, RULE_B, 159, 158, False)
    assert all(feasible for *_x, feasible in rows[:-1])
    assert len(rows) == 122


def test_scan_table_rejects_an_empty_rule_set():
    # no rule means no N is ever infeasible, so the scan would only stop at n_max
    with pytest.raises(ValueError, match="rule set is empty"):
        scan_table(frozenset(), 10)
    with pytest.raises(ValueError, match="rule set is empty"):
        infeasibility_scan(frozenset(), 10)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        scan_table(AB, 0)


# -- layouts -----------------------------------------------------------------


def hline(x, y, alpha=5):
    return Segment(Direction.E, (x, y), alpha)


def test_verify_layout_catches_conflicts():
    ok, why = verify_layout(Layout.from_segments([hline(0, 0), hline(0, 1)]))
    assert ok and why is None
    ok, why = verify_layout(Layout.from_segments([hline(0, 0), hline(3, 0)]))
    assert not ok and "overlapping" in why
    ok, why = verify_layout(Layout.from_segments([hline(0, 0), hline(4, 0)]))
    assert not ok and "touching" in why


def test_layout_order_is_set_at_construction():
    rng = np.random.default_rng(31)
    for seed in range(50):
        layout = random_layout(np.random.default_rng(seed))
        shuffled = list(layout.lines)
        rng.shuffle(shuffled)
        again = Layout.from_segments(shuffled, layout.alpha)
        assert again == layout
        assert emit_layout(again) == emit_layout(layout)
        assert list(again.lines) == sorted(again.lines, key=lambda s: (s.direction, s.anchor))


@pytest.mark.parametrize("length", [4, 6])
def test_layout_rejects_a_line_of_another_length(length):
    with pytest.raises(LayoutError, match=f"has length {length}, expected 5"):
        Layout.from_segments([hline(10, 0), Segment(Direction.E, (0, 0), length)])
    with pytest.raises(LayoutError, match="expected 5"):
        Layout(5, (Segment(Direction.N, (0, 0), length),))


def all_pairs_verify(layout):
    """Reference check: every same-direction pair through segment_relation."""
    for d in DIRECTIONS:
        segs = sorted(s for s in layout.lines if s.direction == d)
        for i, a in enumerate(segs):
            for b in segs[i + 1 :]:
                rel = geometry.segment_relation(a, b)
                if rel not in (geometry.DISJOINT, geometry.DISTINCT_DIRECTION):
                    return (False, f"same-direction segments {a} and {b} are {rel}")
    return (True, None)


def test_verify_layout_matches_the_all_pairs_check():
    rng = np.random.default_rng(13)
    verdicts = set()
    for _ in range(3000):
        alpha = int(rng.integers(3, 7))
        segments = []
        for _ in range(int(rng.integers(0, 32))):
            d = DIRECTIONS[int(rng.integers(0, 4))]
            anchor = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            # now and then a short line, and a repeated one
            length = alpha - 1 if rng.random() < 0.02 else alpha
            segments.append(Segment(d, anchor, length))
            if rng.random() < 0.05:
                segments.append(segments[-1])
        if any(s.length != alpha for s in segments):
            with pytest.raises(LayoutError, match=f"expected {alpha}"):
                Layout.from_segments(segments, alpha)
            verdicts.add("short")
            continue
        layout = Layout.from_segments(segments, alpha)
        got = verify_layout(layout)
        assert got == all_pairs_verify(layout)
        verdicts.add(got[0])
    assert verdicts == {True, False, "short"}


def test_verify_layout_compares_only_nearby_collinear_lines(monkeypatch):
    """4,000 disjoint lines make no pairwise comparison: 1,000 per direction
    on distinct lattice lines, or all on one lattice line alpha apart."""
    calls = []

    def counting_relation(a, b):
        calls.append((a, b))
        return geometry.segment_relation(a, b)

    monkeypatch.setattr(linecover, "segment_relation", counting_relation)
    rng = np.random.default_rng(4)
    spread = [
        Segment(d, point_at(d, key, int(rng.integers(-50, 51))), 5)
        for d in DIRECTIONS
        for key in range(1000)
    ]
    collinear = [Segment(d, point_at(d, 0, 5 * i), 5) for d in DIRECTIONS for i in range(1000)]
    for segments in (spread, collinear):
        assert verify_layout(Layout.from_segments(segments)) == (True, None)
    assert calls == []
    # a line alpha-1 from its mate is the one pair compared
    crowded = collinear + [Segment(Direction.E, (4 * 5 + 4, 0), 5)]
    ok, why = verify_layout(Layout.from_segments(crowded))
    assert not ok and "touching" in why
    assert len(calls) == 1


def test_coverage_counts_shared_points_once():
    cross = Layout.from_segments(
        [hline(0, 2), Segment(Direction.N, (2, 0), 5)]
    )
    assert coverage(cross) == 9
    with pytest.raises(LayoutError):
        coverage(Layout.from_segments([hline(0, 0), hline(3, 0)]))


# -- exact min-cover vs. brute-force oracle ----------------------------------


def oracle_min_cover(n_per_direction, window, alpha=5):
    """Minimum coverage by brute force over all anchor combinations."""
    anchors = [(x, y) for x in range(window) for y in range(window)]
    per_dir = []
    for d, count in sorted(n_per_direction.items()):
        if count:
            per_dir.append((d, count))
    best = None
    pools = [
        list(itertools.combinations(anchors, count)) for _, count in per_dir
    ]
    for combo in itertools.product(*pools):
        segments = [
            Segment(d, a, alpha)
            for (d, count), chosen in zip(per_dir, combo)
            for a in chosen
        ]
        layout = Layout.from_segments(segments, alpha)
        ok, _ = verify_layout(layout)
        if not ok:
            continue
        size = len(layout.points())
        if best is None or size < best:
            best = size
    return best


def test_single_line_covers_alpha_points():
    assert min_cover_exact({Direction.E: 1}, window=5) == 5
    assert min_cover_exact({Direction.NE: 1}, window=6) == 5
    assert min_cover_exact({Direction.E: np.int64(1)}, window=5) == 5
    # no lines cover no points
    assert min_cover_exact({}, window=5) == min_cover_exact({Direction.N: 0}, window=5) == 0


def test_two_direction_pairs_match_oracle_and_lemma():
    pairs = list(itertools.combinations(DIRECTIONS, 2))
    for d1, d2 in pairs:
        got = min_cover_exact({d1: 1, d2: 1}, window=5)
        assert got == lemma_min_cover_bound(0) == 9
    # independent brute force on one axis-axis and one axis-diagonal pair
    assert oracle_min_cover({Direction.E: 1, Direction.N: 1}, 5) == 9
    assert oracle_min_cover({Direction.E: 1, Direction.SE: 1}, 5) == 9


def test_two_parallel_lines_match_oracle():
    got = min_cover_exact({Direction.E: 2}, window=12)
    assert got == 10
    assert oracle_min_cover({Direction.E: 2}, 7) == 10


def test_three_direction_combo_matches_oracle():
    want = oracle_min_cover({Direction.E: 1, Direction.N: 1, Direction.NE: 1}, 5)
    got = min_cover_exact({Direction.E: 1, Direction.N: 1, Direction.NE: 1}, window=5)
    assert got == want


def test_exact_search_window_widening_cannot_increase():
    five = min_cover_exact({Direction.E: 1, Direction.N: 1}, window=5)
    six = min_cover_exact({Direction.E: 1, Direction.N: 1}, window=6)
    assert six <= five


def test_exact_search_refuses_oversized_requests():
    with pytest.raises(ExactSearchBudgetError):
        min_cover_exact({d: 6 for d in DIRECTIONS}, window=26, node_budget=10**6)


@pytest.mark.parametrize("budget", [float("nan"), -1])
def test_exact_search_rejects_a_budget_no_count_can_meet(budget):
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        min_cover_exact({Direction.E: 3, Direction.N: 3}, 10, node_budget=budget)


@pytest.mark.parametrize(
    "counts, window, message",
    [
        # string keys are not directions; read as absent they would give 0
        ({"E": 1, "N": 1}, 5, "not all directions"),
        # truncated to 1, a count of 1.9 would give the answer for 1 + 1
        ({Direction.E: 1.9, Direction.N: 1}, 5, "must be nonnegative integers"),
        ({Direction.E: 1.0}, 5, "must be nonnegative integers"),
        ({Direction.E: -1}, 5, "must be nonnegative integers"),
        ({Direction.E: 1}, 0, "window must be positive"),
        # two disjoint collinear rows cannot both fit one anchor
        ({Direction.E: 2}, 1, "no valid placement"),
    ],
)
def test_exact_search_rejects_counts_it_cannot_answer(counts, window, message):
    with pytest.raises(ValueError, match=message):
        min_cover_exact(counts, window)


@pytest.mark.parametrize("window, nodes", [(5, 650), (6, 1332), (7, 2450)])
def test_exact_search_budget_holds_whatever_the_cache_holds(monkeypatch, window, nodes):
    # each search estimates window**4 placements, under its node count
    monkeypatch.setattr(linecover, "_exact_cache", {})
    pair = {Direction.E: 1, Direction.N: 1}
    for _ in range(2):
        with pytest.raises(ExactSearchBudgetError, match="exceeded budget"):
            min_cover_exact(pair, window, node_budget=nodes - 1)
        assert min_cover_exact(pair, window, node_budget=nodes) == 9


# -- the 5-coloring counting replay ------------------------------------------


def test_counting_replay_on_random_two_direction_layouts():
    rng = np.random.default_rng(17)
    pairs = list(itertools.permutations(DIRECTIONS, 2))
    for i in range(120):
        d1, d2 = pairs[i % len(pairs)]
        k = i % 3
        layout = two_direction_layout(rng, d1, d2, k)
        floor = lemma_counting_replay(layout, d1, d2)
        assert floor == lemma_min_cover_bound(k) == (5 * k + 1) * 5 + 4
        assert coverage(layout) >= floor


def test_counting_replay_rejects_wrong_line_counts():
    rng = np.random.default_rng(1)
    layout = two_direction_layout(rng, Direction.E, Direction.N, 0)
    with pytest.raises(ValueError):
        lemma_counting_replay(layout, Direction.E, Direction.SE)
    with pytest.raises(ValueError, match="must differ"):
        lemma_counting_replay(layout, Direction.E, Direction.E)
    twice = Layout.from_segments([*layout.lines, layout.lines[0]])
    with pytest.raises(LayoutError, match="same-direction segments"):
        lemma_counting_replay(twice, Direction.E, Direction.N)


@pytest.mark.parametrize("alpha", [4, 6])
def test_counting_replay_rejects_other_line_lengths(alpha):
    # 5k+1 lines in each direction, so only the alpha check can refuse it
    layout = two_direction_layout(np.random.default_rng(5), Direction.E, Direction.N, 1, alpha)
    with pytest.raises(LayoutError, match=f"alpha={alpha}"):
        lemma_counting_replay(layout, Direction.E, Direction.N)


def test_counting_replay_ignores_extra_directions():
    rng = np.random.default_rng(23)
    layout = two_direction_layout(rng, Direction.E, Direction.N, 1)
    extra = list(layout.lines) + [Segment(Direction.NE, (100, 100), 5)]
    floor = lemma_counting_replay(Layout.from_segments(extra), Direction.E, Direction.N)
    assert floor == 34


# -- packings ----------------------------------------------------------------


def test_pack_runs_on_two_runs():
    pts = {(x, 0) for x in range(5)} | {(x, 2) for x in range(10, 17)}
    layout = pack_runs(pts)
    segs = layout.lines
    assert [s.anchor for s in segs] == [(0, 0), (10, 2)]
    assert all(s.direction == Direction.E for s in segs)


def test_grid_packing_10_is_the_64_line_witness():
    layout = grid_packing(10)
    assert layout.line_count == 64
    assert coverage(layout) == 100
    assert layout.points() == octagon_points(10, 10, (0, 0, 0, 0))
    counts = {d: sum(s.direction == d for s in layout.lines) for d in DIRECTIONS}
    assert counts[Direction.E] == counts[Direction.N] == 20
    assert counts[Direction.NE] == counts[Direction.SE] == 12


def test_grid_packing_small_cases():
    assert grid_packing(4).line_count == 0
    layout = grid_packing(5)
    assert layout.line_count == 12
    assert coverage(layout) == 25
    with pytest.raises(ValueError):
        grid_packing(0)


def test_octagon_points_counts():
    assert len(octagon_points(10, 10, (0, 0, 0, 0))) == 100
    assert len(octagon_points(10, 10, (1, 1, 1, 1))) == 96
    assert len(octagon_points(10, 10, (3, 0, 0, 0))) == 100 - 6
    assert octagon_points(6, 6, (2, 0, 0, 0)) == {
        p for p in octagon_points(6, 6, (0, 0, 0, 0)) if p[0] + p[1] >= 2
    }


def test_packing_search_rectangles():
    result = packing_search("rectangle", range(8, 13), range(8, 13))
    assert result.n >= 40
    assert result.coverage <= result.n + 36
    ok, why = verify_layout(result.layout)
    assert ok, why
    assert coverage(result.layout) == result.coverage


def test_packing_search_rejects_unknown_family():
    with pytest.raises(ValueError):
        packing_search("hexagon", range(4, 6), range(4, 6))
    with pytest.raises(ValueError, match="ranges must be nonempty"):
        packing_search("rectangle", range(8, 8), range(8, 13))


@pytest.mark.parametrize("cuts", [(3, (1, 2, 3, 4)), (), (0, 1), [(0, 0, 0, 1)]])
def test_packing_search_refuses_cuts_for_rectangles(cuts):
    with pytest.raises(ValueError, match="cuts must be"):
        packing_search("rectangle", range(8, 10), range(8, 10), cuts=cuts)


@pytest.mark.parametrize("cut", [(1, 2, 3), 1.5])
def test_packing_search_rejects_a_malformed_cut(cut):
    message = f"cut {cut!r} must be an int or four ints"
    with pytest.raises(ValueError, match=re.escape(message)):
        packing_search("octagon", range(4, 6), range(4, 6), cuts=[0, cut])


# (n, coverage, sha256 of the emitted layout) of the best packing
PACKING_PINS = [
    (
        ("octagon", range(4, 11), range(4, 11), (0, 1, 2, 3)),
        (68, 104, "dcf2f08b894dbaf37d24886af4105987831fe370bfd8ec197aae837ba765b408"),
    ),
    (
        ("rectangle", range(8, 13), range(8, 13), (0,)),
        (68, 104, "dcf2f08b894dbaf37d24886af4105987831fe370bfd8ec197aae837ba765b408"),
    ),
]


@pytest.mark.parametrize("args, pin", PACKING_PINS, ids=["octagon", "rectangle"])
def test_packing_search_matches_its_pin(args, pin):
    family, widths, heights, cuts = args
    result = packing_search(family, widths, heights, cuts=cuts)
    digest = hashlib.sha256(emit_layout(result.layout).encode()).hexdigest()
    assert (result.n, result.coverage, digest) == pin


def reference_pack_runs(points):
    """Greedy run packing point by point: each direction groups the points'
    offsets by line key, sorts each group and packs its runs."""
    pts = set(points)
    segments = []
    for d in DIRECTIONS:
        by_key = {}
        for x, y in pts:
            by_key.setdefault(geometry.line_key(d, x, y), []).append(geometry.line_offset(d, x, y))
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


def test_pack_runs_matches_the_point_by_point_reference():
    point_sets = [
        pts
        for w in range(4, 13)
        for h in range(4, 13)
        for c in range(5)
        if (pts := octagon_points(w, h, (c, c, c, c)))
    ]
    assert len(point_sets) == 399
    point_sets += [random_layout(np.random.default_rng(seed)).points() for seed in range(300)]
    far = {(-(10**6) + x, 10**6 + y) for x in range(-3, 9) for y in range(-4, 7)}
    point_sets += [set(), far]
    packed = 0
    for pts in point_sets:
        layout = pack_runs(pts)
        assert layout == reference_pack_runs(pts)
        packed += layout.line_count
    assert packed > 0
    assert pack_runs(far).line_count > 0


def reference_improve(layout):
    """The packing post-pass scored from scratch: every shift builds its
    segment and counts its five points, and every addition re-scores both
    ends of every lattice line."""
    segs = list(layout.lines)
    count = {}
    offsets = {}

    def place(seg, sign):
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

    improved = True
    while improved:
        improved = False
        for i, seg in enumerate(segs):
            cov = len(count)
            pts = seg.points()
            d, key, offset = seg.direction, seg.key, seg.offset
            rest = cov - sum(1 for p in pts if count[p] == 1)
            best_seg, best_cov = seg, cov
            mates = offsets[d, key]
            mates.remove(offset)
            for delta in (-2, -1, 1, 2):
                off = offset + delta
                if conflicts(offsets, _REACH, (d, key), off):
                    continue
                cand = Segment(d, point_at(d, key, off), 5)
                cand_cov = rest + sum(
                    1 for p in cand.points() if count.get(p, 0) - (p in pts) == 0
                )
                if cand_cov < best_cov:
                    best_seg, best_cov = cand, cand_cov
            bisect.insort(mates, offset)
            if best_seg != seg:
                place(seg, -1)
                place(best_seg, 1)
                segs[i] = best_seg
                improved = True

    while True:
        slack = len(segs) + 36 - len(count)
        best_add = None
        best_fresh = None
        for d, key in sorted(offsets):
            offs = offsets[d, key]
            for off in (offs[0] - 5, offs[-1] + 5):
                cand = Segment(d, point_at(d, key, off), 5)
                fresh = sum(1 for p in cand.points() if p not in count)
                if best_fresh is None or fresh < best_fresh or (
                    fresh == best_fresh and cand < best_add
                ):
                    best_add, best_fresh = cand, fresh
        if best_add is None or best_fresh > slack + 1:
            break
        segs.append(best_add)
        place(best_add, 1)

    return Layout.from_segments(segs)


def test_improve_matches_the_from_scratch_reference():
    layouts = [
        pack_runs(pts)
        for w in range(4, 13)
        for h in range(4, 13)
        for c in range(5)
        if (pts := octagon_points(w, h, (c, c, c, c)))
    ]
    assert len(layouts) == 399
    layouts += [random_layout(np.random.default_rng(seed)) for seed in range(300)]
    layouts += [grid_packing(n) for n in range(1, 13)]
    for layout in layouts:
        assert _improve(layout) == reference_improve(layout)


def test_random_layouts_never_beat_certified_lower_bounds():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(2000):
        layout = random_layout(rng)
        n = layout.line_count
        if n == 0:
            continue
        ok, why = verify_layout(layout)
        assert ok, why
        assert coverage(layout) >= combined_lower(n).bound
        checked += 1
    assert checked > 1500
