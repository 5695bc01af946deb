"""
Packing lines densely: where the counting method tops out
=========================================================

The infeasibility argument needs c(N) > N+36.  Constructions going the
other way, layouts of N lines covering at most N+36 points, mark its
limit: wherever such a packing exists the method cannot bite.  A filled
n x n grid packs very well, and a parameter search over rectangle and
cut-corner octagon shapes pushes the frontier further.
"""

import tempfile
from pathlib import Path

from morpion import (
    RenderSpec,
    coverage,
    emit_layout,
    grid_packing,
    packing_search,
    render,
)

# a 10x10 grid: every row, column, and long diagonal chopped into
# disjoint length-5 lines
layout = grid_packing(10)
print(f"10x10 grid: {layout.line_count} lines cover {coverage(layout)} points")
print(f"budget check: {coverage(layout)} <= {layout.line_count} + 36")

# the layout file format is plain text, one line per segment
text = emit_layout(layout)
print("\n".join(text.splitlines()[:5]), "...")

# search rectangles/octagons for the largest packing with
# coverage <= n + 36; cuts trim the four corners to help diagonals
result = packing_search("octagon", range(4, 13), range(4, 13), cuts=(0, 1, 2))
print(f"search best: {result.n} lines on {result.coverage} points")

# an SVG view of the winning layout
svg = render(result.layout, RenderSpec(format="svg"))
with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "packing.svg").write_bytes(svg)
    print("wrote packing.svg,", svg.count(b"<line "), "line elements")
