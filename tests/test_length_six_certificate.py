"""The plain-text certificate that every 6D and 6T game scores 12.

``golden/length_six_certificate.txt`` lists, per variant, the 24 legal first
moves as 12 exclusive pairs, one pair a line, each move as its cross plus its
line in layout syntax.  The test rebuilds the file from the engine's first
moves and compares it byte for byte: each first move makes exactly its
partner illegal, the relation is symmetric, and no first move makes a new
move.  Each pair is checked by lattice arithmetic alone: one lattice line,
anchors close enough to conflict.  Rewrite the file after a deliberate
change with ``PYTHONPATH=src python tests/test_length_six_certificate.py``.
"""

from pathlib import Path

import pytest

from morpion.engine import Board
from morpion.geometry import SIX_D, SIX_T, conflict_reach, line_key, line_offset

CERTIFICATE = Path(__file__).parent / "golden" / "length_six_certificate.txt"

HEADER = (
    "# Every 6D and 6T game scores exactly 12.",
    "# Each variant has 24 legal first moves, listed below as 12 pairs.  The two",
    "# moves of a pair draw lines on one lattice line close enough to conflict,",
    "# so each makes the other illegal.  No first move makes any other first move",
    "# illegal or a new move legal.  tests/test_length_six_proof.py shows with its",
    "# own rules that no other line is ever legal, so every game plays one move",
    "# of each pair and ends after 12 moves.",
)


def move_text(move):
    (cx, cy), d, (ax, ay) = move
    return f"cross={cx},{cy} dir={d.name} anchor={ax},{ay}"


def exclusive_pairs(variant):
    """The first moves as (move, the one first move it makes illegal), each
    pair once, in canonical order."""
    board = Board(variant)
    first = board.legal_moves()
    partner = {}
    for move in first:
        after = board.copy().apply(move).legal_moves()
        assert set(after) <= set(first), f"{move} makes a new move"
        (partner[move],) = [m for m in first if m != move and m not in after]
    assert all(partner[partner[m]] == m for m in first), "the relation is not symmetric"
    return [(m, partner[m]) for m in first if m < partner[m]]


def certificate_text():
    out = list(HEADER)
    for variant in (SIX_D, SIX_T):
        out.append(f"variant={variant.name}")
        out += [f"{move_text(a)} | {move_text(b)}" for a, b in exclusive_pairs(variant)]
    return "\n".join(out) + "\n"


def test_the_certificate_is_what_the_engine_finds():
    assert certificate_text().encode() == CERTIFICATE.read_bytes()


@pytest.mark.parametrize("variant", [SIX_D, SIX_T], ids=["6D", "6T"])
def test_each_pair_lies_on_one_lattice_line_within_conflict_reach(variant):
    pairs = exclusive_pairs(variant)
    assert len(pairs) == 12
    assert len({m.cross for pair in pairs for m in pair}) == 24
    reach = conflict_reach(variant.alpha, variant.touching_allowed)
    for a, b in pairs:
        d = a.direction
        assert b.direction == d and line_key(d, *a.anchor) == line_key(d, *b.anchor)
        assert abs(line_offset(d, *a.anchor) - line_offset(d, *b.anchor)) <= reach


if __name__ == "__main__":
    CERTIFICATE.write_bytes(certificate_text().encode())
    print(f"wrote {CERTIFICATE}")
