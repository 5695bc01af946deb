"""
Rules of the game: crosses, lines, and the 5D/5T split
======================================================

A move places one cross on an empty lattice point and draws a length-5
line through it; the other four points must already carry crosses.  Lines
in the same direction may not overlap.  Under the D rule they may not
even touch; under the T rule sharing a single endpoint is fine.
"""

from morpion import FIVE_D, FIVE_T, Board, Direction, Move, render

# the standard starting position: a plus-shaped outline of 36 crosses
board = Board(FIVE_D)
print(f"initial crosses: {len(board.crosses)}")
print(render(board).decode())

# every legal move is a (new cross, direction, line anchor) triple
moves = board.legal_moves()
print(f"legal first moves: {len(moves)}")
print("one of them:", moves[0])

# play it and look at the board again
board.apply(moves[0])
print(render(board).decode())

# the D/T distinction: draw the bottom edge, then try to extend it.
# (4,3) completes a horizontal run, and the continuation line anchored
# at (4,3) touches the first line in exactly one point.
d_board = Board(FIVE_D)
t_board = Board(FIVE_T)
first = Move((4, 3), Direction.E, (0, 3))
second = Move((5, 3), Direction.E, (4, 3))
for b in (d_board, t_board):
    b.apply(first)

print("touching line legal under 5D?", d_board.legality_failure(second) is None)
print("touching line legal under 5T?", t_board.legality_failure(second) is None)

# undo restores the previous position exactly
board.undo()
assert len(board.crosses) == 36 and not board.lines
print("undo returns to the initial position")
