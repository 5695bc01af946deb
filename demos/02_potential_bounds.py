"""
Potential counting: why no 5D game exceeds 136 moves
====================================================

Give every cross 4 units of potential and charge each line one unit per
cross it covers.  A move adds one cross (+4) and one line (-5), so total
potential drops by exactly 1 per move: after N moves it is 144 - N.
Potential can never go negative, and terminal boards keep a provable
amount stranded, which caps the score.
"""

from morpion import (
    FIVE_D,
    PUBLISHED_BOUNDS,
    Board,
    check_terminal_lemma,
    potential_bound,
    potential_report,
    random_playout,
    replay,
    verify_record,
)

# watch the identity hold move by move on a random game
record = random_playout(FIVE_D, seed=3)
board = Board(FIVE_D)
for n, move in enumerate(record.moves, start=1):
    assert potential_report(board).total >= 4  # units free before every move
    board.apply(move)
    assert potential_report(board).total == 144 - n
print(f"seed 3 playout: {board.score} moves, total potential {potential_report(board).total}")

# verify_record runs the same checks, plus the terminal lemma below, as the
# replay monitor behind `morpion verify`
print(f"verify_record: {verify_record(record)}")

# the terminal lemma: the last three crosses retain at least 7 units,
# and the final cross always retains exactly 3
ok, last3 = check_terminal_lemma(board)
print(f"last three cross potentials {last3} sum to {sum(last3)} (>= 7: {ok})")

# each published bound is potential_bound(p0, terminal_floor, lookback):
# starting potential p0, at least terminal_floor stranded at the end,
# lookback final moves analyzed separately
for d in PUBLISHED_BOUNDS:
    print(f"  floor {d.terminal_floor} lookback {d.lookback}  ->  score <= {d.bound}")
assert potential_bound(144, 9, 1) == 136

# the bound argument never inspects the rule set, only the arithmetic;
# replaying any legal record keeps every invariant
replayed = replay(record)
assert potential_report(replayed).total == 144 - replayed.score
print("replay confirms the 144 - N identity")
