"""
Searching for long games
========================

Four harnesses of increasing strength: random playouts, a jittered
greedy line, beam search over a heuristic, and nested Monte-Carlo
search.  Everything is seeded; rerunning the script reproduces the
same scores.  Pass --exact to also solve the length-6 variants to
optimality (about 15 s each on one core).
"""

import sys

from morpion import (
    FIVE_D,
    SIX_D,
    SIX_T,
    beam_search,
    exhaustive_solve,
    greedy,
    nmcs,
    playout_sweep,
    random_playout,
)

# one uniformly random game
record = random_playout(FIVE_D, seed=0)
print(f"random playout, seed 0: {len(record.moves)} moves")

# best of many playouts, farmed out to worker processes on independent
# RNG substreams so the answer is the same at any worker count
sweep = playout_sweep(FIVE_D, seed=0, playouts=2000, workers=4)
print(f"best of 2000 playouts: {sweep.best_score}")

# greedy = width-1 beam; wider beams trade time for score
print(f"greedy, seed 0: {greedy(FIVE_D, 0).best_score}")
print(f"beam width 16, seed 0: {beam_search(FIVE_D, 16, 0).best_score}")

# nested Monte-Carlo: level L evaluates each candidate move with a
# level L-1 search; level 1 already beats wide beams here
result = nmcs(FIVE_D, level=1, seed=0)
print(
    f"NMCS level 1, seed 0: {result.best_score} "
    f"({result.nodes_expanded} nodes, {result.wall_time:.1f}s)"
)

# the long-line variants are small enough to solve exactly: depth-first
# search with symmetry-aware transposition merging proves the optimum
if "--exact" in sys.argv[1:]:
    for variant in (SIX_D, SIX_T):
        res = exhaustive_solve(variant)
        print(
            f"{variant.name} optimum: {res.best_score} moves, exact={res.exact}, "
            f"{res.nodes_expanded} nodes"
        )
else:
    print("rerun with --exact to prove the 6D/6T optimum (12 moves)")
