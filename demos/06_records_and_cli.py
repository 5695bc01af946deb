"""
Game records on disk, and the command-line tool
===============================================

Records are plain text: a header naming the variant, optional metadata,
then one line per move.  Parsing replays the game by default, so a file
that parses is a file that is legal.  The same operations are available
from the shell via the `morpion` command.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from morpion import FIVE_D, emit_record, nmcs, parse_record, render, replay
from morpion.recordio import RenderSpec

# produce a game worth keeping and serialize it
result = nmcs(FIVE_D, level=1, seed=4)
text = emit_record(result.best_record)
print("\n".join(text.splitlines()[:7]), "...")

# parse -> emit is byte-identical, and parsing verifies legality
assert emit_record(parse_record(text)) == text
board = replay(result.best_record)
print(f"replayed: {board.score} moves, {len(board.crosses)} crosses")

# an annotated picture: move numbers on the crosses they placed
picture = render(board, RenderSpec(annotate_moves=True))
print(picture.decode()[:400], "...")

# the CLI wraps the same library calls; every subcommand is
# deterministic for fixed flags and seed
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_game.rec"
    path.write_text(text)
    for argv in (
        ["bounds"],
        ["verify", str(path)],
        ["scan", "--rules=A,B", "--max=125"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "morpion.cli", *argv],
            capture_output=True,
            text=True,
        )
        last = proc.stdout.strip().splitlines()[-1]
        print(f"$ morpion {' '.join(argv)}\n  ... {last} (exit {proc.returncode})")
