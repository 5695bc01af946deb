"""CLI surface: frozen stdout, exit codes, file plumbing.

Each invocation runs in-process through main(argv).  The solve summary's
time field is masked before comparison; everything else must be
byte-stable.
"""

import re
from pathlib import Path

import pytest

from morpion.cli import main
from morpion.geometry import FIVE_T
from morpion.recordio import emit_record, parse_layout, parse_record
from morpion.solver import random_playout

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def mask_time(text):
    return re.sub(r"time=\d+ms", "time=<T>ms", text)


def test_bounds_matches_golden(capsys):
    code, out, err = run(capsys, "bounds")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "cli_bounds.out").read_text()
    for value in ("141", "138", "137", "136"):
        assert value in out


def test_scan_ab_matches_golden(capsys):
    code, out, _ = run(capsys, "scan", "--rules=A,B", "--max=200")
    assert code == 0
    assert out == (GOLDEN / "cli_scan_ab.out").read_text()
    assert out.splitlines()[-1] == "first infeasible N=122; upper bound 121"


def test_scan_rule_variants(capsys):
    code, out, _ = run(capsys, "scan", "--rules=A", "--max=200")
    assert code == 0
    assert out.splitlines()[-1] == "first infeasible N=133; upper bound 132"
    code, out, _ = run(capsys, "scan", "--rules=A,remark", "--max=200")
    assert out.splitlines()[-1] == "first infeasible N=126; upper bound 125"
    code, out, _ = run(capsys, "scan", "--max=200")  # all rules
    assert out.splitlines()[-1] == "first infeasible N=122; upper bound 121"
    code, out, _ = run(capsys, "scan", "--rules=A,B", "--max=100")
    assert out.splitlines()[-1] == "no infeasible N <= 100"


def test_scan_rejects_unknown_rule(capsys):
    code, _, err = run(capsys, "scan", "--rules=A,Q")
    assert code == 2
    assert "unknown rules" in err


def test_verify_golden_record(capsys):
    code, out, _ = run(capsys, "verify", str(GOLDEN / "greedy_5d_seed1.rec"))
    assert code == 0
    assert out == (GOLDEN / "cli_verify_greedy.out").read_text()
    assert out.splitlines()[-1] == "verify: PASS"


def test_verify_flags_tampered_record(capsys, tmp_path):
    text = (GOLDEN / "greedy_5d_seed1.rec").read_text()
    lines = text.splitlines()
    # move 5's cross lands far off its own line: clause (b) on replay
    lines[8] = re.sub(r"cross=-?\d+,-?\d+", "cross=40,40", lines[8])
    bad = tmp_path / "tampered.rec"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "verify: FAIL (replay)" in out


def test_verify_skips_monitors_off_5d(capsys, tmp_path):
    record = random_playout(FIVE_T, 3)
    path = tmp_path / "t.rec"
    path.write_text(emit_record(record))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "potential monitors: skipped (variant 5T)" in out
    assert out.splitlines()[-1] == "verify: PASS"


def test_solve_greedy_writes_golden_record(capsys, tmp_path):
    out_path = tmp_path / "g.rec"
    code, out, _ = run(
        capsys, "solve", "--variant", "5D", "--strategy", "greedy",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert re.fullmatch(r"score=53 nodes=\d+ time=\d+ms\n", out)
    assert out_path.read_text() == (GOLDEN / "greedy_5d_seed1.rec").read_text()


def test_solve_stdout_stable_up_to_time(capsys):
    code1, out1, _ = run(capsys, "solve", "--strategy", "random", "--seed", "5")
    code2, out2, _ = run(capsys, "solve", "--strategy", "random", "--seed", "5")
    assert code1 == code2 == 0
    assert mask_time(out1) == mask_time(out2)


def test_solve_rejects_unknown_strategy(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--strategy", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--strategy", "exhaustive", "--time-budget", "1"], "--time-budget"),
        (["--strategy", "random", "--level", "2"], "--level"),
        (["--strategy", "greedy", "--node-budget", "10"], "--node-budget"),
        (["--strategy", "nmcs", "--width", "8"], "--width"),
        (["--strategy", "exhaustive", "--variant", "6D", "--seed", "1"], "--seed"),
    ],
)
def test_solve_rejects_options_the_strategy_ignores(capsys, argv, flag):
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def test_replay_summarizes_board(capsys):
    code, out, _ = run(capsys, "replay", str(GOLDEN / "greedy_5d_seed1.rec"))
    assert code == 0
    assert out == "replayed 53 moves: crosses=89 lines=53 terminal=yes\n"


def test_render_record_matches_annotated_golden(capsys):
    code, out, _ = run(capsys, "render", str(GOLDEN / "greedy_5d_seed1.rec"))
    assert code == 0
    assert out.encode() == (GOLDEN / "greedy_5d_seed1_annotated.txt").read_bytes()


def test_render_layout_svg_to_file(capsys, tmp_path):
    out_path = tmp_path / "grid.svg"
    code, out, _ = run(
        capsys, "render", str(GOLDEN / "grid10.lay"),
        "--format", "svg", "--out", str(out_path),
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    data = out_path.read_bytes()
    assert data == (GOLDEN / "grid10.svg").read_bytes()
    assert data.decode().count("<line ") == 64


def test_render_rejects_unknown_file_shape(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    code, _, err = run(capsys, "render", str(path))
    assert code == 1
    assert "unrecognized file" in err


def test_pack_reports_and_writes_layout(capsys, tmp_path):
    out_path = tmp_path / "packed.lay"
    code, out, _ = run(capsys, "pack", "--max", "8", "--out", str(out_path))
    assert code == 0
    m = re.match(r"pack: n=(\d+) coverage=(\d+) budget=(\d+) lines=(\d+)\n", out)
    assert m, out
    n, cov, budget, lines = map(int, m.groups())
    assert lines == n and budget == n + 36 and cov <= budget
    layout = parse_layout(out_path.read_text())
    assert layout.line_count == n


def test_usage_errors_exit_2(capsys):
    for argv in ([], ["frobnicate"], ["scan", "--bogus"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file.rec")
    assert code == 2
    assert "error:" in err


def test_malformed_record_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.rec"
    path.write_text("morpion-record v7 variant=5D\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "unsupported record version" in err


def test_layout_with_unsupported_alpha_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.lay"
    path.write_text("morpion-layout v1 alpha=1000000000\ndir=E anchor=0,0\n")
    code, _, err = run(capsys, "render", str(path))
    assert code == 1
    assert "out of range" in err


def test_cli_record_files_parse_with_library(capsys, tmp_path):
    out_path = tmp_path / "n.rec"
    code, out, _ = run(
        capsys, "solve", "--strategy", "nmcs", "--level", "1", "--seed", "0",
        "--out", str(out_path),
    )
    assert code == 0
    record = parse_record(out_path.read_text())
    assert record.metadata["strategy"] == "nmcs"
    assert f"score={len(record.moves)}" in out
