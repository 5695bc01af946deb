"""CLI surface: frozen stdout, exit codes, file plumbing.

Each invocation runs in-process through main(argv).  The solve summary's
time field is masked before comparison; everything else must be
byte-stable.
"""

import inspect
import re
from pathlib import Path

import pytest

from morpion import cli, potential
from morpion.cli import main
from morpion.engine import Board, GameRecord
from morpion.geometry import FIVE_D, FIVE_T, SIX_D, Variant
from morpion.recordio import emit_record, parse_layout, parse_record
from morpion.solver import beam_search, exhaustive_solve, greedy, nmcs, random_playout

from conftest import HUGE, OVERSIZED_FIELDS

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


def test_verify_prefix_record_matches_golden(capsys, tmp_path):
    lines = (GOLDEN / "greedy_5d_seed1.rec").read_text().splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith("21 "))
    path = tmp_path / "prefix.rec"
    path.write_text("\n".join(lines[:cut]) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out == (GOLDEN / "cli_verify_greedy_prefix20.out").read_text()
    assert "terminal lemma: skipped (board not terminal)" in out


def test_verify_makes_one_potential_report_per_position(capsys, monkeypatch):
    calls = []
    report = potential.potential_report
    monkeypatch.setattr(
        potential, "potential_report", lambda board: calls.append(board.score) or report(board)
    )
    code, out, _ = run(capsys, "verify", str(GOLDEN / "greedy_5d_seed1.rec"))
    assert code == 0
    # positions 0..53, then the terminal lemma's own report
    assert calls == list(range(54)) + [53]


def tampered_record(tmp_path):
    text = (GOLDEN / "greedy_5d_seed1.rec").read_text()
    lines = text.splitlines()
    # move 5's cross lands far off its own line: clause (b) on replay
    lines[8] = re.sub(r"cross=-?\d+,-?\d+", "cross=40,40", lines[8])
    bad = tmp_path / "tampered.rec"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_verify_flags_tampered_record(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", str(tampered_record(tmp_path)))
    assert code == 1
    assert out == (
        "verify: FAIL (replay) move 5: illegal move Move(cross=(40, 40),"
        " direction=<Direction.N: 1>, anchor=(6, 0)):"
        " (b): line does not cover the placed cross\n"
    )


@pytest.mark.parametrize("command", ["replay", "render"])
def test_replay_and_render_reject_tampered_record(capsys, tmp_path, command):
    code, out, err = run(capsys, command, str(tampered_record(tmp_path)))
    assert code == 1
    assert out == ""
    assert "move 5:" in err


def test_verify_skips_monitors_off_5d(capsys):
    code, out, _ = run(capsys, "verify", str(GOLDEN / "random_5t_seed3.rec"))
    assert code == 0
    assert out == (GOLDEN / "cli_verify_random_5t.out").read_text()
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


def test_solve_exhaustive_stops_at_the_node_budget(capsys):
    code, out, _ = run(
        capsys, "solve", "--strategy", "exhaustive", "--variant", "6D", "--node-budget", "100"
    )
    assert code == 0
    assert re.fullmatch(r"score=\d+ nodes=100 time=\d+ms\n", out)


def test_parsed_options_do_not_carry_over_between_calls(capsys):
    # one parser serves every call; a --width left over from the first call
    # would make random play reject it (exit 2)
    code1, _, _ = run(capsys, "solve", "--strategy", "beam", "--width", "4", "--node-budget", "50")
    code2, _, err = run(capsys, "solve", "--strategy", "random", "--seed", "1")
    assert (code1, code2, err) == (0, 0, "")


# a variant and search keywords for each strategy
ROUTES = {
    "random": (FIVE_D, {"seed": 3}),
    "greedy": (FIVE_T, {"seed": 2}),
    "beam": (FIVE_T, {"seed": 1, "width": 4, "node_budget": 500}),
    "nmcs": (FIVE_D, {"seed": 1, "level": 2, "node_budget": 2000, "time_budget": 600.0}),
    "exhaustive": (SIX_D, {"node_budget": 3000}),
}


@pytest.mark.parametrize("strategy", ROUTES)
def test_solve_prints_what_the_strategys_search_returns(capsys, tmp_path, strategy):
    variant, keywords = ROUTES[strategy]
    out_path = tmp_path / "best.rec"
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in keywords.items()]
    code, out, err = run(
        capsys, "solve", "--variant", variant.name, "--strategy", strategy, *flags,
        "--out", str(out_path),
    )
    if strategy == "random":
        record = random_playout(variant, **keywords)
        score = nodes = len(record.moves)
    else:
        search = {"greedy": greedy, "beam": beam_search, "nmcs": nmcs,
                  "exhaustive": exhaustive_solve}[strategy]
        result = search(variant, **keywords)
        record, score, nodes = result.best_record, result.best_score, result.nodes_expanded
    assert (code, err) == (0, "")
    assert mask_time(out) == f"score={score} nodes={nodes} time=<T>ms\n"
    assert out_path.read_text() == emit_record(record)


def test_every_solve_flag_sets_a_search_keyword(capsys):
    """A flag that no search takes would be accepted and then ignored."""
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    help_text = capsys.readouterr().out
    signatures = [inspect.signature(s).parameters for s in cli._SEARCHES.values()]
    parsed = vars(cli.build_parser().parse_args(["solve"]))
    search_flags = set(parsed) - {"command", "variant", "strategy", "out"}
    assert search_flags
    for keyword in search_flags:
        flag = "--" + keyword.replace("_", "-")
        defaults = {params[keyword].default for params in signatures if keyword in params}
        assert len(defaults) == 1, f"{flag}: taken by no search, or by searches that disagree"
        # help shows the default the signatures give
        (default,) = defaults
        entry = re.search(rf"^  {flag} .*?(?=^  -|\Z)", help_text, re.M | re.S).group()
        assert default is None or re.search(rf"default {default}\b", entry), entry


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--strategy", "nmcs", "--node-budget", "-5"],
        ["--strategy", "nmcs", "--time-budget", "nan"],
        ["--strategy", "nmcs", "--time-budget", "-1"],
        ["--strategy", "beam", "--node-budget", "-5"],
        ["--strategy", "exhaustive", "--variant", "6D", "--node-budget", "-5"],
    ],
)
def test_solve_rejects_negative_or_nan_budgets(capsys, argv):
    code, out, err = run(capsys, "solve", *argv)
    assert code == 2
    assert out == ""
    assert "budget must be >= 0" in err


@pytest.mark.parametrize("strategy", cli._SEARCHES)
@pytest.mark.parametrize("variant", ["3D", "3T"])
def test_solve_refuses_line_length_3(capsys, strategy, variant):
    code, out, err = run(capsys, "solve", "--strategy", strategy, "--variant", variant)
    assert code == 2
    assert out == ""
    assert "without end" in err


@pytest.mark.parametrize("command", ["replay", "verify", "render"])
def test_line_length_3_records_still_replay(capsys, tmp_path, command):
    board = Board(Variant(3, True))
    for _ in range(4):
        board.apply(board.legal_moves()[0])
    path = tmp_path / "three.rec"
    path.write_text(emit_record(GameRecord(board.variant, board.moves)))
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    assert out


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


@pytest.mark.parametrize(
    "command, data, line",
    [
        ("verify", b"morpion-record v1 variant=5D\n\xff\n", 2),
        ("replay", b"morpion-record v1 variant=5D\n# seed=\xc3\n", 2),
        ("render", b"morpion-layout v1 alpha=5\ndir=E anchor=0,0\n\xfe", 3),
    ],
)
def test_non_utf8_input_exits_1_naming_the_line(capsys, tmp_path, command, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert f"error: line {line}: byte 0x" in err


def test_layout_with_unsupported_alpha_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.lay"
    path.write_text("morpion-layout v1 alpha=1000000000\ndir=E anchor=0,0\n")
    code, _, err = run(capsys, "render", str(path))
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize(
    "command, field",
    [
        (command, field)
        for field, (template, _, _) in sorted(OVERSIZED_FIELDS.items())
        for command in ("verify", "replay", "render")
        if command == "render" or template.startswith("morpion-record")
    ],
)
def test_oversized_integer_exits_1(capsys, tmp_path, command, field):
    template, line, column = OVERSIZED_FIELDS[field]
    path = tmp_path / "huge.txt"
    path.write_text(template.format(HUGE))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: line {line}, col {column}: integer has too many digits\n"


def test_render_of_far_apart_layout_lines_exits_1(capsys, tmp_path):
    """Three lines whose bounding box would need about 4e12 ASCII cells."""
    path = tmp_path / "far.lay"
    path.write_text(
        "morpion-layout v1 alpha=5\n"
        "dir=E anchor=0,0\n"
        "dir=N anchor=0,0\n"
        "dir=E anchor=1000000,1000000\n"
    )
    code, out, err = run(capsys, "render", str(path))
    assert code == 1
    assert out == ""
    assert "2000001x2000009 cells" in err


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
