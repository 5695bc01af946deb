"""Self-tests for the benchmark harness (not part of the program's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from morpion import cli, engine, geometry, potential  # noqa: E402
from morpion.geometry import SIX_D  # noqa: E402

PINS = workloads.load_pins()


def first_keys(wl, n):
    return [op.key for op in itertools.islice(wl.ops(), n)]


def program_bindings():
    """Every traced name as callers see it: class methods and module attributes."""
    return {
        **{k: v for k, v in vars(engine.Board).items() if callable(v)},
        **{f"{m.__name__}.{k}": v for m in (cli, engine, geometry, potential)
           for k, v in vars(m).items() if callable(v)},
    }


def test_inputs_are_a_pure_function_of_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    for cls in (workloads.Search, workloads.Proof):
        same = [first_keys(cls(3, PINS, a), 24) for _ in range(2)]
        assert same[0] == same[1]
        assert first_keys(cls(4, PINS, a), 24) != same[0]
    audits = [workloads.Audit(3, PINS, a), workloads.Audit(3, PINS, b), workloads.Audit(4, PINS, c)]
    texts = [{k: p.read_bytes() for k, p in w.records.items()} for w in audits]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]
    assert first_keys(audits[0], 200) == first_keys(audits[1], 200)
    board = workloads.prefix_board(SIX_D, 5)
    assert board.moves == workloads.prefix_board(SIX_D, 5).moves


def test_untraced_run_installs_no_wrappers_and_traced_run_restores_them():
    before = program_bindings()
    result, _, dump = run.measure("audit", 1, 0.0, trace=False, setup_samples=1)
    assert result["correct"] and dump is None
    assert program_bindings() == before
    t = tracer.Tracer()
    t.install()
    assert program_bindings() != before
    t.uninstall()
    assert program_bindings() == before


def traced_fingerprints(ops):
    t = tracer.Tracer()
    t.install()
    try:
        fps = [op.call()[0] for op in ops]
    finally:
        t.uninstall()
    return fps, t


def test_tracing_leaves_fingerprints_unchanged(tmp_path):
    audit = workloads.Audit(2, PINS, tmp_path)
    ops = list(itertools.islice(audit.ops(), 3))
    ops.append(next(op for op in audit.ops() if op.kind == "bounds"))
    smallest = workloads.Search(0, PINS, tmp_path).pins
    key = min(smallest, key=lambda k: smallest[k]["nodes"])
    ops.append(workloads.Op("game", key, smallest[key], lambda: workloads.game(int(key)), True))
    fps, t = traced_fingerprints(ops)
    assert fps == [op.expected for op in ops]
    assert t.stats["engine.apply"][0] > 0 and t.stats["cli.main"][0] == 3

    # a short exact solve: traced and untraced agree on value, nodes and line
    board = workloads.prefix_board(SIX_D, 0)
    for _ in range(2):
        board.apply(board.legal_moves()[0])
    solve = workloads.Op("solve", "6D", {}, lambda: workloads.subtree(SIX_D, board), True)
    fps, t = traced_fingerprints([solve])
    assert fps == [solve.call()[0]]
    assert t.stats["solver.exhaustive_solve"][2] > 0


def test_trace_counts_repeat_exactly(tmp_path):
    audit = workloads.Audit(5, PINS, tmp_path)
    ops = list(itertools.islice(audit.ops(), 4))
    counts = []
    for _ in range(2):
        _, t = traced_fingerprints(ops)
        m = t.metrics(0.0, 1.0)
        counts.append({k: v for k, v in m.items() if tracer.METRICS[k] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["recordio.render.calls"] == 8


def test_wrong_expected_fingerprint_is_a_failed_operation(monkeypatch, capsys):
    tampered = copy.deepcopy(PINS)
    for entry in tampered["audit"]["pins"].values():
        if "render" in entry:
            entry["render"] = "0" * 16
    monkeypatch.setattr(workloads, "load_pins", lambda: tampered)
    assert run.main(["--workload", "audit", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # every record; not the bounds batch


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
