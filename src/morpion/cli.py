"""Command-line entry point: verify, bounds, scan, pack, solve, replay, render.

Exit codes: 0 success, 1 verification failure (illegal record, violated
invariant, malformed input file), 2 usage error.  Every subcommand writes
deterministic stdout for a fixed invocation, except that ``solve`` reports
its wall time; golden tests mask that field.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .engine import IllegalMoveError, replay
from .geometry import ConfigurationError, Variant
from .linecover import (
    ALL_RULES,
    LayoutError,
    infeasibility_scan,
    packing_search,
    scan_table,
)
from .potential import INITIAL_POTENTIAL, PUBLISHED_BOUNDS, MonitorFailure, verify_record
from .recordio import (
    LAYOUT_MAGIC,
    RECORD_MAGIC,
    RecordParseError,
    RenderSpec,
    emit_layout,
    emit_record,
    parse_layout,
    parse_record,
    render,
)
from .solver import STRATEGIES, SearchConfig, solve


# built once per process: parse_args fills a fresh Namespace on every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="morpion", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("verify", help="replay a record and run the analytic monitors")
    c.add_argument("record", help="record file to verify")

    sub.add_parser("bounds", help="print the potential-based upper bound table")

    c = sub.add_parser("scan", help="line-based infeasibility scan")
    c.add_argument("--rules", default="A,B,remark", help="comma list from A,B,remark")
    c.add_argument("--max", type=int, default=200, dest="max_n", metavar="MAX",
                   help="largest N to scan")

    c = sub.add_parser("pack", help="search dense layouts witnessing c(n) <= n+36")
    c.add_argument("--max", type=int, default=12, dest="max_n", metavar="MAX",
                   help="largest octagon width/height to try")
    c.add_argument("--out", help="write the best layout file here")

    c = sub.add_parser("solve", help="run a search strategy")
    c.add_argument("--variant", default="5D")
    c.add_argument("--strategy", default="random", choices=STRATEGIES)
    # unset options keep SearchConfig's defaults; see _SOLVE_OPTIONS
    c.add_argument("--seed", type=int, help=f"default {SearchConfig.seed}")
    c.add_argument("--level", type=int, dest="nmcs_level", metavar="LEVEL",
                   help=f"NMCS nesting level (default {SearchConfig.nmcs_level})")
    c.add_argument("--width", type=int, dest="beam_width", metavar="WIDTH",
                   help=f"beam width (default {SearchConfig.beam_width})")
    c.add_argument("--node-budget", type=int, metavar="NODES",
                   help=f"default {SearchConfig.node_budget}")
    c.add_argument("--time-budget", type=float, metavar="SECONDS", help="NMCS only")
    c.add_argument("--out", help="write the best record file here")

    c = sub.add_parser("replay", help="replay a record file and summarize the board")
    c.add_argument("record", help="record file to replay")

    c = sub.add_parser("render", help="draw a record or layout file")
    c.add_argument("input", help="record or layout file")
    c.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    c.add_argument("--out", help="write the rendering here instead of stdout")
    return p


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise RecordParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None


def _cmd_verify(args) -> int:
    record = parse_record(_read(args.record), validate=False)
    try:
        result = verify_record(record)
    except MonitorFailure as exc:
        print(f"verify: FAIL ({exc.check}) {exc}")
        return 1
    print(f"replay: ok ({len(record.moves)} moves)")
    print(f"fact: crosses={result.crosses} lines={result.lines} ok")
    if result.potential is None:
        print(f"potential monitors: skipped (variant {record.variant.name})")
    else:
        print(
            f"potential: total={INITIAL_POTENTIAL}-N identity ok (now {result.potential})"
        )
        print("pre-move floor: ok")
        if result.terminal is None:
            print("terminal lemma: skipped (board not terminal)")
        else:
            print(f"terminal lemma: sum={sum(result.terminal)} ok")
    print("verify: PASS")
    return 0


def _cmd_bounds(_args) -> int:
    print("initial  terminal-floor  lookback  bound")
    for d in PUBLISHED_BOUNDS:
        print(f"{d.initial_potential:>7}  {d.terminal_floor:>14}  {d.lookback:>8}  {d.bound:>5}")
    return 0


def _parse_rules(text: str) -> frozenset:
    rules = frozenset(tok.strip() for tok in text.split(",") if tok.strip())
    unknown = rules - ALL_RULES
    if unknown:
        raise ConfigurationError(
            f"unknown rules {sorted(unknown)} (choose from A,B,remark)"
        )
    return rules


def _cmd_scan(args) -> int:
    rules = _parse_rules(args.rules)
    print("   N  rule           c'(N)   N+36  feasible")
    for row in scan_table(rules, args.max_n):
        n, rule, lower, budget, feasible = row
        print(f"{n:>4}  {rule:<13} {lower:>6}  {budget:>5}  {'yes' if feasible else 'NO'}")
    first = infeasibility_scan(rules, args.max_n)
    if first is None:
        print(f"no infeasible N <= {args.max_n}")
    else:
        print(f"first infeasible N={first + 1}; upper bound {first}")
    return 0


def _cmd_pack(args) -> int:
    sizes = range(4, args.max_n + 1)
    result = packing_search("octagon", sizes, sizes, cuts=(0, 1, 2, 3))
    print(
        f"pack: n={result.n} coverage={result.coverage} budget={result.n + 36}"
        f" lines={result.layout.line_count}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_layout(result.layout))
        print(f"wrote {args.out}")
    return 0


# the solve options each strategy reads; giving it any other is a usage error
_SOLVE_OPTIONS = {
    "random": ("seed",),
    "greedy": ("seed",),
    "beam": ("seed", "beam_width", "node_budget"),
    "nmcs": ("seed", "nmcs_level", "node_budget", "time_budget"),
    "exhaustive": ("node_budget",),
}
_SOLVE_FLAGS = {
    "seed": "--seed",
    "nmcs_level": "--level",
    "beam_width": "--width",
    "node_budget": "--node-budget",
    "time_budget": "--time-budget",
}


def _cmd_solve(args) -> int:
    variant = Variant.from_name(args.variant)
    given = {k: getattr(args, k) for k in _SOLVE_FLAGS if getattr(args, k) is not None}
    ignored = [_SOLVE_FLAGS[k] for k in given if k not in _SOLVE_OPTIONS[args.strategy]]
    if ignored:
        raise ValueError(f"--strategy {args.strategy} ignores {', '.join(ignored)}")
    result = solve(variant, SearchConfig(strategy=args.strategy, **given))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_record(result.best_record))
    print(
        f"score={result.best_score} nodes={result.nodes_expanded}"
        f" time={int(result.wall_time * 1000)}ms"
    )
    return 0


def _cmd_replay(args) -> int:
    board = replay(parse_record(_read(args.record), validate=False))
    terminal = "yes" if not board.has_legal_moves() else "no"
    print(
        f"replayed {len(board.moves)} moves: crosses={len(board.crosses)}"
        f" lines={len(board.lines)} terminal={terminal}"
    )
    return 0


def _cmd_render(args) -> int:
    text = _read(args.input)
    if text.startswith(LAYOUT_MAGIC):
        obj = parse_layout(text)
        annotate = False
    elif text.startswith(RECORD_MAGIC):
        obj = parse_record(text, validate=False)  # render replays it
        annotate = True
    else:
        raise RecordParseError(
            f"unrecognized file (expected '{RECORD_MAGIC}' or '{LAYOUT_MAGIC}' header)", 1
        )
    data = render(obj, RenderSpec(format=args.format, annotate_moves=annotate))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(data.decode())
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
    "pack": _cmd_pack,
    "solve": _cmd_solve,
    "replay": _cmd_replay,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RecordParseError, IllegalMoveError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
