"""Command-line entry point: verify, bounds, scan, pack, solve, replay, render.

Exit codes: 0 success, 1 verification failure (illegal record, violated
invariant, malformed input file), 2 usage error.  Every subcommand writes
deterministic stdout for a fixed invocation, except that ``solve`` reports
its wall time; golden tests mask that field.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
import time

from .engine import IllegalMoveError, replay
from .geometry import ConfigurationError, Variant
from .linecover import (
    ALL_RULES,
    START_CROSSES,
    LayoutError,
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
from .solver import SearchResult, beam_search, exhaustive_solve, greedy, nmcs, random_playout


def _random(variant: Variant, seed: int = 0) -> SearchResult:
    """One random playout as a search result; its nodes are the moves played."""
    t0 = time.perf_counter()
    record = random_playout(variant, seed)
    return SearchResult(record, len(record.moves), time.perf_counter() - t0)


# each strategy's search; the solve flags it accepts are its keyword parameters
_SEARCHES = {
    "random": _random,
    "greedy": greedy,
    "beam": beam_search,
    "nmcs": nmcs,
    "exhaustive": exhaustive_solve,
}


def _keywords(*searches) -> dict:
    """The searches' keyword parameters and their defaults (the searches agree)."""
    params = [p for s in searches for p in inspect.signature(s).parameters.values()]
    return {p.name: p.default for p in params if p.default is not p.empty}


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
    c.add_argument("--strategy", default="random", choices=_SEARCHES)
    # each search flag sets the keyword of its name; unset, the search's default holds
    defaults = _keywords(*_SEARCHES.values())
    c.add_argument("--seed", type=int, help=f"default {defaults['seed']}")
    c.add_argument("--level", type=int, help=f"NMCS nesting level (default {defaults['level']})")
    c.add_argument("--width", type=int, help=f"beam width (default {defaults['width']})")
    c.add_argument("--node-budget", type=int, metavar="NODES",
                   help=f"default {defaults['node_budget']}")
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
    if args.max_n < 1:
        raise ValueError(f"--max must be at least 1, got {args.max_n}")
    rules = _parse_rules(args.rules)
    rows = scan_table(rules, args.max_n)
    print("   N  rule           c'(N)   N+36  feasible")
    for n, rule, lower, budget, feasible in rows:
        print(f"{n:>4}  {rule:<13} {lower:>6}  {budget:>5}  {'yes' if feasible else 'NO'}")
    n, *_, feasible = rows[-1]
    if feasible:
        print(f"no infeasible N <= {args.max_n}")
    else:
        print(f"first infeasible N={n}; upper bound {n - 1}")
    return 0


def _cmd_pack(args) -> int:
    if args.max_n < 4:
        raise ValueError(f"--max must be at least 4, got {args.max_n}")
    sizes = range(4, args.max_n + 1)
    result = packing_search("octagon", sizes, sizes, cuts=(0, 1, 2, 3))
    print(
        f"pack: n={result.n} coverage={result.coverage} budget={result.n + START_CROSSES}"
        f" lines={result.layout.line_count}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_layout(result.layout))
        print(f"wrote {args.out}")
    return 0


def _cmd_solve(args) -> int:
    variant = Variant.from_name(args.variant)
    search = _SEARCHES[args.strategy]
    flags = _keywords(*_SEARCHES.values())
    given = {k: v for k, v in vars(args).items() if k in flags and v is not None}
    ignored = ["--" + k.replace("_", "-") for k in given if k not in _keywords(search)]
    if ignored:
        raise ValueError(f"--strategy {args.strategy} ignores {', '.join(ignored)}")
    result = search(variant, **given)
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
        f" lines={len(board.moves)} terminal={terminal}"
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
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
