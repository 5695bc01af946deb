"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps the program's public functions where callers look
them up: methods on the ``Board`` class, and every ``morpion`` module
attribute bound to a traced function (``morpion.cli.potential_report`` as
well as ``morpion.potential.potential_report``).  The program's source is
never touched and ``uninstall`` puts every original back.  An untraced run
never calls ``install``.

Hot calls (engine, geometry, potential_report) are aggregated per name only;
every other call also keeps an individual span ``[id, parent, name, start,
end]``.  A name's self time is its span time minus the time of the traced
spans it called.  Geometry constructors are counted, not timed.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (metric prefix, defining module, attribute; "Class.method" for methods)
SPANS = (
    ("engine.apply", "morpion.engine", "Board.apply"),
    ("engine.legal_moves", "morpion.engine", "Board.legal_moves"),
    ("engine.undo", "morpion.engine", "Board.undo"),
    ("engine.copy", "morpion.engine", "Board.copy"),
    ("engine.board_init", "morpion.engine", "Board.__init__"),
    ("engine.replay", "morpion.engine", "replay"),
    ("solver.exhaustive_solve", "morpion.solver", "exhaustive_solve"),
    ("solver.nmcs", "morpion.solver", "nmcs"),
    ("solver.check_record_bounds", "morpion.solver", "check_record_bounds"),
    ("potential.potential_report", "morpion.potential", "potential_report"),
    ("potential.check_terminal_lemma", "morpion.potential", "check_terminal_lemma"),
    ("recordio.parse_record", "morpion.recordio", "parse_record"),
    ("recordio.emit_record", "morpion.recordio", "emit_record"),
    ("recordio.render", "morpion.recordio", "render"),
    ("recordio.parse_layout", "morpion.recordio", "parse_layout"),
    ("linecover.packing_search", "morpion.linecover", "packing_search"),
    ("linecover.min_cover_exact", "morpion.linecover", "min_cover_exact"),
    ("linecover.lemma_counting_replay", "morpion.linecover", "lemma_counting_replay"),
    ("linecover.infeasibility_scan", "morpion.linecover", "infeasibility_scan"),
    ("linecover.verify_layout", "morpion.linecover", "verify_layout"),
    ("cli.main", "morpion.cli", "main"),
)
COUNTS = (
    ("geometry.segment_through", "morpion.geometry", "segment_through"),
    ("geometry.segment_relation", "morpion.geometry", "segment_relation"),
)
HOT = ("engine.", "geometry.", "potential.potential_report")

# per-layer metric -> unit; the traced run prints exactly these
METRICS: dict[str, str] = {}
for _name, _, _ in SPANS:
    METRICS.update({f"{_name}.calls": "count", f"{_name}.self_s": "s", f"{_name}.us_per_call": "us"})
for _name, _, _ in COUNTS:
    METRICS[f"{_name}.calls"] = "count"
METRICS.update({
    "engine.apply.illegal": "count",
    "engine.legal_moves.moves_per_call": "moves/call",
    "recordio.render.bytes": "bytes",
    "cli.main.nonzero_exit": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _program_modules():
    return [m for n, m in list(sys.modules.items()) if n == "morpion" or n.startswith("morpion.")]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[list] = []  # [child_s, span id or None]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, hot: bool) -> list:
        sid = None
        if not hot:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            sid = len(self.spans)
            self.spans.append([sid, parent, name, 0.0, 0.0])
        frame = [0.0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dt = t1 - t0
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        if frame[1] is not None:
            self.spans[frame[1]][3:5] = [t0, t1]

    @contextmanager
    def span(self, name: str):
        """A span around harness code, e.g. one benchmark operation."""
        frame = self._enter(name, False)
        t0 = self.clock()
        try:
            yield
        finally:
            self._exit(name, frame, t0, self.clock())

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        hot = name.startswith(HOT)
        enter, exit_, count, clock = self._enter, self._exit, self._count, self.clock

        def wrapper(*args, **kwargs):
            frame = enter(name, hot)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(name, frame, t0, clock())
                if name == "engine.apply" and type(exc).__name__ == "IllegalMoveError":
                    count("engine.apply.illegal")
                raise
            exit_(name, frame, t0, clock())
            if name == "engine.legal_moves":
                count("engine.legal_moves.moves", len(result))
            elif name == "recordio.render":
                count("recordio.render.bytes", len(result))
            elif name == "cli.main" and result != 0:
                count("cli.main.nonzero_exit")
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        count = self._count

        def wrapper(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _program_modules()
        for targets, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name, module, attr in targets:
                home = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, make(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, overhead_s: float, untraced_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.us_per_call"] = total / calls * 1e6 if calls else 0.0
        for name, _, _ in COUNTS:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        legal_calls = out["engine.legal_moves.calls"]
        legal_moves = self.counts.get("engine.legal_moves.moves", 0)
        out["engine.legal_moves.moves_per_call"] = legal_moves / legal_calls if legal_calls else 0.0
        for key in ("engine.apply.illegal", "recordio.render.bytes", "cli.main.nonzero_exit"):
            out[key] = self.counts.get(key, 0)
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_ratio"] = overhead_s / untraced_s if untraced_s else 0.0
        return out

    def dump(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": self.spans,
        }
