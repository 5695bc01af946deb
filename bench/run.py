"""Morpion benchmark: one closed-loop workload per run, one JSON result line.

    python3 bench/run.py --workload {search,proof,audit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` and nowhere else.  Each operation starts when the
previous one returns, in one process with no worker pool.  Every operation's
fingerprint is checked against ``pins.json``; a raise or a mismatch counts
as failed and makes the exit code 1.

``--trace 0`` measures for ``--seconds`` with no wrappers installed and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed list of the
workload's first operations twice, untraced and then traced, prints the
per-layer metrics with the tracing overhead (traced minus untraced time for
the same work), and writes the spans to ``bench/out/``.

Host-speed adjustment: on a shared host the speed of one core drifts by
tens of percent within a minute.  While operations run, a SIGALRM timer
times a fixed pure-Python reference kernel every ``SAMPLE_INTERVAL_S``;
the kernel's time is excluded from the operations' times.  Each
operation's time is scaled by ``REFERENCE_S`` over the mean kernel time
sampled within ``SAMPLE_WINDOW_S`` of it.  The reported times are therefore
seconds on a host where the kernel takes exactly ``REFERENCE_S``.  Raw wall
times stay in the human-readable lines.

Set-up (import, input generation, cache warm-up) is timed in this process
and in two fresh ones; ``setup_s`` is the median.  Every run is a fresh
process and the program's in-process caches are filled during set-up, so
every timed operation sees the same warm state.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5
REFERENCE_ITERATIONS = 3000
REFERENCE_S = 0.005
SAMPLE_INTERVAL_S = 0.1
SAMPLE_WINDOW_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "moves_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def reference() -> float:
    """Wall time of a fixed kernel of tuple, dict, set and small-sort work.

    The garbage collector is paused so that the program's heap cannot slow
    the kernel down.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        seen: set = set()
        for i in range(REFERENCE_ITERATIONS):
            k = (i % 97, i * 7 % 89)
            table[k] = table.get(k, 0) + 1
            if k in seen:
                seen.discard(k)
            else:
                seen.add(k)
            sorted((k, (i % 5, i % 3), (i % 11, 0)))
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Reference-kernel timings sampled by a SIGALRM timer while in use.

    ``clock()`` is ``perf_counter`` minus the time spent sampling, so spans
    measured with it exclude the sampler.  Sample times use the same clock.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.paused = 0.0
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a tick that lands inside the kernel is skipped
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.times.append(t0 - self.paused)
        self.kernel.append(reference())
        self.paused += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        try:
            if exc[0] is None:
                time.sleep(SAMPLE_WINDOW_S)  # samples after the last operation
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time sampled within the window of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - SAMPLE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + SAMPLE_WINDOW_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near an operation")
        return REFERENCE_S / statistics.fmean(self.kernel[lo:hi])


def import_program():
    """Import ``morpion`` from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "morpion" / "__init__.py").is_file():
        raise SystemExit(f"bench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import morpion

    if Path(morpion.__file__).resolve().parent != SRC / "morpion":
        raise SystemExit(f"bench: imported morpion from {morpion.__file__}, not {SRC}")
    return morpion


def set_up(workload: str, seed: int):
    """Import, input generation and cache warm-up; returns (workload, workdir, adjusted s)."""
    with HostSpeed() as host:
        t0 = host.clock()
        import_program()
        import workloads

        pins = workloads.load_pins()
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        wl = workloads.WORKLOADS[workload](seed, pins, workdir)
        t1 = host.clock()
    return wl, workdir, (t1 - t0) * host.scale(t0, t1)


def tear_down(wl, workdir: Path) -> None:
    wl.close()
    shutil.rmtree(workdir, ignore_errors=True)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


@dataclass
class Sample:
    kind: str
    key: str
    main: bool
    start: float  # HostSpeed clock
    seconds: float  # wall, sampler excluded
    moves: int
    ok: bool
    adjusted: float = 0.0  # seconds scaled to the reference host speed


class Loop:
    """Closed-loop runner: runs operations, times them, checks fingerprints."""

    def __init__(self):
        self.samples: list[Sample] = []
        self.failures: list[str] = []
        # after a fixed amount of work, so that a faster program fitting more
        # rounds into the run does not read as using more memory
        self.first_round_rss_mb: float | None = None

    def run(self, ops, host: HostSpeed, deadline: float | None = None, tracer=None) -> list[Sample]:
        """Run ``ops`` in order, stopping at the first round end past ``deadline``."""
        first = len(self.samples)
        with host:
            for op in ops:
                self._one(op, host.clock, tracer)
                if op.ends_round and self.first_round_rss_mb is None:
                    self.first_round_rss_mb = peak_rss_mb()
                if deadline is not None and op.ends_round and time.perf_counter() >= deadline:
                    break
        new = self.samples[first:]
        for s in new:
            s.adjusted = s.seconds * host.scale(s.start, s.start + s.seconds)
        return new

    def _one(self, op, clock, tracer) -> None:
        t0 = clock()
        moves, ok = 0, False
        try:
            if tracer is None:
                fp, moves = op.call()
            else:
                with tracer.span(f"op.{op.kind}"):
                    fp, moves = op.call()
            ok = fp == op.expected
            if not ok:
                self.failures.append(f"{op.kind} {op.key}: got {fp}, expected {op.expected}")
        except Exception:
            self.failures.append(f"{op.kind} {op.key}: raised\n{traceback.format_exc()}")
        self.samples.append(Sample(op.kind, op.key, op.main, t0, clock() - t0, moves, ok))

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(samples: list[Sample], setup_s: float, rss_mb: float) -> dict[str, float]:
    main = [s for s in samples if s.main]
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(s.adjusted for s in main) * 1e3,
        "ops_per_s": len(main) / sum(s.adjusted for s in samples),
        "moves_per_s": sum(s.moves for s in main) / sum(s.adjusted for s in main),
        "peak_rss_mb": rss_mb,
    }


def named_report(workload: str, samples: list[Sample], e2e: dict[str, float]) -> list[tuple]:
    """Per-workload metrics by name, unit and sample count, for people to read."""
    main = sorted(s.adjusted for s in samples if s.main)
    n = len(main)
    rows = [("setup_s", e2e["setup_s"], "s", f"median of {SETUP_SAMPLES} set-ups")]
    if workload == "search":
        rows.append(("game_s", statistics.median(main), "s", f"median of {n} games"))
        rows.append(("moves_per_s", e2e["moves_per_s"], "1/s", "NMCS nodes"))
    elif workload == "proof":
        rows.append(("solve_s", statistics.median(main), "s", f"median of {n} solves"))
        rows.append(("moves_per_s", e2e["moves_per_s"], "1/s", "solver nodes"))
    else:
        bounds = [s.adjusted for s in samples if s.kind == "bounds"]
        p90 = statistics.quantiles(main, n=10)[8] if n > 1 else main[0]
        rows += [
            ("records_per_s", n / sum(main), "1/s", f"{n} records"),
            ("record_ms_p50", statistics.median(main) * 1e3, "ms", f"of {n} records"),
            ("record_ms_p90", p90 * 1e3, "ms", f"of {n} records"),
            ("bounds_s", statistics.median(bounds), "s", f"median of {len(bounds)} batches"),
            ("moves_per_s", e2e["moves_per_s"], "1/s", "record moves checked"),
        ]
    failed = sum(not s.ok for s in samples)
    rows += [
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "after set-up and the first round"),
        ("failed_ratio", failed / len(samples), "ratio", f"{failed}/{len(samples)} ops"),
        ("wall_s", sum(s.seconds for s in samples), "s", "raw, all operations"),
        ("host_scale", statistics.median(s.adjusted / s.seconds for s in samples), "ratio",
         "median adjusted/raw"),
    ]
    return rows


def provenance() -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "morpion").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "caches": "fresh process per run; solver and linecover caches filled in set-up",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """One benchmark run; returns (result dict, human-readable rows, trace dump or None)."""
    wl, workdir, first_setup = set_up(workload, seed)
    try:
        loop = Loop()
        if not trace:
            setups = [first_setup] + [fresh_setup_seconds(workload, seed)
                                      for _ in range(setup_samples - 1)]
            loop.run(wl.ops(), HostSpeed(), deadline=time.perf_counter() + seconds)
            metrics = end_to_end(loop.samples, statistics.median(setups), loop.first_round_rss_mb)
            rows = named_report(workload, loop.samples, metrics)
            units, dump = END_TO_END, None
        else:
            from tracer import METRICS, Tracer

            ops = list(itertools.islice(wl.ops(), wl.trace_ops))
            host = HostSpeed()
            untraced = sum(s.adjusted for s in loop.run(ops, host))
            tracer = Tracer(clock=host.clock)
            tracer.install()
            try:
                traced = sum(s.adjusted for s in loop.run(ops, host, tracer=tracer))
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(traced - untraced, untraced)
            rows = [("untraced_s", untraced, "s", f"{len(ops)} ops, adjusted"),
                    ("traced_s", traced, "s", "same ops, traced, adjusted")]
            units, dump = METRICS, tracer.dump()
    finally:
        tear_down(wl, workdir)
    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.samples),
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    for failure in loop.failures[:MAX_REPORTED_FAILURES]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    return result, rows, dump


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search", "proof", "audit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        wl, workdir, seconds = set_up(args.workload, args.seed)
        tear_down(wl, workdir)
        print(seconds)
        return 0
    result, rows, dump = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = provenance()
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print(f"# {json.dumps(run)}")
    print(f"# {json.dumps(prov)}")
    for name, value, unit, note in rows:
        print(f"{args.workload:<7} {name:<14} {value:>14.6g} {unit:<6} {note}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**run, "provenance": prov, "result": result}) + "\n")
    if dump is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**run, "provenance": prov, "metrics": result["metrics"], **dump}, fh)
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
