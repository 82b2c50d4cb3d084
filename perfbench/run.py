#!/usr/bin/env python3
"""The warehouse benchmark: one closed-loop client per workload.

Run one workload::

    python3 perfbench/run.py --workload serve-star --seed 1 --seconds 15 --trace 0

or every workload, each in its own fresh process::

    python3 perfbench/run.py --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's layer entry points (see ``tracer.py``), prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  ``--quick``
shrinks every workload for the smoke test.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": v, "unit": u}}``).  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Per-layer self times (traced run): metric -> span name (tracer.py).
LAYER_TIMES = {
    "sql.parse_ms": "sql.parse",
    "optimizer.optimize_ms": "optimizer.optimize",
    "mvpp.prepare_ms": "mvpp.prepare",
    "mvpp.generate_ms": "mvpp.generate",
    "mvpp.select_ms": "mvpp.select",
    "warehouse.design_self_ms": "warehouse.design",
    "warehouse.rewrite_ms": "warehouse.rewrite",
    "warehouse.serve_self_ms": "warehouse.serve",
    "warehouse.write_self_ms": "warehouse.write",
    "executor.lower_ms": "executor.lower",
    "executor.run_ms": "executor.run",
    "storage.store_ms": "storage.store",
    "storage.insert_ms": "storage.insert",
    "storage.delete_ms": "storage.delete",
    "maintenance.recompute_ms": "maintenance.recompute",
    "maintenance.incremental_ms": "maintenance.incremental",
    "cdc.drain_ms": "cdc.drain",
    "cdc.propagate_ms": "cdc.propagate",
}
#: Per-layer counts, exact over the count window; 0 where a workload's
#: summary has none (the layer does no work there).
LAYER_COUNTS = (
    "mvpp.cost_cache_hit_ratio", "mvpp.candidates", "mvpp.vertices",
    "executor.blocks_read", "executor.blocks_written",
    "executor.build_cache_hit_ratio", "storage.rows_written",
    "maintenance.recomputes", "cdc.records", "cdc.drains", "cdc.coalesced",
)
#: Traced and untraced ops alternate in blocks of this many after the
#: window, so the two rates see the same traffic (design-synth pairs
#: each workload's traced and untraced design instead).
ALTERNATE = 20
SETUPS = 3
WORKLOADS = ("design-synth", "serve-star", "maintain-immediate", "maintain-stream")

clock = time.perf_counter


def _load_library():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def _probe_work() -> int:
    rows = [{"a": i, "b": -i, "c": str(i)} for i in range(150)]
    return len({tuple(sorted(row.items())) for row in rows})


class SpeedProbe:
    """How fast the machine runs, sampled every ``every`` seconds.

    On a shared host the CPU's speed swings by half within seconds (other
    tenants on the core): raw latencies of one seed varied 30-50% between
    runs.  A timer signal runs a fixed piece of pure-Python work,
    independent of the library, every ``every`` seconds.  An interval is
    converted to *reference seconds*, what it would take on a CPU that
    runs the probe in ``REFERENCE`` seconds, using the probes just before,
    inside and just after it; the probes' own time is excluded.
    """

    REFERENCE = 150e-6

    def __init__(self, every: float = 0.02):
        self.every = every
        self.starts = []
        self.ends = []
        self.values = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self.sample()
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def sample(self) -> None:
        started = clock()
        best = math.inf
        for _ in range(3):
            begin = clock()
            _probe_work()
            best = min(best, clock() - begin)
        self.starts.append(started)
        self.ends.append(clock())
        self.values.append(best)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        before = max(0, bisect.bisect_right(self.ends, start) - 1)
        after = min(len(self.values) - 1, bisect.bisect_left(self.starts, end))
        probing = sum(
            self.ends[i] - self.starts[i] for i in range(before + 1, after)
        )
        speeds = self.values[before:after + 1]
        return (end - start - probing) * self.REFERENCE * len(speeds) / sum(speeds)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        return self.seconds(start, end) / (end - start) if end > start else 0.0


def _quantile(sorted_values, low: float, high: float, least: int = 3) -> float:
    """Mean of the samples ranked between quantiles ``low`` and ``high``,
    widened downwards to at least ``least`` samples.  Where a mix of
    operation kinds puts a jump between two kinds right at the quantile,
    a single rank flips between them from run to run; the band's mean
    moves smoothly.  (With ten designs, a lone rank is one noisy sample.)"""
    n = len(sorted_values)
    stop = min(n, max(math.ceil(high * n), int(low * n) + 1))
    band = sorted_values[max(0, min(int(low * n), stop - least)):stop]
    return sum(band) / len(band)


class Run:
    """One workload run: setups, warm-up, timed loop, checks, replays."""

    def __init__(self, workload, seconds: float, trace: bool):
        from tracer import Tracer

        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.probe = SpeedProbe()
        self.setup_times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fresh(self):
        gc.collect()
        started = clock()
        state = self.workload.setup()
        self.setup_times.append((started, clock()))
        return state

    def op(self, op, tracer=None):
        """Run one op (traced when ``tracer``); returns its start and end."""
        self.attempted += 1
        started = clock()
        try:
            result = tracer.traced(op.kind, op.run) if tracer else op.run()
        except Exception:
            ended = clock()
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return started, ended
        ended = clock()
        try:
            ok = op.check(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong answer: {op.kind} op #{self.attempted}", file=sys.stderr)
        return started, ended

    def main_loop(self):
        workload, tracer = self.workload, self.tracer
        paired = self.trace
        window = workload.window(paired)
        block = 1 if workload.name == "design-synth" else ALTERNATE
        state = self.fresh()
        ops = workload.ops(state, paired)
        for _ in range(workload.warmup):
            self.op(next(ops))
        before = workload.counters(state)
        mark = tracer.mark() if tracer else 0
        spans = []
        traced_flags = []
        index = 0
        started = clock()
        while True:
            if index == window:
                self.counts = workload.summary(
                    state, before, workload.counters(state),
                    tracer.counts(mark, tracer.mark()) if tracer else {}, window,
                )
            past = index - window
            if (
                past >= (2 * block if self.trace else 0)
                and index >= workload.min_timed
                and clock() - started >= self.seconds
                and (not self.trace or past % (2 * block) == 0)
            ):
                break
            with_trace = self.trace and (past < 0 or (past // block) % 2 == 0)
            spans.append(self.op(next(ops), tracer if with_trace else None))
            traced_flags.append(with_trace)
            index += 1
        self.spans = spans
        self.traced_flags = traced_flags
        self.window_ops = window
        self.problems += workload.final_problems(state)

    def replay(self, role: str):
        """Warm-up and window again on a fresh setup: counts must repeat."""
        from tracer import Tracer

        workload = self.workload
        state = self.fresh()
        extra = {} if role == "own" else {"policy": role}
        ops = workload.ops(state, self.trace, replay=True, **extra)
        for _ in range(workload.warmup):
            self.op(next(ops))
        tracer = Tracer() if self.trace else None
        window = workload.window(self.trace)
        before = workload.counters(state)
        for _ in range(window):
            self.op(next(ops), tracer)
        counts = workload.summary(
            state, before, workload.counters(state),
            tracer.counts(0, tracer.mark()) if tracer else {}, window,
        )
        digests = workload.view_digests(state) if hasattr(workload, "view_digests") else None
        return counts, digests

    def execute(self):
        with self.probe:
            self._execute()
        self.latencies = [self.probe.seconds(*span) for span in self.spans]
        self.setup_times = [self.probe.seconds(*span) for span in self.setup_times]

    def _execute(self):
        self.main_loop()
        gc.collect()
        digests = {}
        for role in self.workload.replays:
            counts, digests[role] = self.replay(role)
            if role == "own" and counts != self.counts:
                self.problems.append(
                    "count metrics did not repeat exactly on a fresh replay: "
                    f"{counts} != {self.counts}"
                )
        if len(set(map(str, digests.values()))) > 1:
            self.problems.append(
                "immediate and streaming maintenance left different views"
            )
        while len(self.setup_times) < SETUPS:
            self.fresh()
        if self.trace:
            OUT.mkdir(exist_ok=True)
            self.tracer.write(OUT / f"trace-{self.workload.name}-seed{self.workload.seed}.json")

    def metrics(self, spec):
        """``{name: {"value", "unit"}}`` for every metric ``spec`` lists."""
        if self.trace:
            self_ms = self.tracer.self_ms(self.probe.factor)
            traced_ops = self.window_ops + sum(self.traced_flags[self.window_ops:])
            values = {
                metric: self_ms.get(span, 0.0) / traced_ops
                for metric, span in LAYER_TIMES.items()
            }
            values.update({m: float(self.counts.get(m, 0.0)) for m in LAYER_COUNTS})
            after = list(zip(self.latencies, self.traced_flags))[self.window_ops:]
            rate = {
                flag: sum(1 for _, f in after if f == flag)
                / sum(latency for latency, f in after if f == flag)
                for flag in (True, False)
            }
            values["trace.overhead_pct"] = 100.0 * (rate[False] / rate[True] - 1.0)
        else:
            ordered = sorted(self.latencies)
            values = {
                "setup_s": statistics.median(self.setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_per_s": len(ordered) / sum(ordered),
                "op_ms_p50": 1e3 * _quantile(ordered, 0.45, 0.55),
                "op_ms_p99": 1e3 * _quantile(ordered, 0.985, 0.995),
                **{m: float(self.counts[m]) for m in
                   ("design_cost_blocks", "io_blocks_per_op", "view_space_ratio")},
            }
        return {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if self.trace else "end_to_end"]
        }


def run_one(args) -> int:
    if "PYTHONHASHSEED" not in os.environ:
        # String hashing is randomized per process, and with it dict and
        # set layouts: alone it moved ops_per_s by 15% between runs of
        # one seed.  Re-exec (same process) with it fixed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    _load_library()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.make(args.workload, args.seed, args.quick)
    run = Run(workload, args.seconds, bool(args.trace))
    run.execute()
    metrics = run.metrics(spec)
    failed = run.failed + len(run.problems)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"# {workload.name}: {why}")
    print(f"# {len(run.latencies)} timed ops, window {workload.window(run.trace)} ops")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so no state or RSS leaks."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--quick"] if args.quick else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(completed.stdout)
        status = status or completed.returncode
        lines = completed.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (smoke test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
