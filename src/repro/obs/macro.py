"""The macro-benchmark harness behind ``repro bench --suite macro``.

One run sweeps the whole lifecycle — design, load, scaled Table-2 query
sweep, resilient refresh, adaptive drift replay — and emits a
schema-versioned document (committed as ``BENCH_macro.json`` at the repo
root) recording wall-ms per phase, block I/O per phase, latency
quantiles from the existing obs histograms, the calibration summary,
and the full metrics snapshot.  :func:`compare_bench` gates a fresh run
against the committed document with a tolerance, so CI fails when a
phase regresses.

Smoke mode (``REPRO_BENCH_SMOKE`` or ``MacroConfig.smoke``) zeroes the
wall-clock readings: everything left in the document is a deterministic
function of the seed (logical block I/O, tick clocks, counts), so
regenerating the file in smoke mode is bit-compatible with the
committed one — the property the CI gate and
``tests/obs/test_macro.py`` rely on.

This module lives under ``repro/obs/`` deliberately: benchmark timing
is the one place the codebase may read the wall clock (the same C104
lint exemption the rest of the observability layer uses).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro import obs
from repro.mvpp.config import DesignConfig

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "MacroConfig",
    "compare_bench",
    "run_macro",
    "smoke_mode",
    "validate_bench",
]

BENCH_SCHEMA_VERSION = 1

#: Phases the macro suite reports, in execution order.
MACRO_PHASES = ("design", "load", "queries", "refresh", "drift")

#: Histogram-name prefixes exported into the document's latency section.
_LATENCY_PREFIXES = (
    "executor.query_io",
    "resilience.refresh.ticks",
    "maintenance.io",
)

#: Default headroom before a phase counts as regressed.
DEFAULT_TOLERANCE = 0.25

ENV_SMOKE = "REPRO_BENCH_SMOKE"


def smoke_mode() -> bool:
    """Whether ``REPRO_BENCH_SMOKE`` requests the deterministic mode."""
    return os.environ.get(ENV_SMOKE, "") not in ("", "0")


@dataclass(frozen=True)
class MacroConfig:
    """Knobs for one macro-suite run.

    ``queries`` / ``relations`` size the generated workloads (None: the
    generators' defaults).  ``design`` configures the design phase and is
    the one source of the run's seed (workload rows and randomized
    strategies) and execution engine (None: the warehouse default).
    """

    workload: str = "paper"
    scale: float = 0.01
    repeats: int = 3  # query-sweep repetitions
    windows: int = 4  # drift-replay observation windows
    smoke: bool = False
    queries: Optional[int] = None
    relations: Optional[int] = None
    design: DesignConfig = DesignConfig()

    @property
    def seed(self) -> int:
        return self.design.seed

    @property
    def engine(self) -> Optional[str]:
        return self.design.engine

    def validate(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive: {self.scale}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1: {self.repeats}")
        if self.windows < 2:
            raise ValueError(f"windows must be >= 2: {self.windows}")


class _PhaseRecorder:
    """Accumulates per-phase wall time, I/O deltas, and counts."""

    def __init__(self, database, smoke: bool):
        self._database = database
        self._smoke = smoke
        self.phases: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[Dict[str, float]]:
        bucket: Dict[str, float] = {"wall_ms": 0.0, "io_blocks": 0.0}
        before = self._database.io.snapshot()
        started = 0.0 if self._smoke else time.perf_counter()
        yield bucket
        if not self._smoke:
            bucket["wall_ms"] = round(
                (time.perf_counter() - started) * 1000, 3
            )
        bucket["io_blocks"] = float(self._database.io.since(before).total)
        self.phases[name] = bucket


def run_macro(config: Optional[MacroConfig] = None) -> Dict[str, Any]:
    """Run the full macro suite and return its benchmark document."""
    from repro.simulation import (
        delta_slice,
        hot_relations,
        inverted_profile,
        load,
        replay_inversion,
        workload_rows,
    )
    from repro.warehouse import DataWarehouse

    config = config or MacroConfig()
    config.validate()
    smoke = config.smoke or smoke_mode()

    with obs.recording():
        workload, rows = workload_rows(
            config.workload, config.scale, config.seed, config.queries,
            config.relations,
        )
        engine_kwargs = (
            {} if config.engine is None else {"engine": config.engine}
        )
        warehouse = DataWarehouse.from_workload(workload, **engine_kwargs)
        recorder = _PhaseRecorder(warehouse.database, smoke)

        # Replay pacing mirrors `repro adapt`: one event per unit of
        # design-time frequency, hot set inverted in the second half.
        profile = inverted_profile(workload)
        policy = profile[-1]

        with recorder.phase("design") as bucket:
            result = warehouse.design(config.design.replace(adaptive=policy))
            bucket["views"] = float(len(warehouse.views))
            bucket["vertices"] = float(len(result.mvpp))

        with recorder.phase("load") as bucket:
            load(warehouse, dict(sorted(rows.items())))
            bucket["rows"] = float(sum(len(r) for r in rows.values()))

        with recorder.phase("queries") as bucket:
            executed = 0
            for _ in range(config.repeats):
                for spec in workload.queries:
                    warehouse.execute(spec.name)
                    executed += 1
            bucket["executed"] = float(executed)

        with recorder.phase("refresh") as bucket:
            target = hot_relations(workload, rows)[0]
            warehouse.apply_update(
                target, delta_slice(rows, target, 100), policy="defer"
            )
            outcomes = warehouse.refresh_resilient()
            bucket["refreshed"] = float(sum(1 for o in outcomes if o.ok))
            bucket["failed"] = float(sum(1 for o in outcomes if not o.ok))

        with recorder.phase("drift") as bucket:
            decisions = replay_inversion(
                warehouse.controller(), profile, config.windows
            )
            bucket["decisions"] = float(config.windows)
            bucket["accepted"] = float(sum(d.accepted for d in decisions))

        metrics = obs.metrics().to_dict()
        latency = {
            name: summary
            for name, summary in sorted(metrics["histograms"].items())
            if name.startswith(_LATENCY_PREFIXES)
        }
        from repro.obs.calibration import calibration_report

        report = calibration_report(obs.calibration().samples)
        journal = obs.journal()
        document: Dict[str, Any] = {
            "schema": BENCH_SCHEMA_VERSION,
            "suite": "macro",
            "workload": workload.name,
            "config": {
                "scale": config.scale,
                "repeats": config.repeats,
                "windows": config.windows,
                "seed": config.seed,
                "engine": config.engine or warehouse.engine.engine,
                "queries": len(workload.queries),
                "relations": len(workload.catalog),
                "strategy": config.design.strategy,
                "rotations": config.design.rotations,
                "workers": config.design.workers,
                "executor": config.design.executor,
            },
            "smoke": smoke,
            "phases": recorder.phases,
            "latency": latency,
            "calibration": {
                "samples": report.samples,
                "mean_relative_error": round(report.mean_relative_error, 6),
                "worst": [entry.to_dict() for entry in report.worst(5)],
            },
            "journal": {
                "events": len(journal),
                "correlations": len(journal.correlation_ids()),
                "dropped": journal.dropped,
            },
            "metrics": metrics,
        }
        return document


def validate_bench(document: Dict[str, Any]) -> List[str]:
    """Schema check for a macro-bench document (empty list = ok)."""
    problems: List[str] = []
    if document.get("schema") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema must be {BENCH_SCHEMA_VERSION}: "
            f"{document.get('schema')!r}"
        )
    for key in (
        "suite", "workload", "config", "smoke", "phases", "latency",
        "calibration", "journal", "metrics",
    ):
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
    phases = document.get("phases", {})
    for name in MACRO_PHASES:
        bucket = phases.get(name)
        if not isinstance(bucket, dict):
            problems.append(f"missing phase {name!r}")
            continue
        for key in ("wall_ms", "io_blocks"):
            if key not in bucket:
                problems.append(f"phase {name!r} missing {key!r}")
    calibration = document.get("calibration", {})
    if isinstance(calibration, dict):
        for key in ("samples", "mean_relative_error", "worst"):
            if key not in calibration:
                problems.append(f"calibration missing {key!r}")
    return problems


def compare_bench(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Block I/O per phase is deterministic and compared always; wall time
    is compared only when *both* documents carry real timings (neither
    ran in smoke mode), since smoke runs record ``wall_ms = 0``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0: {tolerance}")
    regressions: List[str] = []
    if baseline.get("schema") != current.get("schema"):
        regressions.append(
            f"schema changed: {baseline.get('schema')!r} -> "
            f"{current.get('schema')!r}"
        )
        return regressions
    compare_wall = not baseline.get("smoke") and not current.get("smoke")
    for name, base_bucket in sorted(baseline.get("phases", {}).items()):
        cur_bucket = current.get("phases", {}).get(name)
        if cur_bucket is None:
            regressions.append(f"phase {name!r} disappeared")
            continue
        base_io = float(base_bucket.get("io_blocks", 0.0))
        cur_io = float(cur_bucket.get("io_blocks", 0.0))
        if cur_io > base_io * (1.0 + tolerance) + 1.0:
            regressions.append(
                f"phase {name!r} io_blocks regressed: "
                f"{base_io:g} -> {cur_io:g} (tolerance {tolerance:.0%})"
            )
        if compare_wall:
            base_wall = float(base_bucket.get("wall_ms", 0.0))
            cur_wall = float(cur_bucket.get("wall_ms", 0.0))
            if base_wall > 0 and cur_wall > base_wall * (1.0 + tolerance):
                regressions.append(
                    f"phase {name!r} wall_ms regressed: "
                    f"{base_wall:g} -> {cur_wall:g} "
                    f"(tolerance {tolerance:.0%})"
                )
    return regressions
