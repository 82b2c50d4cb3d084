"""End-to-end streaming-maintenance simulation: ingest, drain, verify.

:func:`simulate_streaming` drives a complete warehouse lifecycle with
CDC-driven streaming maintenance enabled: design the views, load the
paper-scale data, then run rounds of interleaved base-relation inserts
and deletes through the ``stream`` maintenance policy, draining under
the configured :class:`~repro.cdc.policy.StreamingPolicy` (optionally
under a seeded fault injector).  It returns a JSON-safe summary the
``repro stream`` CLI prints and the CDC test suite asserts on.

Two invariants are checked on every run:

* **consistency** — after the final drain (and, under faults, scheduler
  convergence) every materialized view's stored contents are compared
  row-for-row against a brute-force recomputation of its plan over the
  current base relations;
* **no partial writes** — every view's stored cardinality matches the
  cardinality recorded at its last committed swap (the maintainer only
  ever swaps complete shadow tables).

The summary carries a content ``digest`` over the final view contents
and drain counters; running the same seed twice must produce the same
digest (bit-identical reproducibility, pinned by ``tests/cdc``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.cdc.policy import DEFAULT_STREAMING_POLICY, StreamingPolicy
from repro.errors import StreamingError
from repro.storage.table import row_multiset

__all__ = ["StreamingSimulationResult", "simulate_streaming"]


@dataclass
class StreamingSimulationResult:
    """Summary of one seeded streaming-maintenance run."""

    workload: str
    seed: int
    rounds: int
    records_appended: int = 0
    records_dropped: int = 0
    inserts: int = 0
    deletes: int = 0
    drains: int = 0
    backpressure_drains: int = 0
    coalesced: int = 0
    views_updated: int = 0
    views_recomputed: int = 0
    views_failed: int = 0
    staleness_max: int = 0
    staleness_samples: List[int] = field(default_factory=list)
    queries_run: int = 0
    queries_fresh: int = 0
    consistency_violations: int = 0
    partial_writes: int = 0
    faults_injected: Dict[str, float] = field(default_factory=dict)
    converged: bool = False
    final_ticks: float = 0.0
    digest: str = ""

    @property
    def ok(self) -> bool:
        """Drains converged, views match recompute, no partial swap seen."""
        return (
            self.converged
            and self.consistency_violations == 0
            and self.partial_writes == 0
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "rounds": self.rounds,
            "changes": {
                "appended": self.records_appended,
                "dropped": self.records_dropped,
                "inserts": self.inserts,
                "deletes": self.deletes,
            },
            "drains": {
                "total": self.drains,
                "backpressure": self.backpressure_drains,
                "coalesced": self.coalesced,
                "views_updated": self.views_updated,
                "views_recomputed": self.views_recomputed,
                "views_failed": self.views_failed,
            },
            "staleness": {
                "max": self.staleness_max,
                "samples": list(self.staleness_samples),
            },
            "queries": {
                "run": self.queries_run,
                "fresh": self.queries_fresh,
            },
            "consistency_violations": self.consistency_violations,
            "partial_writes": self.partial_writes,
            "faults_injected": dict(self.faults_injected),
            "converged": self.converged,
            "final_ticks": self.final_ticks,
            "digest": self.digest,
            "ok": self.ok,
        }


def simulate_streaming(
    failure_rate: float = 0.0,
    seed: int = 0,
    rounds: int = 3,
    scale: float = 0.02,
    policy: Optional[StreamingPolicy] = None,
    workload=None,
    rows: Optional[Mapping[str, List[Mapping[str, object]]]] = None,
) -> StreamingSimulationResult:
    """Run the seeded streaming-maintenance lifecycle and summarize it.

    Each round streams a slice of inserts into the two most frequently
    updated relations and deletes a few previously loaded rows (plus one
    row inserted the same round, exercising coalescing cancellation),
    samples per-view staleness, serves every query under the policy's
    lag bound, and drains.  With ``failure_rate > 0`` a seeded
    :class:`~repro.resilience.faults.FaultPolicy` makes delta commits
    fail, exercising the degradation path to breaker-guarded batch
    refresh; the run then drives the scheduler to convergence.
    """
    from repro.mvpp.config import DesignConfig
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.faults import FaultPolicy
    from repro.warehouse import DataWarehouse
    from repro.workload import paper_workload
    from repro.workload.datagen import paper_rows

    if not 0.0 <= failure_rate <= 1.0:
        raise StreamingError(
            f"failure_rate must be in [0, 1]: {failure_rate}"
        )
    if rounds < 1:
        raise StreamingError(f"rounds must be >= 1: {rounds}")
    if scale <= 0:
        raise StreamingError(f"scale must be > 0: {scale}")
    if workload is None:
        workload = paper_workload()
    if rows is None:
        rows = paper_rows(scale=scale, seed=seed)
    resolved = policy or DEFAULT_STREAMING_POLICY

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(DesignConfig(seed=seed, streaming=resolved))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.materialize()

    injector = None
    scheduler = warehouse.scheduler(ResilienceConfig(seed=seed))
    if failure_rate > 0:
        fault_policy = FaultPolicy(storage_failure_rate=failure_rate, seed=seed)
        injector = warehouse.attach_faults(fault_policy)
        scheduler = warehouse.scheduler(
            ResilienceConfig(seed=seed), injector=injector
        )
    streaming = warehouse.enable_streaming(resolved)

    result = StreamingSimulationResult(
        workload=workload.name, seed=seed, rounds=rounds
    )

    # The two hottest relations by update frequency carry the stream.
    hot = sorted(
        rows, key=lambda name: (-workload.update_frequency(name), name)
    )[:2]
    deletable: Dict[str, List[Mapping[str, object]]] = {
        name: list(rows[name]) for name in hot
    }
    reports = []

    for round_index in range(rounds):
        for relation in hot:
            pool = rows[relation]
            width = max(1, len(pool) // 50)
            start = (round_index * width) % len(pool)
            delta = [
                dict(pool[(start + k) % len(pool)]) for k in range(width)
            ]
            drains_before = streaming.drains
            warehouse.apply_update(relation, delta, policy="stream")
            result.inserts += len(delta)
            # Insert-then-delete of the same row within a round: the
            # coalescer must cancel the pair exactly.
            warehouse.apply_delete(relation, [delta[0]], policy="stream")
            result.deletes += 1
            if deletable[relation]:
                victim = deletable[relation].pop(0)
                warehouse.apply_delete(relation, [victim], policy="stream")
                result.deletes += 1
            result.backpressure_drains += streaming.drains - drains_before

        staleness = streaming.staleness()
        if staleness:
            sample = max(staleness.values())
            result.staleness_samples.append(sample)
            result.staleness_max = max(result.staleness_max, sample)

        for spec in workload.queries:
            served = warehouse.serve(
                spec.name, max_staleness=resolved.max_lag_records
            )
            result.queries_run += 1
            if served.max_staleness == 0:
                result.queries_fresh += 1

        reports.append(streaming.drain())
        if injector is not None:
            scheduler.refresh_until_converged()

    # Final catch-up so the consistency check compares head vs head.
    report = streaming.drain()
    reports.append(report)
    if injector is not None:
        scheduler.refresh_until_converged()

    result.drains = streaming.drains
    result.coalesced = streaming.coalesced_total
    result.records_appended = streaming.changes.head_seq
    result.records_dropped = streaming.changes.dropped_total()
    if injector is not None:
        result.faults_injected = injector.stats()
    result.final_ticks = scheduler.clock.now

    result.views_updated = len(
        {name for r in reports for name in r.views_updated}
    )
    result.views_recomputed = len(
        {name for r in reports for name in r.views_recomputed}
    )
    result.views_failed = len(report.views_failed)

    digest = hashlib.sha256()
    for view in warehouse.views:
        stored = warehouse.database.table(view.name)
        recomputed = warehouse.engine.execute(view.plan).rows()
        if row_multiset(stored.rows()) != row_multiset(recomputed):
            result.consistency_violations += 1
        committed = warehouse.committed_cardinality(view.name)
        if committed is not None and committed != stored.cardinality:
            result.partial_writes += 1
        digest.update(view.name.encode())
        digest.update(repr(row_multiset(stored.rows())).encode())
    result.converged = (
        report.converged
        and not warehouse.stale_views()
        and streaming.max_lag() == 0
    )
    digest.update(
        repr(
            (
                result.records_appended,
                result.coalesced,
                result.drains,
                sorted(streaming.staleness().items()),
            )
        ).encode()
    )
    result.digest = digest.hexdigest()[:12]
    return result
