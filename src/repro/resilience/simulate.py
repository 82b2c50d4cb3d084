"""End-to-end fault simulation: design, load, inject, refresh, serve.

:func:`simulate_faults` drives a complete warehouse lifecycle under a
seeded :class:`~repro.resilience.faults.FaultPolicy`: design the views,
load the paper-scale data, then alternate base-relation updates,
scheduled refreshes (with retries/backoff/breakers) and foreground
queries.  It returns a JSON-safe summary the ``repro simulate --faults``
CLI prints and the resilience test suite asserts on — including
bit-identical reproducibility for a fixed seed.

Every query answer is cross-checked against a view-free execution of
the same query over the *served* snapshot semantics: a query must
return either the fresh answer or the answer as of the view's last
successful refresh (stale-but-consistent), never anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.resilience.scheduler import RefreshScheduler
from repro.storage.table import row_multiset

__all__ = ["FaultSimulationResult", "simulate_faults"]


@dataclass
class FaultSimulationResult:
    """Summary of one seeded fault-injection run."""

    workload: str
    seed: int
    rounds: int
    refreshes_attempted: int = 0
    refreshes_succeeded: int = 0
    refreshes_failed: int = 0
    refreshes_skipped: int = 0
    retries: int = 0
    faults_injected: Dict[str, float] = field(default_factory=dict)
    queries_run: int = 0
    queries_fresh: int = 0
    queries_stale: int = 0
    queries_degraded: int = 0
    consistency_violations: int = 0
    converged: bool = False
    final_epochs: Dict[str, int] = field(default_factory=dict)
    final_ticks: float = 0.0

    @property
    def ok(self) -> bool:
        """Refreshes converged and no query broke the staleness contract."""
        return self.converged and self.consistency_violations == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "rounds": self.rounds,
            "refreshes": {
                "attempted": self.refreshes_attempted,
                "succeeded": self.refreshes_succeeded,
                "failed": self.refreshes_failed,
                "skipped": self.refreshes_skipped,
                "retries": self.retries,
            },
            "faults_injected": dict(self.faults_injected),
            "queries": {
                "run": self.queries_run,
                "fresh": self.queries_fresh,
                "stale": self.queries_stale,
                "degraded": self.queries_degraded,
                "consistency_violations": self.consistency_violations,
            },
            "converged": self.converged,
            "final_epochs": dict(self.final_epochs),
            "final_ticks": self.final_ticks,
        }


def simulate_faults(
    failure_rate: float = 0.3,
    seed: int = 0,
    rounds: int = 3,
    scale: float = 0.02,
    resilience: Optional[ResilienceConfig] = None,
    workload=None,
    rows: Optional[Mapping[str, List[Mapping[str, object]]]] = None,
) -> FaultSimulationResult:
    """Run the seeded fault-injection lifecycle and summarize it.

    Each round: append a delta to the most-frequently-updated relation
    (making dependent views stale), run every query through
    :meth:`~repro.warehouse.warehouse.DataWarehouse.serve` while the
    failure window is open, then run scheduler passes until the views
    converge back to fresh.  ``failure_rate`` applies to every stored
    relation during maintenance only, so foreground queries exercise
    the staleness/degradation path rather than failing outright.
    """
    from repro.mvpp.config import DesignConfig
    from repro.warehouse import DataWarehouse
    from repro.workload import paper_workload
    from repro.workload.datagen import paper_rows

    if workload is None:
        workload = paper_workload()
    if rows is None:
        rows = paper_rows(scale=scale, seed=seed)

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(DesignConfig(seed=seed))
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    warehouse.materialize()

    policy = FaultPolicy(storage_failure_rate=failure_rate, seed=seed)
    injector = warehouse.attach_faults(policy)
    config = resilience or ResilienceConfig(seed=seed)
    scheduler = warehouse.scheduler(config, injector=injector)

    result = FaultSimulationResult(
        workload=workload.name, seed=seed, rounds=rounds
    )

    target = max(
        rows, key=lambda name: (workload.update_frequency(name), name)
    )
    delta = rows[target][: max(1, len(rows[target]) // 50)]

    for round_index in range(rounds):
        warehouse.apply_update(target, delta, policy="defer")

        # Failure window: refreshes may be failing/lagging, but queries
        # must still be answered — fresh, stale-but-consistent, or
        # degraded to base relations.
        for spec in workload.queries:
            served = warehouse.serve(spec.name)
            result.queries_run += 1
            if served.degraded:
                result.queries_degraded += 1
            elif served.max_staleness > 0:
                result.queries_stale += 1
            else:
                result.queries_fresh += 1
            if not _consistent(warehouse, spec.name, served):
                result.consistency_violations += 1

        outcomes = scheduler.refresh_until_converged()
        for outcome in outcomes:
            result.refreshes_attempted += outcome.attempts
            if outcome.status == "refreshed":
                result.refreshes_succeeded += 1
                result.retries += outcome.attempts - 1
            elif outcome.status == "failed":
                result.refreshes_failed += 1
                result.retries += outcome.attempts - 1
            else:
                result.refreshes_skipped += 1

    result.converged = not warehouse.stale_views()
    result.faults_injected = injector.stats()
    result.final_epochs = {
        view.name: scheduler.epoch(view.name) for view in warehouse.views
    }
    result.final_ticks = scheduler.clock.now
    return result


def _consistent(warehouse, query_name: str, served) -> bool:
    """A served answer must equal the fresh answer or a stale epoch's.

    The never-partial contract: compare the served rows against the
    current base data's answer (fresh) — if the answer used stale views
    it may differ, but then every view it read must itself be a
    complete, previously-committed snapshot (the maintainer only swaps
    complete shadow tables, so row counts of a stale view must match
    its last committed refresh, which :meth:`serve` records).
    """
    from repro.algebra.operators import Relation

    if served.max_staleness == 0 and not served.degraded:
        fresh, _ = warehouse.execute(query_name, use_views=False)
        return row_multiset(served.table.rows()) == row_multiset(fresh.rows())
    if served.degraded or not served.views_used:
        # Degraded answers come straight from base relations: they must
        # equal the fresh answer exactly.
        fresh, _ = warehouse.execute(query_name, use_views=False)
        return row_multiset(served.table.rows()) == row_multiset(fresh.rows())
    # Stale-but-consistent: the answer is complete w.r.t. the snapshot
    # the views committed last.  We verify no partially-refreshed view
    # was read: each used view's stored cardinality must match the
    # cardinality recorded at its last successful swap.
    for name in served.views_used:
        if name not in warehouse.database:
            return False
        recorded = warehouse.committed_cardinality(name)
        if recorded is not None and (
            warehouse.database.table(name).cardinality != recorded
        ):
            return False
    return True
