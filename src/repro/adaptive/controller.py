"""The adaptive design controller: observe, detect, redesign, migrate.

:class:`AdaptiveController` closes the loop the paper leaves open: the
design pipeline takes frequencies as *given*, but live workloads drift.
The controller watches the warehouse's query/update paths through a
:class:`~repro.adaptive.monitor.WorkloadMonitor`, compares the live
estimate against the installed design's frequencies with a
:class:`~repro.adaptive.drift.DriftDetector`, and on drift computes a
candidate redesign — accepted only when the migration pays for itself::

    net_benefit = (old_total_cost - new_total_cost)
                  * amortization_horizon_periods
                  - migration_cost(plan)
    accept      iff net_benefit >= min_benefit_margin

``old_total_cost`` re-weights the *installed* design under the live
frequencies (:meth:`~repro.mvpp.cost.MVPPCostCalculator.
breakdown_with_frequencies` — the paper's ``Ca``/``Cm`` annotations are
frequency-independent, so no re-annotation is needed), making the two
sides directly comparable.  Accepted migrations are applied through
:meth:`DataWarehouse.install_design
<repro.warehouse.warehouse.DataWarehouse.install_design>`: new views are
built through the resilient :class:`~repro.resilience.scheduler.
RefreshScheduler` (retry/backoff/breaker) while queries keep answering
from the old set, then the serving set swaps atomically.

Everything runs on the scheduler's :class:`~repro.resilience.scheduler.
LogicalClock` — a fixed seed reproduces the exact adaptation trajectory
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.adaptive.drift import DriftDetector, DriftEvent
from repro.adaptive.monitor import WorkloadMonitor
from repro.adaptive.policy import DEFAULT_ADAPTIVE_POLICY, AdaptivePolicy
from repro.errors import AdaptiveError, WarehouseError
from repro.mvpp.config import DEFAULT_DESIGN_CONFIG, DesignConfig
from repro.workload.query_log import FrequencyEstimate, apply_to_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.warehouse.evolution import MigrationPlan
    from repro.warehouse.warehouse import DataWarehouse

__all__ = [
    "AdaptationDecision",
    "AdaptiveController",
    "ACCEPTED",
    "REBASELINED",
    "SUPPRESSED_COOLDOWN",
    "SUPPRESSED_BENEFIT",
    "MIGRATION_FAILED",
    "INSUFFICIENT",
    "NO_DRIFT",
]

#: Decision actions, in rough order of how far the pipeline got.
INSUFFICIENT = "insufficient"  # not enough observations to estimate
NO_DRIFT = "no-drift"  # estimate matches the installed frequencies
SUPPRESSED_COOLDOWN = "suppressed-cooldown"  # drifted, but too soon
SUPPRESSED_BENEFIT = "suppressed-benefit"  # drifted, migration not worth it
REBASELINED = "rebaselined"  # drifted, but the same view set stays optimal
ACCEPTED = "accepted"  # drifted, redesign migrated in
MIGRATION_FAILED = "migration-failed"  # accepted, but a view failed to build


@dataclass(frozen=True)
class AdaptationDecision:
    """What one :meth:`AdaptiveController.evaluate` call decided, and why."""

    tick: float
    action: str
    detail: str = ""
    drift: Optional[DriftEvent] = None
    old_cost: Optional[float] = None  # installed design under live fq/fu
    new_cost: Optional[float] = None  # candidate design's total cost
    migration_cost: Optional[float] = None
    net_benefit: Optional[float] = None
    migration: Optional["MigrationPlan"] = None

    @property
    def accepted(self) -> bool:
        return self.action == ACCEPTED

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (used by ``repro adapt --format json``)."""
        drift = None
        if self.drift is not None:
            drift = {
                "magnitude": self.drift.magnitude,
                "changes": [
                    {
                        "kind": change.kind,
                        "name": change.name,
                        "baseline": change.baseline,
                        "observed": change.observed,
                        "relative_change": change.relative_change,
                    }
                    for change in self.drift.changes
                ],
            }
        migration = None
        if self.migration is not None:
            migration = {
                "keep": [view.name for view in self.migration.keep],
                "create": [view.name for view in self.migration.create],
                "drop": [view.name for view in self.migration.drop],
            }
        return {
            "tick": self.tick,
            "action": self.action,
            "detail": self.detail,
            "old_cost": self.old_cost,
            "new_cost": self.new_cost,
            "migration_cost": self.migration_cost,
            "net_benefit": self.net_benefit,
            "drift": drift,
            "migration": migration,
        }

    def describe(self) -> str:
        parts = [f"[tick {self.tick:g}] {self.action}"]
        if self.net_benefit is not None:
            parts.append(
                f"net benefit {self.net_benefit:,.0f} "
                f"(old {self.old_cost:,.0f} -> new {self.new_cost:,.0f}, "
                f"migration {self.migration_cost:,.0f})"
            )
        if self.detail:
            parts.append(self.detail)
        return " — ".join(parts)


class AdaptiveController:
    """Online drift detection and cost-gated view-set migration.

    Construct via :meth:`DataWarehouse.controller
    <repro.warehouse.warehouse.DataWarehouse.controller>` (which also
    wires the warehouse query/update paths into :meth:`note_query` /
    :meth:`note_update`), then call :meth:`evaluate` at decision points
    — e.g. once per simulated window, or after every N queries.

    The warehouse's registered frequencies always equal the frequencies
    the installed design was computed for (accepted redesigns write the
    estimate back), so the drift baseline is read live from
    ``warehouse.workload`` rather than duplicated here.
    """

    def __init__(
        self,
        warehouse: "DataWarehouse",
        policy: Optional[AdaptivePolicy] = None,
        config: Optional[DesignConfig] = None,
    ):
        if warehouse._design is None:
            raise AdaptiveError(
                "design the warehouse before attaching an adaptive "
                "controller (call design() first)"
            )
        self.warehouse = warehouse
        self.config = (
            config or warehouse.design_result.config or DEFAULT_DESIGN_CONFIG
        )
        self.policy = (
            policy or self.config.adaptive or DEFAULT_ADAPTIVE_POLICY
        )
        self.scheduler = warehouse.scheduler()
        self.clock = self.scheduler.clock
        self.monitor = WorkloadMonitor(self.policy)
        self.detector = DriftDetector(self.policy)
        self.history: List[AdaptationDecision] = []
        self._installed_result = warehouse.design_result
        self._last_accept_tick = self.clock.now

    @property
    def installed_result(self):
        """The design result currently serving (survives a failed migration)."""
        return self._installed_result

    # ----------------------------------------------------------------- sensing
    def note_query(self, name: str, ticks: float = 1.0) -> None:
        """Record one query execution that cost ``ticks`` of logical time."""
        self.clock.advance(ticks)
        self.monitor.record_query(name, self.clock.now)

    def note_update(self, relation: str, ticks: float = 1.0) -> None:
        """Record one update batch that cost ``ticks`` of logical time."""
        self.clock.advance(ticks)
        self.monitor.record_update(relation, self.clock.now)

    # --------------------------------------------------------------- deciding
    def _effective_frequencies(
        self, estimate: FrequencyEstimate
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(baseline fu, effective observed fu) over the relevant relations.

        Relations with no observed updates keep the warehouse's
        registered ``fu`` on *both* sides: silence about a relation is
        not evidence that it stopped being updated, and a candidate
        design could not exploit the difference anyway
        (:func:`~repro.workload.query_log.apply_to_workload` keeps
        registered values for unobserved relations).
        """
        workload = self.warehouse.workload
        observed_known: Set[str] = {
            name
            for name in estimate.update_frequencies
            if name in workload.catalog
        }
        relations = set(workload.update_frequencies) | observed_known
        baseline = {
            name: workload.update_frequency(name) for name in relations
        }
        effective = dict(baseline)
        for name in observed_known:
            effective[name] = estimate.update_frequencies[name]
        return baseline, effective

    def _decide(self, now: float) -> AdaptationDecision:
        estimate = self.monitor.estimate(now=now)
        if estimate is None:
            return AdaptationDecision(
                tick=now,
                action=INSUFFICIENT,
                detail=(
                    f"{self.monitor.observations} observation(s) in the "
                    f"window; need {self.policy.min_observations}"
                ),
            )

        workload = self.warehouse.workload
        baseline_queries = {q.name: q.frequency for q in workload.queries}
        baseline_updates, effective_updates = self._effective_frequencies(
            estimate
        )
        drift = self.detector.check(
            baseline_queries,
            baseline_updates,
            replace(estimate, update_frequencies=effective_updates),
            tick=now,
        )
        if drift is None:
            return AdaptationDecision(tick=now, action=NO_DRIFT)
        self._counter("adaptive.drift_detected")

        since_accept = now - self._last_accept_tick
        if since_accept < self.policy.cooldown_ticks:
            self._counter("adaptive.redesigns_suppressed", reason="cooldown")
            return AdaptationDecision(
                tick=now,
                action=SUPPRESSED_COOLDOWN,
                drift=drift,
                detail=(
                    f"{since_accept:g} of {self.policy.cooldown_ticks:g} "
                    f"cooldown ticks elapsed"
                ),
            )

        # Candidate redesign under the live frequencies.  Lint stays
        # off here: the controller must not die on advisory findings.
        from repro.mvpp.generation import design as run_design

        observed = apply_to_workload(workload, estimate)
        candidate = run_design(
            observed,
            self.config.replace(lint=False),
            estimator=self.warehouse.estimator,
            cost_model=self.warehouse.cost_model,
        )
        old_cost = self._installed_result.calculator.breakdown_with_frequencies(
            self._installed_result.materialized,
            estimate.query_frequencies,
            effective_updates,
        ).total
        new_cost = candidate.total_cost
        migration = self._costed_migration(candidate)

        if migration.is_noop:
            # The installed view set stays optimal under the new
            # frequencies; write them back so this drift stops firing,
            # without touching any stored table.
            self._apply_frequencies(estimate)
            self._install(candidate, resilient=False)
            self._counter("adaptive.rebaselined")
            self._gauges(new_cost)
            return AdaptationDecision(
                tick=now,
                action=REBASELINED,
                drift=drift,
                old_cost=old_cost,
                new_cost=new_cost,
                migration_cost=0.0,
                net_benefit=(
                    (old_cost - new_cost)
                    * self.policy.amortization_horizon_periods
                ),
                migration=migration,
            )

        net_benefit = (
            (old_cost - new_cost) * self.policy.amortization_horizon_periods
            - migration.migration_cost
        )
        if net_benefit < self.policy.min_benefit_margin:
            self._counter("adaptive.redesigns_suppressed", reason="benefit")
            self._gauges(old_cost)
            return AdaptationDecision(
                tick=now,
                action=SUPPRESSED_BENEFIT,
                drift=drift,
                old_cost=old_cost,
                new_cost=new_cost,
                migration_cost=migration.migration_cost,
                net_benefit=net_benefit,
                migration=migration,
                detail=(
                    f"net benefit below margin "
                    f"{self.policy.min_benefit_margin:g}"
                ),
            )

        self._apply_frequencies(estimate)
        try:
            executed = self._install(candidate, resilient=True)
        except WarehouseError as exc:
            # The old design keeps serving; consuming the cooldown backs
            # off instead of hammering a failing build every evaluate.
            self._last_accept_tick = now
            self._counter("adaptive.redesigns_suppressed", reason="failed")
            return AdaptationDecision(
                tick=now,
                action=MIGRATION_FAILED,
                drift=drift,
                old_cost=old_cost,
                new_cost=new_cost,
                migration_cost=migration.migration_cost,
                net_benefit=net_benefit,
                migration=migration,
                detail=str(exc),
            )
        self._last_accept_tick = self.clock.now
        self._counter("adaptive.redesigns_accepted")
        self._gauges(new_cost)
        return AdaptationDecision(
            tick=now,
            action=ACCEPTED,
            drift=drift,
            old_cost=old_cost,
            new_cost=new_cost,
            migration_cost=migration.migration_cost,
            net_benefit=net_benefit,
            migration=executed,
        )

    def evaluate(self) -> AdaptationDecision:
        """Run one observe → detect → redesign → migrate decision.

        Always returns (and appends to :attr:`history`) an
        :class:`AdaptationDecision`; never raises on a failed migration
        (the decision's ``action`` says what happened, and the previous
        design keeps serving).
        """
        with obs.correlation("adapt"), obs.span("adaptive.evaluate") as span:
            decision = self._decide(self.clock.now)
            span.set(
                action=decision.action,
                tick=decision.tick,
                net_benefit=decision.net_benefit,
            )
            if obs.enabled():
                obs.journal_event(
                    "adaptive.decision",
                    tick=decision.tick,
                    action=decision.action,
                    net_benefit=decision.net_benefit,
                    detail=decision.detail,
                )
        self.history.append(decision)
        return decision

    # ---------------------------------------------------------------- helpers
    def _costed_migration(self, candidate) -> "MigrationPlan":
        from repro.warehouse.evolution import cost_migration, plan_migration
        from repro.warehouse.view import MaterializedView

        new_views = [
            MaterializedView(name=f"mv_{vertex.name}", plan=vertex.operator)
            for vertex in candidate.materialized
        ]
        plan = plan_migration(list(self.warehouse.views), new_views)
        database = self.warehouse.database
        return cost_migration(
            plan,
            access_costs={
                vertex.operator.signature: vertex.access_cost
                for vertex in candidate.materialized
            },
            stored_blocks={
                view.name: float(database.table(view.name).num_blocks)
                for view in plan.drop
                if view.name in database
            },
            drop_cost_per_block=self.policy.drop_cost_per_block,
        )

    def _apply_frequencies(self, estimate: FrequencyEstimate) -> None:
        """Write the estimate back as the warehouse's registered fq/fu."""
        warehouse = self.warehouse
        for spec in warehouse.workload.queries:
            frequency = estimate.query_frequencies.get(spec.name, 0.0)
            warehouse.set_query_frequency(spec.name, frequency)
        for relation, frequency in sorted(
            estimate.update_frequencies.items()
        ):
            if relation in warehouse.catalog:
                warehouse.set_update_frequency(relation, frequency)

    def _install(self, candidate, resilient: bool) -> "MigrationPlan":
        executed = self.warehouse.install_design(
            candidate, scheduler=self.scheduler if resilient else None
        )
        self._installed_result = candidate
        return executed

    @staticmethod
    def _counter(name: str, **labels: str) -> None:
        if obs.enabled():
            obs.metrics().counter(name, **labels).inc()

    def _gauges(self, estimated_total_cost: float) -> None:
        if obs.enabled():
            registry = obs.metrics()
            registry.gauge("adaptive.estimated_total_cost").set(
                estimated_total_cost
            )
            registry.gauge("adaptive.installed_views").set(
                float(len(self.warehouse.views))
            )
