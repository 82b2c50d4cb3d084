"""Deterministic fault injection at the storage and communication boundaries.

A :class:`FaultInjector` draws every fault decision from one seeded
``random.Random`` stream, so a fixed :class:`FaultPolicy` reproduces the
exact same failure sequence on every run — the property the resilience
test suite asserts bit-identically.

Two boundaries are instrumented:

* **storage I/O** — :class:`FaultyTable` proxies a stored
  :class:`~repro.storage.table.Table` and consults the injector before
  every scan or write.  :meth:`repro.executor.engine.Database.table`
  returns the proxy automatically once an injector is attached, so
  plans execute unmodified.  A fault aborts *before* any row is
  appended: a failed write never leaves partial state behind.
* **site communication** — :meth:`FaultyTopology.transfer_cost` consults
  the injector before pricing a transfer, modelling an unreachable link.

``FaultPolicy.scope`` controls *when* faults fire: ``"maintenance"``
(the default) injects only inside a refresh — the scheduler's retry
loop is exercised while foreground queries stay failure-free —
while ``"all"`` also fails foreground reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import CommFault, ResilienceError, StorageFault
from repro.storage.table import Table

__all__ = [
    "FaultPolicy",
    "FaultInjector",
    "FaultyTable",
    "FaultyTopology",
    "SCOPE_MAINTENANCE",
    "SCOPE_ALL",
]

SCOPE_MAINTENANCE = "maintenance"
SCOPE_ALL = "all"


def _check_rate(label: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ResilienceError(f"{label} must be in [0, 1]: {rate}")


@dataclass(frozen=True)
class FaultPolicy:
    """Seeded failure/delay rates per relation and per site.

    ``storage_failure_rate`` / ``comm_failure_rate`` are the default
    per-operation failure probabilities; ``relation_rates`` /
    ``site_rates`` override them for named targets (given as
    name→rate tuples to keep the dataclass hashable).  ``delay_rate``
    injects a delay of ``delay_ticks`` logical ticks (advancing the
    scheduler clock without failing the operation).
    """

    storage_failure_rate: float = 0.0
    comm_failure_rate: float = 0.0
    relation_rates: Tuple[Tuple[str, float], ...] = ()
    site_rates: Tuple[Tuple[str, float], ...] = ()
    delay_rate: float = 0.0
    delay_ticks: float = 1.0
    scope: str = SCOPE_MAINTENANCE
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate("storage_failure_rate", self.storage_failure_rate)
        _check_rate("comm_failure_rate", self.comm_failure_rate)
        _check_rate("delay_rate", self.delay_rate)
        for name, rate in self.relation_rates:
            _check_rate(f"relation rate for {name!r}", rate)
        for name, rate in self.site_rates:
            _check_rate(f"site rate for {name!r}", rate)
        if self.delay_ticks < 0:
            raise ResilienceError(
                f"delay_ticks must be >= 0: {self.delay_ticks}"
            )
        if self.scope not in (SCOPE_MAINTENANCE, SCOPE_ALL):
            raise ResilienceError(
                f"unknown fault scope {self.scope!r}; expected "
                f"{SCOPE_MAINTENANCE!r} or {SCOPE_ALL!r}"
            )

    def rate_for_relation(self, name: str) -> float:
        for target, rate in self.relation_rates:
            if target == name:
                return rate
        return self.storage_failure_rate

    def rate_for_site(self, name: str) -> float:
        for target, rate in self.site_rates:
            if target == name:
                return rate
        return self.comm_failure_rate

    @property
    def injects_anything(self) -> bool:
        return (
            self.storage_failure_rate > 0
            or self.comm_failure_rate > 0
            or self.delay_rate > 0
            or any(rate > 0 for _, rate in self.relation_rates)
            or any(rate > 0 for _, rate in self.site_rates)
        )


class FaultInjector:
    """Draws fault decisions from one seeded stream and counts them.

    The injector is deliberately *stateful but deterministic*: the
    decision sequence depends only on the policy seed and the order of
    instrumented operations, which the engine performs deterministically.
    """

    def __init__(self, policy: FaultPolicy):
        self.policy = policy
        self._rng = random.Random(policy.seed)
        self.storage_faults = 0
        self.comm_faults = 0
        self.delays = 0
        self.delay_ticks_total = 0.0
        self._maintenance_depth = 0
        #: Ticks injected since the last :meth:`drain_delay_ticks` call;
        #: the scheduler drains this into its logical clock.
        self._pending_delay = 0.0

    # ----------------------------------------------------------------- scope
    def maintenance(self) -> "_MaintenanceScope":
        """Context manager marking a maintenance window (refresh)."""
        return _MaintenanceScope(self)

    @property
    def in_maintenance(self) -> bool:
        return self._maintenance_depth > 0

    @property
    def active(self) -> bool:
        if self.policy.scope == SCOPE_ALL:
            return True
        return self.in_maintenance

    # ------------------------------------------------------------- decisions
    def maybe_fail_storage(self, relation: str, operation: str) -> None:
        """Raise :class:`StorageFault` with the policy's probability."""
        if not self.active:
            return
        self._maybe_delay()
        rate = self.policy.rate_for_relation(relation)
        if rate > 0 and self._rng.random() < rate:
            self.storage_faults += 1
            self._count("storage", relation)
            raise StorageFault(relation, operation)

    def maybe_fail_comm(self, source: str, destination: str) -> None:
        """Raise :class:`CommFault` for the costlier endpoint's rate."""
        if not self.active:
            return
        self._maybe_delay()
        rate = max(
            self.policy.rate_for_site(source),
            self.policy.rate_for_site(destination),
        )
        if rate > 0 and self._rng.random() < rate:
            self.comm_faults += 1
            self._count("comm", f"{source}->{destination}")
            raise CommFault(f"{source}->{destination}", "transfer")

    def _maybe_delay(self) -> None:
        if self.policy.delay_rate > 0 and self._rng.random() < self.policy.delay_rate:
            self.delays += 1
            self.delay_ticks_total += self.policy.delay_ticks
            self._pending_delay += self.policy.delay_ticks

    def drain_delay_ticks(self) -> float:
        """Injected delay ticks accumulated since the last drain."""
        ticks = self._pending_delay
        self._pending_delay = 0.0
        return ticks

    # --------------------------------------------------------------- metrics
    def _count(self, kind: str, target: str) -> None:
        from repro import obs

        if obs.enabled():
            obs.metrics().counter(
                "resilience.faults_injected", kind=kind, target=target
            ).inc()

    def stats(self) -> Dict[str, float]:
        """A JSON-safe snapshot of the injected-fault counters."""
        return {
            "storage_faults": self.storage_faults,
            "comm_faults": self.comm_faults,
            "delays": self.delays,
            "delay_ticks": self.delay_ticks_total,
        }


class _MaintenanceScope:
    """Re-entrant ``with injector.maintenance():`` marker."""

    def __init__(self, injector: FaultInjector):
        self._injector = injector

    def __enter__(self) -> FaultInjector:
        self._injector._maintenance_depth += 1
        return self._injector

    def __exit__(self, *exc_info: Any) -> None:
        self._injector._maintenance_depth -= 1


class FaultyTable(Table):
    """A table proxy that consults a :class:`FaultInjector` before I/O.

    Shares the inner table's column storage, schema and I/O counter, so
    reads and writes that survive injection behave exactly like the real
    table (including block accounting).  A raised fault aborts before
    any row is appended — partial writes are impossible.  Every whole-
    table read (:meth:`rows`, :meth:`copy`, index probes) goes through
    :meth:`columns`, which draws one read fault.
    """

    def __init__(self, inner: Table, name: str, injector: FaultInjector):
        self.schema = inner.schema
        self.blocking_factor = inner.blocking_factor
        self.io = inner.io
        self._columns = inner._columns  # shared: the proxy IS the stored table
        # Change capture rides through the proxy: a write that survives
        # injection must emit exactly the records a direct write would.
        self.write_hook = inner.write_hook
        self._name = name
        self._injector = injector

    def scan(self, count_io: bool = True) -> Iterator[Dict[str, Any]]:
        self._injector.maybe_fail_storage(self._name, "scan")
        return super().scan(count_io)

    def columns(self) -> list:
        self._injector.maybe_fail_storage(self._name, "read")
        return super().columns()

    def insert(self, row: Mapping[str, Any], count_io: bool = False) -> None:
        self._injector.maybe_fail_storage(self._name, "write")
        super().insert(row, count_io)

    def insert_many(
        self, rows: Iterable[Mapping[str, Any]], count_io: bool = True
    ) -> int:
        self._injector.maybe_fail_storage(self._name, "write")
        return super().insert_many(rows, count_io)

    def delete_many(
        self, rows: Iterable[Mapping[str, Any]], count_io: bool = True
    ) -> list:
        self._injector.maybe_fail_storage(self._name, "delete")
        return super().delete_many(rows, count_io)


class FaultyTopology:
    """A :class:`~repro.distributed.sites.Topology` wrapper that may fail.

    Produced by :meth:`Topology.with_faults
    <repro.distributed.sites.Topology.with_faults>`; every
    :meth:`transfer_cost` call first asks the injector whether the link
    is up.  All other topology methods delegate unchanged.
    """

    def __init__(self, inner: Any, injector: FaultInjector):
        self._inner = inner
        self._injector = injector

    def transfer_cost(
        self, source: str, destination: str, blocks: float
    ) -> float:
        if source != destination:
            self._injector.maybe_fail_comm(source, destination)
        return self._inner.transfer_cost(source, destination, blocks)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __contains__(self, name: str) -> bool:
        return name in self._inner
