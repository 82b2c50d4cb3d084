"""Fault tolerance for view maintenance and serving.

The paper's framework trades query cost against maintenance cost under
the assumption that every refresh succeeds instantly; this package
supplies the production-side missing half (the ROADMAP's robustness
north star):

* :mod:`~repro.resilience.faults` — deterministic, seeded fault
  injection at the storage-I/O and site-communication boundaries;
* :mod:`~repro.resilience.scheduler` — a refresh scheduler with retry,
  bounded exponential backoff + seeded jitter, per-view circuit
  breakers and freshness epochs, all over a logical tick clock;
* :mod:`~repro.resilience.config` — the frozen configuration
  dataclasses (also reachable as ``DesignConfig.resilience``).

The end-to-end seeded simulation behind ``repro simulate --faults`` is
the ``faults`` scenario of :mod:`repro.simulation`.

See ``docs/resilience.md`` for the failure model and the staleness
contract.
"""

from repro.resilience.config import (
    DEFAULT_RESILIENCE_CONFIG,
    BreakerPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.faults import (
    SCOPE_ALL,
    SCOPE_MAINTENANCE,
    FaultInjector,
    FaultPolicy,
    FaultyTable,
    FaultyTopology,
)
from repro.resilience.scheduler import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    LogicalClock,
    RefreshOutcome,
    RefreshScheduler,
)

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "CLOSED",
    "DEFAULT_RESILIENCE_CONFIG",
    "FaultInjector",
    "FaultPolicy",
    "FaultyTable",
    "FaultyTopology",
    "HALF_OPEN",
    "LogicalClock",
    "OPEN",
    "RefreshOutcome",
    "RefreshScheduler",
    "ResilienceConfig",
    "RetryPolicy",
    "SCOPE_ALL",
    "SCOPE_MAINTENANCE",
]
