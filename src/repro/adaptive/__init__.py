"""Adaptive design: online drift detection and cost-gated migration.

The paper designs a view set for *given* frequencies; this package
closes the loop for workloads that drift.  A
:class:`~repro.adaptive.monitor.WorkloadMonitor` estimates live
frequencies over the logical tick clock, a
:class:`~repro.adaptive.drift.DriftDetector` compares them against the
installed design's frequencies, and the
:class:`~repro.adaptive.controller.AdaptiveController` migrates to a
redesign only when its amortized saving beats the one-off migration
cost.  The ``drift`` scenario of :mod:`repro.simulation` replays a
phased workload to compare static, adaptive and eager redesign policies.
See ``docs/adaptive.md``.
"""

from repro.adaptive.controller import (
    ACCEPTED,
    AdaptationDecision,
    AdaptiveController,
)
from repro.adaptive.drift import DriftChange, DriftDetector, DriftEvent
from repro.adaptive.monitor import WorkloadMonitor
from repro.adaptive.policy import DEFAULT_ADAPTIVE_POLICY, AdaptivePolicy
from repro.adaptive.simulate import simulation_policy

__all__ = [
    "ACCEPTED",
    "AdaptationDecision",
    "AdaptiveController",
    "AdaptivePolicy",
    "DEFAULT_ADAPTIVE_POLICY",
    "DriftChange",
    "DriftDetector",
    "DriftEvent",
    "WorkloadMonitor",
    "simulation_policy",
]
