"""The drifting-workload replay's policy and phase profiles.

The ``drift`` scenario of :mod:`repro.simulation` replays a phased query
log against the paper's running example and compares static, adaptive
and eager redesign.  Three phases stress different failure modes: phase
A is the design-time profile (Q1/Q2-hot); phase B inverts it (Q3/Q4-hot),
so *static* overpays for every remaining window; phase C alternates the
two profiles every window, so *eager* thrashes — it pays a migration per
window while the adaptive controller's sliding window averages the
alternation into one stable compromise.  A ``stationary`` run replays
phase A throughout (with the same seeded jitter) as the control.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.adaptive.policy import AdaptivePolicy

__all__ = [
    "PHASE_A_PROFILE",
    "PHASE_B_PROFILE",
    "phase_profile",
    "simulation_policy",
    "window_counts",
]

#: Per-window query counts of the two workload phases.  Phase A matches
#: the relative shape of the paper's design-time frequencies (Q1-hot);
#: phase B inverts the hot set onto the Order/Customer queries.
PHASE_A_PROFILE: Dict[str, int] = {"Q1": 10, "Q2": 6, "Q3": 1, "Q4": 1}
PHASE_B_PROFILE: Dict[str, int] = {"Q1": 1, "Q2": 1, "Q3": 8, "Q4": 10}

#: Queries at or above this per-window count get +/-1 seeded jitter;
#: rarer queries stay exact so noise cannot mimic drift.
_JITTER_FLOOR = 4


def simulation_policy(expected_events: float) -> AdaptivePolicy:
    """The replay's tuned policy for windows of ``expected_events`` ticks.

    One simulated window = one design period; the sliding estimation
    window spans two of them; the cooldown matches the window so at most
    one redesign can land per estimation horizon; and the dual drift
    threshold (50% relative *and* at least one whole event) ignores the
    seeded per-window jitter.
    """
    return AdaptivePolicy(
        period_ticks=float(expected_events),
        window_periods=2.0,
        min_observations=8,
        drift_threshold=0.5,
        min_absolute_change=1.0,
        noise_floor=0.25,
        cooldown_ticks=2.0 * expected_events,
        min_benefit_margin=1000.0,
        amortization_horizon_periods=8.0,
    )


def window_counts(profile: Dict[str, int], rng: random.Random) -> Dict[str, int]:
    """One window's query counts: the phase profile plus seeded jitter."""
    return {
        name: count + (rng.randint(-1, 1) if count >= _JITTER_FLOOR else 0)
        for name, count in profile.items()
    }


def phase_profile(
    window: int, windows_per_phase: int, stationary: bool
) -> Tuple[str, Dict[str, int]]:
    """The phase label and query profile of ``window``."""
    if stationary:
        return "A", PHASE_A_PROFILE
    phase = window // windows_per_phase
    if phase == 0:
        return "A", PHASE_A_PROFILE
    if phase == 1:
        return "B", PHASE_B_PROFILE
    # Phase C: alternate the two profiles every window.
    if window % 2 == 0:
        return "C/A", PHASE_A_PROFILE
    return "C/B", PHASE_B_PROFILE
