"""Benchmark — adaptive redesign vs the static and eager baselines.

Replays the seeded drifting workload (phase A = design-time profile,
phase B = inverted hot set, phase C = alternating) through
the ``drift`` scenario of :mod:`repro.simulation` and checks the tentpole contract:

* **payoff** — the drift-triggered, cost-gated adaptive controller ends
  with a lower cumulative cost (serving + migration) than *both* the
  never-redesign baseline and the redesign-every-window baseline;
* **stability** — on the stationary control run (phase A throughout,
  same seeded jitter) the controller accepts zero redesigns, so its
  trajectory is exactly the static one;
* **determinism** — the whole trajectory (decisions, costs, tick
  stamps) reproduces bit-identically for a fixed seed.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the replay (fewer windows, one
seed) for CI smoke runs.
"""

import os

from repro import simulation
from repro.analysis import render_table
from repro.mvpp.config import DesignConfig
from repro.workload import paper_workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SEEDS = (7,) if SMOKE else (7, 11)
WINDOWS_PER_PHASE = 2 if SMOKE else 4


def simulate_drift(seed, **knobs):
    return simulation.drift(paper_workload(), DesignConfig(seed=seed), **knobs)


def run_replays():
    out = {}
    for seed in SEEDS:
        out[seed] = simulate_drift(
            seed=seed, windows_per_phase=WINDOWS_PER_PHASE
        )
    out["stationary"] = simulate_drift(
        seed=SEEDS[0], windows_per_phase=WINDOWS_PER_PHASE, stationary=True
    )
    return out


def test_adaptive_beats_both_baselines(benchmark):
    results = benchmark.pedantic(run_replays, rounds=1, iterations=1)

    rows = []
    for seed in SEEDS:
        result = results[seed].document
        variants = result["variants"]
        adaptive = variants["adaptive"]
        # The payoff, per seed: adaptive < static and < eager.
        assert results[seed].ok, results[seed].render_text()
        assert adaptive["total_cost"] < variants["static"]["total_cost"]
        assert adaptive["total_cost"] < variants["eager"]["total_cost"]
        assert result["accepted"] >= 1
        # Hysteresis keeps the controller calmer than eager redesign.
        assert adaptive["migrations"] < variants["eager"]["migrations"]
        for name in ("static", "adaptive", "eager"):
            outcome = variants[name]
            rows.append(
                [
                    f"seed {seed}" if name == "static" else "",
                    name,
                    f"{outcome['serving_cost']:,.0f}",
                    f"{outcome['migration_cost']:,.0f}",
                    f"{outcome['total_cost']:,.0f}",
                    str(outcome["migrations"]),
                ]
            )

    stationary = results["stationary"].document
    assert stationary["accepted"] == 0, results["stationary"].render_text()
    assert (
        stationary["variants"]["adaptive"]["total_cost"]
        == stationary["variants"]["static"]["total_cost"]
    )

    # Determinism: the same seed reproduces the trajectory bit for bit.
    again = simulate_drift(
        seed=SEEDS[0], windows_per_phase=WINDOWS_PER_PHASE
    )
    assert again.document == results[SEEDS[0]].document

    print()
    print(
        render_table(
            ["Replay", "Policy", "Serving", "Migration", "Total", "Moves"],
            rows,
        )
    )
    print(
        f"stationary control: {stationary['accepted']} accepted over "
        f"{stationary['windows']} windows (decisions: "
        f"{', '.join(sorted(set(stationary['decisions'])))})"
    )
