"""Tests for the drifting-workload replay (static vs adaptive vs eager):
the ``drift`` scenario of the lifecycle harness."""

import json

import pytest

from repro import simulation
from repro.adaptive import simulation_policy
from repro.errors import AdaptiveError
from repro.mvpp.config import DesignConfig
from repro.workload import paper_workload


def simulate_drift(seed=0, **knobs):
    return simulation.drift(paper_workload(), DesignConfig(seed=seed), **knobs)


@pytest.fixture(scope="module")
def seed7():
    return simulate_drift(seed=7)


class TestDeterminism:
    def test_seed7_trajectory_is_bit_identical(self, seed7):
        """The seed-7 replay reproduces exactly."""
        again = simulate_drift(seed=7)
        assert again.document == seed7.document

    def test_different_seeds_share_structure(self):
        document = simulate_drift(seed=1, windows_per_phase=2).document
        assert document["windows"] == 6
        assert set(document["variants"]) == {"static", "adaptive", "eager"}
        assert len(document["decisions"]) == 6
        assert len(document["phases"]) == 6


class TestOutcomes:
    def test_adaptive_beats_both_baselines(self, seed7):
        """Drift-triggered + cost-gated beats never-redesign and
        redesign-every-window."""
        variants = seed7.document["variants"]
        adaptive = variants["adaptive"]["total_cost"]
        assert seed7.ok
        assert adaptive < variants["static"]["total_cost"]
        assert adaptive < variants["eager"]["total_cost"]
        assert seed7.document["accepted"] >= 1
        assert seed7.document["drift_events"] >= seed7.document["accepted"]

    def test_adaptive_migrates_less_than_eager(self, seed7):
        adaptive = seed7.document["variants"]["adaptive"]
        eager = seed7.document["variants"]["eager"]
        assert adaptive["migrations"] < eager["migrations"]
        assert adaptive["migration_cost"] < eager["migration_cost"]

    def test_static_never_migrates(self, seed7):
        static = seed7.document["variants"]["static"]
        assert static["migrations"] == 0
        assert static["migration_cost"] == 0.0
        assert static["final_views"]  # designed once, still serving

    def test_stationary_control_accepts_nothing(self):
        result = simulate_drift(seed=0, stationary=True)
        document = result.document
        assert document["stationary"]
        assert document["accepted"] == 0
        assert result.ok
        # With no accepted migration the adaptive variant pays exactly
        # the static serving cost.
        assert (
            document["variants"]["adaptive"]["total_cost"]
            == document["variants"]["static"]["total_cost"]
        )

    def test_window_costs_cover_every_window(self, seed7):
        for outcome in seed7.document["variants"].values():
            assert len(outcome["window_costs"]) == seed7.document["windows"]


class TestInterface:
    def test_bad_windows_rejected(self):
        with pytest.raises(AdaptiveError):
            simulate_drift(windows_per_phase=0)

    def test_describe_lists_variants_and_decisions(self, seed7):
        """The text rendering names every variant and the decisions."""
        text = seed7.render_text()
        for name in ("static", "adaptive", "eager"):
            assert name in text
        assert "decisions" in text

    def test_to_dict_is_json_safe(self, seed7):
        """The report document survives a JSON round trip unchanged."""
        document = json.loads(seed7.to_json())
        assert document == seed7.document
        assert document["seed"] == 7
        assert document["variants"]["adaptive"]["total_cost"] == (
            seed7.document["variants"]["adaptive"]["total_cost"]
        )

    def test_simulation_policy_scales_with_events(self):
        policy = simulation_policy(40.0)
        assert policy.period_ticks == 40.0
        assert policy.cooldown_ticks == 80.0
        assert policy.min_absolute_change == 1.0
