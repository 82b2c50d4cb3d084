"""Smoke tests for the seeded ``stream`` lifecycle scenario (the `repro
stream` backend): convergence, zero violations, and per-seed determinism."""

import pytest

from repro import simulation
from repro.cdc import StreamingPolicy
from repro.errors import StreamingError
from repro.mvpp.config import DesignConfig
from repro.workload import paper_rows, paper_workload


def simulate_streaming(seed=0, rounds=3, scale=0.02, **knobs):
    return simulation.stream(
        paper_workload(),
        paper_rows(scale=scale, seed=seed),
        DesignConfig(seed=seed),
        rounds=rounds,
        **knobs,
    )


class TestFaultFree:
    def test_converges_without_violations(self):
        result = simulate_streaming(seed=7, rounds=2, scale=0.02)
        document = result.document
        assert result.ok
        assert document["converged"]
        assert document["consistency_violations"] == 0
        assert document["partial_writes"] == 0
        assert document["faults_injected"] == {}
        assert document["changes"]["appended"] > 0
        assert document["drains"]["total"] >= document["rounds"]
        assert document["queries"]["run"] > 0

    def test_deterministic_per_seed(self):
        first = simulate_streaming(seed=7, rounds=2, scale=0.02)
        second = simulate_streaming(seed=7, rounds=2, scale=0.02)
        assert first.document["digest"] == second.document["digest"]
        assert first.document == second.document

    def test_seed_changes_digest(self):
        a = simulate_streaming(seed=7, rounds=2, scale=0.02)
        b = simulate_streaming(seed=8, rounds=2, scale=0.02)
        assert a.document["digest"] != b.document["digest"]

    def test_tight_retention_drops_records(self):
        policy = StreamingPolicy(retention=2, max_lag_records=2)
        with pytest.warns(Warning):
            result = simulate_streaming(
                seed=7, rounds=2, scale=0.02, policy=policy
            )
        assert result.document["changes"]["dropped"] > 0
        assert result.ok  # dropped history degrades to recompute, not loss


class TestFaulted:
    def test_converges_under_faults(self):
        result = simulate_streaming(
            failure_rate=0.3, seed=7, rounds=2, scale=0.02
        )
        document = result.document
        assert result.ok
        assert document["converged"]
        assert document["consistency_violations"] == 0
        assert document["partial_writes"] == 0
        assert sum(document["faults_injected"].values()) > 0

    def test_faulted_run_deterministic(self):
        first = simulate_streaming(
            failure_rate=0.3, seed=7, rounds=2, scale=0.02
        )
        second = simulate_streaming(
            failure_rate=0.3, seed=7, rounds=2, scale=0.02
        )
        assert first.document["digest"] == second.document["digest"]


class TestValidation:
    def test_rejects_bad_failure_rate(self):
        with pytest.raises(StreamingError):
            simulate_streaming(failure_rate=1.5)

    def test_rejects_bad_rounds(self):
        with pytest.raises(StreamingError):
            simulate_streaming(rounds=0)

    def test_to_dict_sections(self):
        """The report document carries every section and its verdict."""
        document = simulate_streaming(seed=7, rounds=2, scale=0.02).document
        assert document["ok"] is True
        for section in ("changes", "drains", "staleness", "queries"):
            assert section in document, section
