"""Unit tests for the multi-period ``periods`` lifecycle scenario."""

import pytest

from repro.errors import WarehouseError
from repro.simulation import periods
from repro.warehouse import DataWarehouse, MaterializedView
from repro.warehouse.maintenance import INCREMENTAL
from repro.workload import paper_rows, paper_workload


def simulate(warehouse, **knobs):
    """The periods scenario's document, after its oracle passed."""
    report = periods(warehouse, **knobs)
    assert report.ok, report.document
    return report.document


@pytest.fixture()
def loaded():
    wh = DataWarehouse.from_workload(paper_workload())
    wh.design()
    for relation, rows in paper_rows(scale=0.01, seed=11).items():
        wh.load(relation, rows)
    wh.materialize()
    return wh


class TestConfig:
    def test_validation(self):
        warehouse = DataWarehouse.from_workload(paper_workload())
        with pytest.raises(WarehouseError):
            periods(warehouse, periods=0)
        with pytest.raises(WarehouseError):
            periods(warehouse, update_batch_size=0)
        with pytest.raises(WarehouseError):
            periods(warehouse, maintenance_policy="defer")


class TestSimulation:
    def test_execution_counts_follow_frequencies(self, loaded):
        report = simulate(loaded, periods=4, seed=1)
        # fq: Q1=10, Q2=0.5, Q3=0.8, Q4=5 over 4 periods.
        assert report["query_executions"]["Q1"] == 40
        assert report["query_executions"]["Q2"] == 2
        assert report["query_executions"]["Q3"] == 3  # floor(0.8 * 4)
        assert report["query_executions"]["Q4"] == 20

    def test_update_batches_follow_fu(self, loaded):
        report = simulate(loaded, periods=3, seed=1)
        for relation in ("Product", "Division", "Order", "Customer", "Part"):
            assert report["update_batches"][relation] == 3

    def test_io_sides_populated(self, loaded):
        report = simulate(loaded, periods=2, seed=2)
        assert report["query_io"] > 0
        assert report["maintenance_io"] > 0
        assert report["total_io"] == report["query_io"] + report["maintenance_io"]
        assert report["per_period_io"] == pytest.approx(report["total_io"] / 2)

    def test_deterministic_for_seed(self, loaded):
        # Run on two identically-prepared warehouses.
        def build():
            wh = DataWarehouse.from_workload(paper_workload())
            wh.design()
            for relation, rows in paper_rows(scale=0.01, seed=11).items():
                wh.load(relation, rows)
            wh.materialize()
            return simulate(wh, periods=2, seed=5)

        a, b = build(), build()
        assert a["total_io"] == b["total_io"]
        assert a["query_executions"] == b["query_executions"]

    def test_incremental_policy_cheaper_maintenance(self):
        def run(policy):
            wh = DataWarehouse.from_workload(paper_workload())
            wh.design()
            for relation, rows in paper_rows(scale=0.01, seed=11).items():
                wh.load(relation, rows)
            wh.materialize()
            return simulate(wh, periods=2, seed=3, maintenance_policy=policy)

        recompute = run("recompute")
        incremental = run(INCREMENTAL)
        assert incremental["maintenance_io"] < recompute["maintenance_io"]


class TestViewMixComparison:
    def test_designed_mix_beats_all_virtual_in_simulation(self, loaded):
        """The analytical objective's verdict holds under simulation: the
        designed views cost less measured I/O than running virtual."""
        designed = simulate(loaded, periods=3, seed=7)

        virtual = DataWarehouse.from_workload(paper_workload())
        virtual.design()
        for relation, rows in paper_rows(scale=0.01, seed=11).items():
            virtual.load(relation, rows)
        virtual.install_views([])  # the all-virtual mix
        empty = virtual.materialize()
        assert empty == []
        baseline = simulate(virtual, periods=3, seed=7)

        assert designed["total_io"] < baseline["total_io"]
        assert baseline["maintenance_io"] <= designed["maintenance_io"]

    def test_install_views_custom_mix(self, loaded):
        """A hand-picked single-view mix simulates end to end."""
        design = loaded.design_result
        vertex = design.materialized[0]
        loaded.install_views(
            [MaterializedView(name=f"mv_{vertex.name}", plan=vertex.operator)]
        )
        loaded.materialize()
        report = simulate(loaded, periods=1, seed=9)
        assert report["total_io"] > 0
