"""Validation: measured block I/O realizes the analytical cost model.

The paper's design decisions are driven by a block-access cost model; the
executor charges the same access patterns on real data.  These tests pin
the correspondence: given the *actual* sizes of the inputs, each physical
operator's measured reads equal the model formula exactly, and end-to-end
predictions land within estimation error of measurements.
"""

import pytest

from repro.catalog.statistics import RelationStatistics
from repro.executor.engine import ExecutionEngine, load_database
from repro.executor.physical import (
    Filter,
    NestedLoopJoin,
    Projection,
    execute_operator,
    scan_of,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import NestedLoopCostModel
from repro.optimizer.plans import AnnotatedPlan
from repro.sql.translator import parse_query
from repro.algebra.expressions import column, compare, literal
from repro.workload.datagen import paper_rows
from repro.workload.example import paper_statistics


@pytest.fixture(scope="module")
def database(workload):
    return load_database(
        paper_rows(scale=0.05, seed=11),
        workload.catalog,
        blocking_factors={
            name: workload.statistics.relation(name).blocking_factor
            for name in workload.catalog.relation_names
        },
    )


class TestOperatorFormulas:
    def test_select_reads_equal_input_blocks(self, database):
        table = database.table("Division")
        database.io.reset()
        execute_operator(
            Filter(scan_of(table), compare("Division.city", "=", literal("LA"))),
            io=table.io,
        )
        assert database.io.reads == table.num_blocks

    def test_project_reads_equal_input_blocks(self, database):
        table = database.table("Product")
        database.io.reset()
        execute_operator(Projection(scan_of(table), ["Product.name"]), io=table.io)
        assert database.io.reads == table.num_blocks

    def test_nested_loop_reads_match_formula(self, database):
        orders = database.table("Order")
        customers = database.table("Customer")
        database.io.reset()
        execute_operator(
            NestedLoopJoin(
                scan_of(orders),
                scan_of(customers),
                compare("Order.Cid", "=", column("Customer.Cid")),
            ),
            io=orders.io,
        )
        expected = orders.num_blocks + orders.num_blocks * customers.num_blocks
        assert database.io.reads == expected

    def test_model_agrees_given_true_stats(self, workload, database):
        """Feeding the *measured* table sizes into the cost model predicts
        the executor's I/O for a join exactly."""
        orders = database.table("Order")
        customers = database.table("Customer")
        statistics = paper_statistics()
        statistics.set_relation("Order", orders.cardinality, orders.num_blocks)
        statistics.set_relation(
            "Customer", customers.cardinality, customers.num_blocks
        )
        estimator = CardinalityEstimator(statistics)

        from repro.algebra.operators import Join, Relation

        plan = Join(
            Relation("Order", orders.schema),
            Relation("Customer", customers.schema),
            compare("Order.Cid", "=", column("Customer.Cid")),
        )
        predicted = NestedLoopCostModel().local_cost(plan, estimator)
        database.io.reset()
        execute_operator(
            NestedLoopJoin(
                scan_of(orders),
                scan_of(customers),
                compare("Order.Cid", "=", column("Customer.Cid")),
            ),
            io=orders.io,
        )
        assert database.io.reads == predicted


class TestEndToEnd:
    def test_scaled_prediction_tracks_measurement(self, workload, database):
        """At 5% scale, predicted and measured Q4 I/O agree within 2x.

        (Exact agreement is impossible: the estimator works from Table 1
        statistics, the executor from sampled data.)
        """
        statistics = paper_statistics()
        for name in workload.catalog.relation_names:
            table = database.table(name)
            statistics.set_relation(name, table.cardinality, table.num_blocks)
        estimator = CardinalityEstimator(statistics)

        plan = parse_query(workload.query("Q4").sql, workload.catalog)
        predicted = AnnotatedPlan(plan, estimator).total_cost
        engine = ExecutionEngine(database)
        _, io = engine.run(plan)
        assert predicted / 2 <= io.reads <= predicted * 2

    def test_output_cardinality_tracks_estimate(self, workload, database):
        statistics = paper_statistics()
        for name in workload.catalog.relation_names:
            table = database.table(name)
            statistics.set_relation(name, table.cardinality, table.num_blocks)
        # Join selectivity scales with the key domain: at 5% scale every
        # order still matches exactly one of the 1000 customers.
        statistics.set_join_selectivity(
            "Order.Cid",
            "Customer.Cid",
            1.0 / database.table("Customer").cardinality,
        )
        estimator = CardinalityEstimator(statistics)

        plan = parse_query(workload.query("Q4").sql, workload.catalog)
        predicted = estimator.estimate(plan).cardinality
        result, _ = ExecutionEngine(database).run(plan)
        assert predicted == pytest.approx(result.cardinality, rel=0.2)
