"""Unit tests for index management and index-nested-loop joins.

Backs the paper's Section-3.2 claim: an index built on a materialized
result makes probing it cheaper than rescanning, so materialization is
never a loss at query time.
"""

import pytest

from repro.algebra.expressions import column, compare
from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import ExecutionError
from repro.executor.engine import (
    HASH,
    INDEX_NESTED_LOOP,
    Database,
    ExecutionEngine,
    load_database,
)
from repro.executor.indexes import IndexManager, index_nested_loop_join
from repro.executor.physical import (
    NestedLoopJoin,
    execute_operator,
    scan_of,
)
from repro.storage.table import Table
from repro.workload.datagen import paper_rows


def make_table(name, cols, rows, bf=10, io=None):
    schema = RelationSchema(
        name, [Attribute(f"{name}.{c}", t) for c, t in cols]
    )
    table = Table(schema, bf, io=io)
    for row in rows:
        table.insert(row)
    return table


@pytest.fixture
def orders():
    return make_table(
        "Order",
        [("id", DataType.INTEGER), ("cid", DataType.INTEGER)],
        [{"id": i, "cid": i % 6} for i in range(30)],
        bf=5,
    )


@pytest.fixture
def customers(orders):
    return make_table(
        "Customer",
        [("cid", DataType.INTEGER), ("city", DataType.STRING)],
        [{"cid": i, "city": f"C{i}"} for i in range(6)],
        bf=3,
        io=orders.io,
    )


class TestIndexManager:
    def test_build_once(self, customers):
        manager = IndexManager()
        a = manager.ensure("Customer", customers, "cid")
        b = manager.ensure("Customer", customers, "cid")
        assert a is b
        assert len(manager) == 1

    def test_rebuild_after_growth(self, customers):
        manager = IndexManager()
        a = manager.ensure("Customer", customers, "cid")
        customers.insert({"cid": 99, "city": "X"})
        b = manager.ensure("Customer", customers, "cid")
        assert a is not b
        assert b.lookup(99, count_io=False)

    def test_rebuild_after_table_replacement(self, customers):
        manager = IndexManager()
        a = manager.ensure("Customer", customers, "cid")
        replacement = make_table(
            "Customer",
            [("cid", DataType.INTEGER), ("city", DataType.STRING)],
            [{"cid": i, "city": "Y"} for i in range(6)],
        )
        b = manager.ensure("Customer", replacement, "cid")
        assert a is not b

    def test_invalidate(self, customers):
        manager = IndexManager()
        manager.ensure("Customer", customers, "cid")
        manager.invalidate("Customer")
        assert len(manager) == 0

    def test_build_charges_one_pass(self, customers):
        manager = IndexManager()
        customers.io.reset()
        manager.ensure("Customer", customers, "cid")
        assert customers.io.reads == customers.num_blocks


class TestIndexNestedLoopJoin:
    def test_matches_nested_loop(self, orders, customers):
        condition = compare("Order.cid", "=", column("Customer.cid"))
        reference = execute_operator(
            NestedLoopJoin(scan_of(orders), scan_of(customers), condition),
            io=orders.io,
        )
        index = IndexManager().ensure("Customer", customers, "cid")
        indexed = index_nested_loop_join(
            orders, index, ("Order.cid", "Customer.cid")
        )
        key = lambda t: sorted(  # noqa: E731
            tuple(sorted(r.items())) for r in t.rows()
        )
        assert key(reference) == key(indexed)

    def test_cheaper_than_nested_loop_on_large_inner(self, orders):
        """Index probes win once the inner relation is large: nested loop
        pays B(outer)·B(inner) while the index pays per-match blocks."""
        big_customers = make_table(
            "Customer",
            [("cid", DataType.INTEGER), ("city", DataType.STRING)],
            [{"cid": i, "city": f"C{i}"} for i in range(600)],
            bf=3,
            io=orders.io,
        )
        index = IndexManager().ensure("Customer", big_customers, "cid")
        orders.io.reset()
        index_nested_loop_join(orders, index, ("Order.cid", "Customer.cid"))
        indexed_io = orders.io.reads
        orders.io.reset()
        execute_operator(
            NestedLoopJoin(
                scan_of(orders),
                scan_of(big_customers),
                compare("Order.cid", "=", column("Customer.cid")),
            ),
            io=orders.io,
        )
        assert indexed_io < orders.io.reads

    def test_wrong_key_rejected(self, orders, customers):
        index = IndexManager().ensure("Customer", customers, "city")
        with pytest.raises(ExecutionError):
            index_nested_loop_join(
                orders, index, ("Order.cid", "Customer.cid")
            )

    def test_residual_applied(self, orders, customers):
        index = IndexManager().ensure("Customer", customers, "cid")
        result = index_nested_loop_join(
            orders,
            index,
            ("Order.cid", "Customer.cid"),
            residual=compare("Order.id", "<", 10),
        )
        assert result.cardinality == 10


class TestEngineIntegration:
    def test_index_engine_matches_hash(self, workload):
        database = load_database(paper_rows(scale=0.02, seed=17), workload.catalog)
        hash_engine = ExecutionEngine(database, HASH)
        index_engine = ExecutionEngine(database, INDEX_NESTED_LOOP)
        from repro.sql.translator import parse_query

        for name in ("Q1", "Q2", "Q3", "Q4"):
            plan = parse_query(workload.query(name).sql, workload.catalog)
            a, _ = hash_engine.run(plan)
            b, _ = index_engine.run(plan)
            key = lambda t: sorted(  # noqa: E731
                tuple(sorted(r.items())) for r in t.rows()
            )
            assert key(a) == key(b), name

    def test_unknown_method_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionEngine(Database(), "btree-magic")
