"""Unit tests for recompute and incremental view maintenance."""

import pytest

from repro.errors import WarehouseError
from repro.executor.engine import load_database
from repro.sql.translator import parse_query
from repro.optimizer.heuristics import optimize_query
from repro.warehouse.maintenance import INCREMENTAL, RECOMPUTE, ViewMaintainer
from repro.warehouse.view import MaterializedView
from repro.workload.datagen import paper_rows


@pytest.fixture()
def database(workload):
    return load_database(paper_rows(scale=0.02, seed=5), workload.catalog)


@pytest.fixture()
def view(workload, estimator):
    plan = optimize_query(
        parse_query(
            "SELECT Customer.city, date FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid",
            workload.catalog,
        ),
        estimator,
    )
    return MaterializedView(name="mv_oc", plan=plan)


def brute_force_rows(database, view):
    from repro.executor.engine import ExecutionEngine

    return sorted(
        tuple(sorted(r.items()))
        for r in ExecutionEngine(database).execute(view.plan).rows()
    )


class TestMaterialize:
    def test_contents_match_plan(self, database, view):
        maintainer = ViewMaintainer(database)
        report = maintainer.materialize(view)
        assert report.policy == RECOMPUTE
        stored = database.table("mv_oc")
        assert stored.cardinality == report.rows_after
        assert sorted(
            tuple(sorted(r.items())) for r in stored.rows()
        ) == brute_force_rows(database, view)

    def test_io_charged_including_write(self, database, view):
        maintainer = ViewMaintainer(database)
        report = maintainer.materialize(view)
        assert report.io.reads > 0
        assert report.io.writes >= database.table("mv_oc").num_blocks


class TestIncremental:
    def test_delta_insert_matches_recompute(self, database, view):
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)

        delta = [
            {"Pid": 1, "Cid": 5, "quantity": 42, "date": datetime.date(1996, 9, 9)},
            {"Pid": 2, "Cid": 6, "quantity": 7, "date": datetime.date(1996, 3, 3)},
        ]
        database.table("Order").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Order", delta)
        assert report.policy == INCREMENTAL

        incremental_rows = sorted(
            tuple(sorted(r.items())) for r in database.table("mv_oc").rows()
        )
        assert incremental_rows == brute_force_rows(database, view)

    def test_incremental_cheaper_than_recompute(self, database, view):
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        delta = [
            {"Pid": 3, "Cid": 1, "quantity": 9, "date": datetime.date(1996, 5, 5)}
        ]
        database.table("Order").insert_many(delta)
        incremental = maintainer.incremental_refresh(view, "Order", delta)
        recompute = maintainer.materialize(view)
        assert incremental.io.total < recompute.io.total

    def test_unrelated_relation_is_noop(self, database, view):
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        report = maintainer.incremental_refresh(view, "Part", [])
        assert report.io.total == 0

    def test_requires_materialization_first(self, database, view):
        maintainer = ViewMaintainer(database)
        with pytest.raises(WarehouseError):
            maintainer.incremental_refresh(view, "Order", [])

    def test_self_join_views_fall_back_to_recompute(self, database, workload):
        """Regression: the overlay substitutes the delta for *every*
        occurrence of the updated relation, so a self-join view would be
        maintained as ``δR ⋈ δR`` instead of ``δR ⋈ R ∪ R_old ⋈ δR`` —
        silently dropping almost all new rows.  Multiple references must
        fall back to recomputation."""
        import datetime

        from repro.algebra.operators import Join, Project, Relation

        schema = workload.catalog.schema("Order").qualify()
        order = Relation("Order", schema)
        plan = Join(
            Project(order, ["Order.Pid"]),
            Project(order, ["Order.Cid"]),
            None,
        )
        view = MaterializedView(name="mv_self", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)

        delta = [
            {"Pid": 4, "Cid": 2, "quantity": 3, "date": datetime.date(1996, 1, 1)}
        ]
        database.table("Order").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Order", delta)

        assert report.policy == RECOMPUTE  # fell back — delta rule is unsound
        stored = sorted(
            tuple(sorted(r.items())) for r in database.table("mv_self").rows()
        )
        assert stored == brute_force_rows(database, view)

    def test_distinct_projection_does_not_accrue_duplicates(
        self, database, workload, estimator
    ):
        """A duplicate-eliminating projection view must stay a set: a
        delta row projecting onto an already-stored tuple is dropped."""
        plan = optimize_query(
            parse_query(
                "SELECT DISTINCT Customer.city FROM Customer",
                workload.catalog,
            ),
            estimator,
        )
        view = MaterializedView(name="mv_cities", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        cities_before = {r["Customer.city"] for r in database.table("mv_cities").rows()}
        existing_city = sorted(cities_before)[0]

        delta = [
            {"Cid": 20_001, "name": "A", "city": existing_city},
            {"Cid": 20_002, "name": "B", "city": "Neverwhere"},
        ]
        database.table("Customer").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Customer", delta)

        assert report.policy == INCREMENTAL
        stored = [r["Customer.city"] for r in database.table("mv_cities").rows()]
        assert len(stored) == len(set(stored)), "duplicates accrued"
        assert set(stored) == cities_before | {"Neverwhere"}
        assert sorted(
            tuple(sorted(r.items())) for r in database.table("mv_cities").rows()
        ) == brute_force_rows(database, view)

    def test_incremental_refresh_swaps_atomically(self, database, view):
        """The delta is applied to a shadow copy that replaces the stored
        table only once complete — a reader holding the old table never
        observes rows appearing mid-refresh."""
        import datetime

        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        old_table = database.table("mv_oc")
        rows_before = list(old_table.rows())

        delta = [
            {"Pid": 1, "Cid": 2, "quantity": 5, "date": datetime.date(1996, 7, 7)}
        ]
        database.table("Order").insert_many(delta)
        maintainer.incremental_refresh(view, "Order", delta)

        new_table = database.table("mv_oc")
        assert new_table is not old_table
        assert old_table.rows() == rows_before  # old snapshot untouched
        assert new_table.cardinality > old_table.cardinality

    def test_aggregate_views_fall_back_to_recompute(self, database, workload, estimator):
        plan = optimize_query(
            parse_query(
                "SELECT Customer.city, COUNT(*) AS n FROM Customer GROUP BY Customer.city",
                workload.catalog,
            ),
            estimator,
        )
        view = MaterializedView(name="mv_agg", plan=plan)
        maintainer = ViewMaintainer(database)
        maintainer.materialize(view)
        delta = [{"Cid": 10_001, "name": "X", "city": "LA"}]
        database.table("Customer").insert_many(delta)
        report = maintainer.incremental_refresh(view, "Customer", delta)
        assert report.policy == RECOMPUTE  # fell back
        stored = {
            (r["Customer.city"], r["n"]) for r in database.table("mv_agg").rows()
        }
        recomputed = brute_force_rows(database, view)
        assert stored == {
            (dict(r)["Customer.city"], dict(r)["n"]) for r in recomputed
        }


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_empty_incremental_delta_costs_nothing(workload, engine):
    """An empty batch delta must not re-evaluate the view plan or swap the
    stored table — the same early return the streaming drain takes."""
    from repro.storage.block import IOSnapshot
    from repro.warehouse import DataWarehouse

    warehouse = DataWarehouse.from_workload(
        workload, engine=engine, join_method="hash"
    )
    warehouse.design()
    for relation, rows in sorted(paper_rows(scale=0.02, seed=0).items()):
        warehouse.load(relation, rows)
    warehouse.materialize()
    stored = {
        view.name: warehouse.database.table(view.name)
        for view in warehouse.views
    }

    reports = warehouse.apply_update("Order", [], policy=INCREMENTAL)

    assert reports, "the paper design has views over Order"
    for report in reports:
        assert report.policy == INCREMENTAL
        assert report.io == IOSnapshot(0, 0), report
        assert warehouse.database.table(report.view) is stored[report.view]
        assert report.rows_after == stored[report.view].cardinality
