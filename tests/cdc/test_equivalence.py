"""The incremental-maintenance correctness property.

For a random interleaving of inserts, deletes and drains over the
paper's Table-2 workload, maintaining the views must leave every
materialized view bit-identical to a full recomputation of its plan —
under both the vectorized and the reference engine, and with identical
contents across the two (both write modes go through the shared overlay
evaluation, so engine choice must not leak into stored rows).  Two write
modes share the property:

* ``stream`` — stream inserts and deletes, drained by the change-log
  maintainer;
* ``batch`` — ``apply_update(policy="incremental")`` inserts and
  ``apply_delete(policy="recompute")`` deletes, maintained inline (drain
  steps are no-ops)."""

import datetime

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdc import StreamingPolicy
from repro.mvpp.config import DesignConfig
from repro.warehouse import DataWarehouse
from repro.workload import paper_workload
from repro.workload.datagen import paper_rows

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = ("vectorized", "reference")

#: (insert policy, delete policy) per write mode.
WRITE_POLICIES = {
    "stream": ("stream", "stream"),
    "batch": ("incremental", "recompute"),
}

ROW_MAKERS = {
    "Order": lambda salt: {
        "Pid": salt % 300,
        "Cid": salt % 200,
        "quantity": salt % 200 + 1,
        "date": datetime.date(1996, 10, 1 + salt % 28),
    },
    "Customer": lambda salt: {
        "Cid": salt % 200,
        "name": f"C{salt}",
        "city": f"City{salt % 20}",
    },
}

OPS = st.lists(
    st.tuples(
        st.sampled_from(sorted(ROW_MAKERS)),
        st.sampled_from(["insert", "insert", "delete", "drain"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=12,
)

POLICIES = st.sampled_from(
    [
        StreamingPolicy(max_lag_records=10_000, coalesce_records=64),
        StreamingPolicy(max_lag_records=10_000, coalesce_records=1),
        StreamingPolicy(max_lag_records=2, coalesce_records=8),
    ]
)


def _multiset(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _build(engine):
    warehouse = DataWarehouse.from_workload(paper_workload(), engine=engine)
    warehouse.design(DesignConfig(seed=0))
    for relation, rows in sorted(paper_rows(scale=0.005, seed=23).items()):
        warehouse.load(relation, rows)
    warehouse.materialize()
    return warehouse


def _replay(engine, ops, policy, mode):
    """Run one trajectory; return {view: multiset} of final contents."""
    warehouse = _build(engine)
    insert_policy, delete_policy = WRITE_POLICIES[mode]
    if mode == "stream":
        warehouse.enable_streaming(policy)
    for relation, action, salt in ops:
        if action == "drain":
            if mode == "stream":
                warehouse.drain_changes()
        elif action == "insert":
            warehouse.apply_update(
                relation, [ROW_MAKERS[relation](salt)], policy=insert_policy
            )
        else:
            table = warehouse.database.table(relation)
            if table.cardinality == 0:
                continue
            victim = table.rows()[salt % table.cardinality]
            warehouse.apply_delete(relation, [victim], policy=delete_policy)
    if mode == "stream":
        warehouse.drain_changes()
        assert warehouse.streaming.max_lag() == 0
    assert warehouse.stale_views() == []

    contents = {}
    for view in warehouse.views:
        stored = _multiset(warehouse.database.table(view.name).rows())
        recomputed = _multiset(warehouse.engine.execute(view.plan).rows())
        assert stored == recomputed, (
            f"{engine}/{mode}: view {view.name} diverged from full recompute"
        )
        contents[view.name] = stored
    return contents


@SETTINGS
@given(ops=OPS, policy=POLICIES)
def test_streaming_equals_recompute_on_both_engines(ops, policy):
    for mode in WRITE_POLICIES:
        results = {
            engine: _replay(engine, ops, policy, mode) for engine in ENGINES
        }
        assert results["vectorized"] == results["reference"], (
            f"engines disagree on {mode}-maintained view contents"
        )
