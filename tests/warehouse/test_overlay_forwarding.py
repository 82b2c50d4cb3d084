"""`OverlayDatabase` forwarding contracts.

The overlay substitutes selected tables and reads everything else
through the real database — sharing its I/O counter and, critically,
its fault injector, so a delta or shard-union evaluation fails (and is
accounted) exactly like a direct one.  The composition test drives one
sharded refresh with overlay + :class:`ShardUnionTable` + an attached
injector all active at once."""

import datetime

import pytest

from repro.errors import StorageFault
from repro.resilience.faults import (
    FaultPolicy,
    FaultyTable,
    SCOPE_ALL,
)
from repro.storage.table import Table
from repro.warehouse.maintenance import OverlayDatabase
from repro.warehouse.sharding import ShardUnionTable

from tests.warehouse.test_sharding import build_sharded, canonical


def _plain_warehouse():
    warehouse, _, rows = build_sharded(materialize=False)
    return warehouse, rows


class TestOverlayUnit:
    def test_override_wins_and_rest_reads_through(self):
        warehouse, _ = _plain_warehouse()
        database = warehouse.database
        base = database.table("Order")
        substitute = Table(base.schema, base.blocking_factor)
        overlay = OverlayDatabase(database, {"Order": substitute})
        assert overlay.table("Order") is substitute
        assert overlay.table("Customer").rows() == (
            database.table("Customer").rows()
        )
        assert "Order" in overlay and "Customer" in overlay
        assert "NoSuch" not in overlay

    def test_io_counter_is_shared(self):
        warehouse, _ = _plain_warehouse()
        database = warehouse.database
        overlay = OverlayDatabase(database, {})
        assert overlay.io is database.io
        before = database.io.snapshot()
        list(overlay.table("Customer").scan())
        assert database.io.since(before).reads > 0

    def test_fault_injector_forwarded_to_read_through(self):
        warehouse, _ = _plain_warehouse()
        warehouse.attach_faults(
            FaultPolicy(storage_failure_rate=1.0, scope=SCOPE_ALL, seed=0)
        )
        database = warehouse.database
        base_schema = database._tables["Order"].schema
        substitute = Table(base_schema, 10)
        overlay = OverlayDatabase(database, {"Order": substitute})
        # Read-through tables arrive wrapped; overrides stay raw (a
        # delta table is transient scratch space, not stored state).
        assert isinstance(overlay.table("Customer"), FaultyTable)
        assert overlay.table("Order") is substitute
        with pytest.raises(StorageFault):
            overlay.table("Customer").rows()


class TestShardedRefreshComposition:
    DELTA = [
        {
            "Pid": 0,
            "Cid": 0,
            "quantity": 7,
            "date": datetime.date(1996, 5, 5),
        }
    ]

    def test_one_refresh_composes_overlay_union_and_injector(self):
        """apply_update → serve(refresh) on a sharded warehouse with an
        injector attached: the shard rebuild evaluates through an
        overlay whose overrides are ShardUnionTables, and every
        read-through consults the injector (counted via delay draws)."""
        warehouse, _, _ = build_sharded()
        warehouse.refresh_partitions()
        injector = warehouse.attach_faults(
            FaultPolicy(delay_rate=1.0, scope=SCOPE_ALL, seed=5)
        )
        warehouse.apply_update("Order", self.DELTA, policy="defer")
        manager = warehouse.sharding
        stale = [
            view
            for view in manager.shardable_views()
            if manager.copartition_base(view) == "Order"
            and manager.stale_shards(view)
        ]
        assert stale, "the deferred update left no shard stale"

        result = warehouse.serve("Q4", freshness="refresh")
        # The injector was consulted during the refresh/serve: every
        # instrumented table operation drew a (delay-only) decision.
        assert injector.delays > 0
        assert injector.storage_faults == 0
        # The shard-union substitution actually happened.
        assert result.partitions_read
        for view in stale:
            assert manager.stale_shards(view) == ()

        # And the faulted, sharded answer matches the unpruned baseline.
        warehouse.detach_faults()
        unpruned = warehouse.serve("Q4", prune=False)
        assert canonical(result.table) == canonical(unpruned.table)

    def test_union_tables_built_from_wrapped_shards(self):
        warehouse, _, _ = build_sharded()
        warehouse.refresh_partitions()
        injector = warehouse.attach_faults(
            FaultPolicy(delay_rate=1.0, scope=SCOPE_ALL, seed=5)
        )
        before = injector.delays
        result = warehouse.serve("Q2")
        assert isinstance(result.table, Table)
        assert injector.delays > before
        assert result.partitions_read  # pruned scan used shard unions
