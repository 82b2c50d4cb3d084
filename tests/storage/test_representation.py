"""The column-major ``Table`` against a plain list-of-dicts model.

Random interleavings of every operation that reads or writes a table's
storage run on a :class:`Table` and on a model that keeps rows as a list
of dicts (the representation the table had before it stored columns).
After every step the two must agree on row order (``rows()`` and
``scan()``), removed rows, write-hook payloads, cardinality, block count
and charged I/O.  The same trajectories also run through a
:class:`FaultyTable` proxy sharing the table's storage: a write aborted
by an injected fault must leave no trace.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.catalog.datatypes import DataType
from repro.catalog.schema import Attribute, RelationSchema
from repro.errors import StorageFault
from repro.resilience.faults import SCOPE_ALL, FaultInjector, FaultPolicy, FaultyTable
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.table import Table

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = RelationSchema(
    "T",
    [
        Attribute("k", DataType.INTEGER),
        Attribute("v", DataType.STRING),
        Attribute("x", DataType.FLOAT),
    ],
)
TYPES = {"k": DataType.INTEGER, "v": DataType.STRING, "x": DataType.FLOAT}

#: A small value domain, so inserts repeat rows and deletes both hit and miss.
VALUES = st.fixed_dictionaries(
    {
        "k": st.sampled_from([None, 0, 1, 2]),
        "v": st.sampled_from([None, "a", "b"]),
        "x": st.sampled_from([None, 1, 2, 2.0, 0.5]),
    }
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), VALUES, st.booleans(), st.booleans()),
        st.tuples(
            st.just("insert_many"),
            st.lists(VALUES, max_size=6),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(
            st.just("delete_many"),
            st.lists(VALUES, max_size=4),
            st.booleans(),
            st.booleans(),
        ),
        st.tuples(st.just("scan"), st.booleans()),
        st.tuples(st.just("clear")),
        st.tuples(st.just("qualified"), st.sampled_from([None, "U"])),
        st.tuples(st.just("copy")),
    ),
    max_size=25,
)


class Model:
    """The old row store: validated dicts in insertion order."""

    def __init__(self, blocking_factor: float):
        self.blocking_factor = blocking_factor
        self.relation = "T"
        self.names = {short: short for short in TYPES}  # short -> stored name
        self.rows = []
        self.reads = 0
        self.writes = 0
        self.hooked = []

    def blocks(self, count: int) -> int:
        return math.ceil(count / self.blocking_factor) if count else 0

    def normalize(self, values):
        return {
            self.names[short]: TYPES[short].validate(values[short])
            for short in TYPES
        }

    def insert(self, values, count_io):
        row = self.normalize(values)
        self.rows.append(row)
        self.writes += 1 if count_io else 0
        self.hooked.append(("insert", [dict(row)]))

    def insert_many(self, batch, count_io):
        rows = [self.normalize(values) for values in batch]
        if not rows:
            return 0
        self.rows.extend(rows)
        self.writes += self.blocks(len(rows)) if count_io else 0
        self.hooked.append(("insert", [dict(row) for row in rows]))
        return len(rows)

    def delete_many(self, batch, count_io):
        wanted = [self.normalize(values) for values in batch]
        if not wanted:
            return []
        self.reads += self.blocks(len(self.rows)) if count_io else 0
        kept, removed = [], []
        for row in self.rows:
            if row in wanted:
                wanted.remove(row)
                removed.append(row)
            else:
                kept.append(row)
        if removed:
            self.rows = kept
            self.writes += self.blocks(len(removed)) if count_io else 0
            self.hooked.append(("delete", [dict(row) for row in removed]))
        return removed

    def scan(self, count_io):
        self.reads += self.blocks(len(self.rows)) if count_io else 0
        return list(self.rows)

    def qualified(self, relation):
        self.relation = relation or self.relation
        names = {short: f"{self.relation}.{short}" for short in TYPES}
        self.rows = [
            {names[short]: row[self.names[short]] for short in TYPES}
            for row in self.rows
        ]
        self.names = names


def keyed(values, model, qualified_names):
    """``values`` keyed by short or by the table's stored names."""
    if not qualified_names:
        return dict(values)
    return {model.names[short]: value for short, value in values.items()}


def assert_agrees(table, model):
    # ``repr`` also pins value types (an INTEGER 2 is not a FLOAT 2.0).
    assert repr(table.rows()) == repr(model.rows)
    assert table.cardinality == len(table) == len(model.rows)
    assert table.num_blocks == model.blocks(len(model.rows))
    assert (table.io.reads, table.io.writes) == (model.reads, model.writes)
    columns = table.columns()
    assert len(columns) == len(table.schema.attribute_names)
    for name, column in zip(table.schema.attribute_names, columns):
        assert column == [row[name] for row in model.rows]


def run(ops, faults):
    """Apply ``ops`` to a table (through a fault proxy when ``faults``)
    and to the model, checking agreement after every step."""
    model = Model(blocking_factor=2)
    hooked = []
    snapshots = []  # (table, rows at copy time): copies are snapshots
    injector = (
        FaultInjector(
            FaultPolicy(storage_failure_rate=0.3, scope=SCOPE_ALL, seed=len(ops))
        )
        if faults
        else None
    )

    def adopt(table):
        table.write_hook = lambda op, rows: hooked.append((op, rows))
        if injector is None:
            return table, table
        return table, FaultyTable(table, "T", injector)

    table, handle = adopt(Table(SCHEMA, blocking_factor=2))
    for op in ops:
        kind = op[0]
        try:
            if kind == "insert":
                _, values, qualified_names, count_io = op
                handle.insert(keyed(values, model, qualified_names), count_io)
                model.insert(values, count_io)
            elif kind == "insert_many":
                _, batch, qualified_names, count_io = op
                added = handle.insert_many(
                    (keyed(values, model, qualified_names) for values in batch),
                    count_io,
                )
                assert added == model.insert_many(batch, count_io)
            elif kind == "delete_many":
                _, batch, qualified_names, count_io = op
                removed = handle.delete_many(
                    [keyed(values, model, qualified_names) for values in batch],
                    count_io,
                )
                assert repr(removed) == repr(model.delete_many(batch, count_io))
            elif kind == "scan":
                _, count_io = op
                scanned = list(handle.scan(count_io))
                assert repr(scanned) == repr(model.scan(count_io))
            elif kind == "clear":
                handle.clear()
                model.rows = []
            elif kind == "qualified":
                out = handle.qualified(op[1])
                assert out.io is table.io
                model.qualified(op[1])
                table, handle = adopt(out)
            elif kind == "copy":
                out = handle.copy()
                assert out.io is not table.io
                assert (out.io.reads, out.io.writes) == (0, 0)
                snapshots.append((table, repr(model.rows)))
                model.reads = model.writes = 0
                table, handle = adopt(out)
        except StorageFault:
            assert injector is not None  # aborted: the model stays put
        assert_agrees(table, model)
        assert repr(hooked) == repr(model.hooked)
    for old, rows in snapshots:
        # The original kept its rows while every later write hit the copy.
        assert repr(old.rows()) == rows


@SETTINGS
@given(OPS)
def test_table_matches_list_of_dicts_model(ops):
    run(ops, faults=False)


@SETTINGS
@given(OPS)
def test_fault_proxy_shares_storage_and_aborts_cleanly(ops):
    run(ops, faults=True)


def test_column_read_charges_no_io():
    table = Table(SCHEMA, blocking_factor=2)
    table.insert_many([{"k": i, "v": "a", "x": i} for i in range(5)])
    before = table.io.snapshot()
    assert table.columns()[0] == [0, 1, 2, 3, 4]
    assert table.columns()[2] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert table.io.since(before).total == 0


class TestDeleteInPlace:
    """``delete_many`` removes only the matched positions."""

    @staticmethod
    def big_table(rows: int = 10_000) -> Table:
        table = Table(SCHEMA, blocking_factor=10)
        table.insert_many(
            [{"k": i % 2500, "v": "abc"[i % 3], "x": float(i)} for i in range(rows)]
        )
        return table

    def test_small_delete_keeps_every_column_list(self):
        table = self.big_table()
        hooked = []
        table.write_hook = lambda op, rows: hooked.append((op, rows))
        identities = [id(column) for column in table.columns()]
        before = table.io.snapshot()
        doomed = [
            {"k": i % 2500, "v": "abc"[i % 3], "x": float(i)}
            for i in (9000, 7, 4242, 8)
        ]
        removed = table.delete_many(doomed)
        # Not rebuilt: the same list objects, four rows shorter.
        assert [id(column) for column in table.columns()] == identities
        assert table.cardinality == 9_996
        # Stored order of the matches, one read per block scanned plus
        # one write per block of removed rows, and the hook sees them.
        assert [row["x"] for row in removed] == [7.0, 8.0, 4242.0, 9000.0]
        io = table.io.since(before)
        assert (io.reads, io.writes) == (1_000, 1)
        assert hooked == [("delete", removed)]
        remaining = {int(x) for x in table.columns()[2]}
        assert sorted(set(range(10_000)) - remaining) == [7, 8, 4242, 9000]

    def test_bag_semantics_first_occurrences(self):
        table = Table(SCHEMA, blocking_factor=2)
        table.insert_many([{"k": i % 3, "v": "a", "x": 0.0} for i in range(300)])
        removed = table.delete_many(
            [{"k": 1, "v": "a", "x": 0.0}] * 2 + [{"k": 9, "v": "a", "x": 0.0}]
        )
        assert len(removed) == 2  # the unmatched row is skipped
        assert table.cardinality == 298
        assert table.columns()[0][:6] == [0, 2, 0, 2, 0, 1]

    def test_large_delete_matches_model(self):
        table = self.big_table(400)
        identities = [id(column) for column in table.columns()]
        doomed = [row for row in table.rows() if row["k"] % 2 == 0]
        expected = [row for row in table.rows() if row["k"] % 2 == 1]
        removed = table.delete_many(doomed)
        assert removed == doomed
        assert table.rows() == expected
        assert [id(column) for column in table.columns()] == identities


class TestIndexProbes:
    """A probe builds only its matches and draws one fault decision."""

    @pytest.fixture
    def table(self):
        table = Table(SCHEMA, blocking_factor=10)
        table.insert_many([{"k": i % 5, "v": "a", "x": i} for i in range(50)])
        return table

    @staticmethod
    def forbid_whole_table_reads(table, monkeypatch):
        def whole_table(*args, **kwargs):
            raise AssertionError("an index probe materialized the whole table")

        monkeypatch.setattr(table, "rows", whole_table)
        monkeypatch.setattr(table, "scan", whole_table)

    def test_hash_lookup_builds_only_matches(self, table, monkeypatch):
        index = HashIndex(table, "k")
        self.forbid_whole_table_reads(table, monkeypatch)
        table.io.reset()
        matches = index.lookup(3)
        assert [row["k"] for row in matches] == [3] * 10
        assert [row["x"] for row in matches] == [float(i) for i in range(3, 50, 5)]
        assert table.io.reads == 2  # probe + ceil(10 / 10)

    def test_sorted_range_builds_only_matches(self, table, monkeypatch):
        index = SortedIndex(table, "x")
        self.forbid_whole_table_reads(table, monkeypatch)
        table.io.reset()
        rows = index.range(low=10, high=14)
        assert [row["x"] for row in rows] == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert table.io.reads == 2

    def test_one_fault_draw_per_probe(self, table):
        injector = FaultInjector(FaultPolicy(scope=SCOPE_ALL))
        draws = []
        original = injector.maybe_fail_storage
        injector.maybe_fail_storage = lambda name, op: (
            draws.append(op), original(name, op)
        )
        proxy = FaultyTable(table, "T", injector)
        index = HashIndex(proxy, "k")
        assert draws == ["read"]
        index.lookup(1)
        index.lookup(99)
        assert draws == ["read", "read", "read"]
        ranged = SortedIndex(proxy, "x")
        ranged.range(low=1, high=2)
        assert draws == ["read"] * 5
