"""In-memory block-structured heap tables.

A table stores its rows column-major: one Python list per schema
attribute, aligned by row position (``None`` is SQL NULL).  Rows are
exchanged as dictionaries keyed by the schema's attribute names (which
are qualified, e.g. ``"Product.Pid"``, once a table participates in
query processing); :meth:`Table.rows` and :meth:`Table.scan` build them
on demand, and the vectorized executor reads the columns directly.
Physically, rows are grouped into blocks of ``blocking_factor`` rows;
every scan charges one read per block to the table's :class:`IOCounter`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.schema import RelationSchema
from repro.errors import StorageError
from repro.storage.block import IOCounter, block_count

#: Rows per block when the caller does not specify a blocking factor.
DEFAULT_BLOCKING_FACTOR = 10


class Table:
    """A heap table: a schema, column-major rows, and a blocking factor."""

    #: Optional change-capture callback ``hook(op, rows)`` with ``op`` in
    #: ``("insert", "delete")`` and ``rows`` the normalized rows written
    #: or removed.  Fired *after* a successful mutation (a fault-aborted
    #: write emits nothing), so a change log never records a write that
    #: did not happen.  Class-level default keeps proxies cheap.
    write_hook = None

    def __init__(
        self,
        schema: RelationSchema,
        blocking_factor: float = DEFAULT_BLOCKING_FACTOR,
        io: Optional[IOCounter] = None,
    ):
        if blocking_factor <= 0:
            raise StorageError(f"blocking factor must be positive: {blocking_factor}")
        self.schema = schema
        self.blocking_factor = blocking_factor
        self.io = io if io is not None else IOCounter()
        # One list per attribute.  Mutations rebind or extend the inner
        # lists but never rebind this outer list, so a proxy sharing it
        # (FaultyTable) always sees the same rows.
        self._columns: List[List[Any]] = [[] for _ in schema.attribute_names]

    @staticmethod
    def _adopt(
        schema: RelationSchema,
        blocking_factor: float,
        columns: List[List[Any]],
        io: Optional[IOCounter] = None,
    ) -> "Table":
        """A table that takes ``columns`` (one list per attribute, in
        schema order) as its storage, without copying or re-validating.

        Trusted callers only: the values must already be valid for the
        schema, e.g. engine results computed from stored tables.
        """
        table = Table(schema, blocking_factor, io)
        table._columns = columns
        return table

    # ---------------------------------------------------------------- sizing
    @property
    def cardinality(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_blocks(self) -> int:
        return block_count(self.cardinality, self.blocking_factor)

    def __len__(self) -> int:
        return self.cardinality

    # --------------------------------------------------------------- loading
    def insert(self, row: Mapping[str, Any], count_io: bool = False) -> None:
        """Insert one row (validated against the schema's types)."""
        values = self._normalize(row)
        for column, value in zip(self._columns, values):
            column.append(value)
        if count_io:
            self.io.write_blocks(1)
        if self.write_hook is not None:
            self.write_hook("insert", self._as_dicts([values]))

    def insert_many(self, rows: Iterable[Mapping[str, Any]], count_io: bool = True) -> int:
        """Bulk insert; charges one write per *block* appended."""
        added = [self._normalize(row) for row in rows]
        if not added:
            return 0
        for column, values in zip(self._columns, zip(*added)):
            column.extend(values)
        if count_io:
            self.io.write_blocks(block_count(len(added), self.blocking_factor))
        if self.write_hook is not None:
            self.write_hook("insert", self._as_dicts(added))
        return len(added)

    def delete_many(
        self, rows: Iterable[Mapping[str, Any]], count_io: bool = True
    ) -> List[Dict[str, Any]]:
        """Remove one stored occurrence per given row (bag semantics).

        Rows are matched after normalization (short or qualified column
        names accepted), so the caller can pass exactly what it inserted.
        Returns the rows actually removed — a row with no stored match is
        skipped, not an error.  Charges one read per block scanned plus
        one write per block of removed rows.
        """
        wanted: Dict[tuple, int] = {}
        for row in rows:
            key = self._normalize(row)
            wanted[key] = wanted.get(key, 0) + 1
        if not wanted:
            return []
        if count_io:
            self.io.read_blocks(self.num_blocks)
        # Match in stored order; stop once every wanted row is found.
        columns = self._columns
        remaining = sum(wanted.values())
        positions: List[int] = []
        removed: List[tuple] = []
        for position, stored in enumerate(zip(*columns)):
            if wanted.get(stored, 0) > 0:
                wanted[stored] -= 1
                positions.append(position)
                removed.append(stored)
                remaining -= 1
                if not remaining:
                    break
        if removed:
            # Delete in place: the column lists keep their identity (a
            # FaultyTable proxy shares them), and no reader holds them
            # across a write — results copy, and indexes and cached build
            # sides are invalidated on every write.
            for column in columns:
                for position in reversed(positions):
                    del column[position]
            if count_io:
                self.io.write_blocks(
                    block_count(len(removed), self.blocking_factor)
                )
            removed_rows = self._as_dicts(removed)
            if self.write_hook is not None:
                self.write_hook("delete", removed_rows)
            return removed_rows
        return []

    def _normalize(self, row: Mapping[str, Any]) -> tuple:
        """``row``'s validated values in schema order."""
        values = []
        for attribute in self.schema:
            if attribute.name in row:
                value = row[attribute.name]
            elif attribute.short_name in row:
                value = row[attribute.short_name]
            else:
                raise StorageError(
                    f"row missing attribute {attribute.name!r}: {sorted(row)}"
                )
            values.append(attribute.datatype.validate(value))
        return tuple(values)

    def _as_dicts(self, tuples: Iterable[Sequence[Any]]) -> List[Dict[str, Any]]:
        names = self.schema.attribute_names
        return [dict(zip(names, values)) for values in tuples]

    # --------------------------------------------------------------- reading
    def scan(self, count_io: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield every row; charges one read per block when ``count_io``."""
        if count_io:
            self.io.read_blocks(self.num_blocks)
        names = self.schema.attribute_names
        for values in zip(*self._columns):
            yield dict(zip(names, values))

    def columns(self) -> List[List[Any]]:
        """The column lists in schema order, for read-only access.

        No I/O is charged (callers charge at their own boundary); a
        fault-injecting proxy draws its read fault here, so :meth:`rows`,
        :meth:`copy` and index probes all read through this one point.
        """
        return list(self._columns)

    def rows(self) -> List[Dict[str, Any]]:
        """All rows without I/O accounting (inspection/testing only)."""
        return self._as_dicts(zip(*self.columns()))

    def copy(self, io: Optional[IOCounter] = None) -> "Table":
        """A plain table holding a snapshot of this table's rows.

        Copies the columns without re-validation, charges no I/O, fires
        no write hook, and charges later work to ``io`` (a fresh counter
        when ``None``).
        """
        return Table._adopt(
            self.schema,
            self.blocking_factor,
            [list(column) for column in self.columns()],
            io,
        )

    def clear(self) -> None:
        self._columns[:] = [[] for _ in self._columns]

    def qualified(self, relation_name: Optional[str] = None) -> "Table":
        """A copy of this table with attribute names qualified.

        Used when a base table loaded with short column names enters
        query processing, where plans reference ``Relation.attr`` names.
        The returned table shares this table's :class:`IOCounter`.
        """
        out = self.copy(self.io)
        out.schema = self.schema.rename(relation_name or self.schema.name).qualify()
        return out

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name}, rows={self.cardinality}, "
            f"blocks={self.num_blocks})"
        )


def table_from_rows(
    schema: RelationSchema,
    rows: Sequence[Mapping[str, Any]],
    blocking_factor: float = DEFAULT_BLOCKING_FACTOR,
    io: Optional[IOCounter] = None,
) -> Table:
    """Build a table from rows without charging load I/O."""
    table = Table(schema, blocking_factor, io)
    table.insert_many(rows, count_io=False)
    return table


def row_multiset(rows: Iterable[Mapping[str, Any]]) -> List[Tuple[Tuple[str, Any], ...]]:
    """``rows`` as a sorted list of sorted items: equal exactly when the two
    row bags are (the lifecycle simulators' row-equality oracle)."""
    return sorted(tuple(sorted(row.items())) for row in rows)
