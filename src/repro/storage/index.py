"""Secondary indexes over heap tables.

The paper argues (Section 3.2) that an index can always be built on a
materialized intermediate result, guaranteeing a performance gain; these
index structures back that claim in the execution engine and in the
maintenance layer (delta joins probe indexes instead of rescanning).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Tuple

from repro.errors import StorageError
from repro.storage.block import block_count
from repro.storage.table import Table


class HashIndex:
    """Equality index: attribute value -> matching rows.

    Lookups charge ``ceil(matches / blocking_factor)`` block reads (the
    blocks holding the matches) plus one read for the index probe itself.
    """

    def __init__(self, table: Table, attribute: str):
        self.table = table
        self.attribute = table.schema.attribute(attribute).name
        self._buckets: Dict[Any, List[int]] = {}
        self.rebuild()

    def rebuild(self) -> None:
        self._buckets.clear()
        for position, value in enumerate(_column(self.table, self.attribute)):
            self._buckets.setdefault(value, []).append(position)

    def lookup(self, value: Any, count_io: bool = True) -> List[Dict[str, Any]]:
        positions = self._buckets.get(value, [])
        if count_io:
            self.table.io.read_blocks(
                1 + block_count(len(positions), self.table.blocking_factor)
            )
        return _rows_at(self.table, positions)

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class SortedIndex:
    """Ordered index supporting range lookups via binary search."""

    def __init__(self, table: Table, attribute: str):
        self.table = table
        self.attribute = table.schema.attribute(attribute).name
        self._entries: List[Tuple[Any, int]] = []
        self._keys: List[Any] = []
        self.rebuild()

    def rebuild(self) -> None:
        self._entries = sorted(
            (value, position)
            for position, value in enumerate(_column(self.table, self.attribute))
            if value is not None
        )
        self._keys = [entry[0] for entry in self._entries]

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        count_io: bool = True,
    ) -> List[Dict[str, Any]]:
        """Rows with ``low <op> attribute <op> high`` (None = unbounded)."""
        keys = self._keys
        start = 0
        if low is not None:
            start = (
                bisect.bisect_left(keys, low)
                if include_low
                else bisect.bisect_right(keys, low)
            )
        end = len(keys)
        if high is not None:
            end = (
                bisect.bisect_right(keys, high)
                if include_high
                else bisect.bisect_left(keys, high)
            )
        if end < start:
            end = start
        positions = [position for _, position in self._entries[start:end]]
        if count_io:
            self.table.io.read_blocks(
                1 + block_count(len(positions), self.table.blocking_factor)
            )
        return _rows_at(self.table, positions)

    def __len__(self) -> int:
        return len(self._entries)


def _column(table: Table, attribute: str) -> List[Any]:
    """One column of ``table`` (one read-fault draw through a proxy)."""
    return table.columns()[table.schema.attribute_names.index(attribute)]


def _rows_at(table: Table, positions: List[int]) -> List[Dict[str, Any]]:
    """Only the rows at ``positions``: a probe costs O(matches), not a
    copy of the table (one read-fault draw through a proxy)."""
    columns = table.columns()
    names = table.schema.attribute_names
    return [dict(zip(names, [column[p] for column in columns])) for p in positions]
