"""Synthetic update rows for a loaded warehouse.

The multi-period simulation (:func:`repro.simulation.periods`) applies
update batches to every base relation; :func:`default_row_factory`
synthesizes those rows from the relation's schema.
"""

from __future__ import annotations

import datetime
import random
from typing import Any, Callable, Dict, Mapping

from repro.catalog.datatypes import DataType

RowFactory = Callable[[str, random.Random], Mapping[str, Any]]


def default_row_factory(warehouse) -> RowFactory:
    """Synthesizes rows matching a relation's schema and, for integer
    columns that look like keys of another loaded relation, drawing
    values from that relation's observed key range so joins stay
    meaningful."""

    def factory(relation: str, rng: random.Random) -> Mapping[str, Any]:
        schema = warehouse.catalog.schema(relation)
        row: Dict[str, Any] = {}
        for attribute in schema:
            name = attribute.short_name
            if attribute.datatype is DataType.INTEGER:
                row[name] = rng.randrange(
                    max(_key_range(warehouse, relation, name), 1)
                )
            elif attribute.datatype is DataType.STRING:
                row[name] = f"sim{rng.randrange(100)}"
            elif attribute.datatype is DataType.FLOAT:
                row[name] = rng.random() * 100
            elif attribute.datatype is DataType.DATE:
                row[name] = datetime.date(1996, 1, 1) + datetime.timedelta(
                    days=rng.randrange(366)
                )
            else:
                row[name] = bool(rng.randrange(2))
        return row

    return factory


def _key_range(warehouse, relation: str, column: str) -> int:
    """A plausible value range for an integer column: the loaded
    cardinality of the relation the column appears to reference, else
    200 (the example's quantity range)."""
    for name in warehouse.database.table_names:
        if name == relation or name.startswith("mv_"):
            continue
        schema = warehouse.catalog.schema(name) if name in warehouse.catalog else None
        if schema is None:
            continue
        if column in schema:
            return max(warehouse.database.table(name).cardinality, 1)
    if relation in warehouse.catalog and column in warehouse.catalog.schema(relation):
        return max(warehouse.database.table(relation).cardinality, 200)
    return 200

