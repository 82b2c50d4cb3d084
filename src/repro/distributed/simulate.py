"""Partition schemes derived from a workload's own predicates.

:func:`choose_schemes` picks each relation's partition key for the
``shards`` scenario of :mod:`repro.simulation` (``repro simulate
--shards``) and for ``repro design --shards``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.algebra import predicates as P
from repro.algebra.expressions import ColumnRef, Comparison, Literal
from repro.distributed.partition import (
    HASH,
    RANGE,
    PartitionScheme,
    range_bounds,
)
from repro.errors import DistributedError
from repro.sql.translator import parse_query
from repro.workload.spec import Workload

__all__ = ["choose_schemes"]


def choose_schemes(
    workload: Workload,
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    shards: int,
) -> List[PartitionScheme]:
    """Derive partition schemes from the workload's own predicates.

    For each relation, the partition key is the column its queries
    compare against literals most often — the column pruning can act on.
    Numeric keys get RANGE schemes (bounds from the loaded values, so
    inequalities prune too); everything else hashes.  Relations never
    constrained by a literal predicate stay unpartitioned: sharding them
    could only add routing overhead, never pruning.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for spec in workload.queries:
        plan = parse_query(spec.sql, workload.catalog)
        for node in plan.walk():
            predicate = getattr(node, "predicate", None)
            if predicate is None:
                predicate = getattr(node, "condition", None)
            if predicate is None:
                continue
            for conjunct in P.conjuncts(predicate):
                if not isinstance(conjunct, Comparison):
                    continue
                if not isinstance(conjunct.left, ColumnRef):
                    continue
                if not isinstance(conjunct.right, Literal):
                    continue
                for leaf in plan.leaves:
                    try:
                        resolved = leaf.schema.attribute(conjunct.left.name)
                    except Exception:
                        continue
                    key = (leaf.name, resolved.name)
                    counts[key] = counts.get(key, 0) + 1

    best: Dict[str, Tuple[int, bool, str]] = {}
    for (relation, column), count in counts.items():
        # Prefer more-often-constrained keys; break ties toward RANGE-able
        # (numeric) keys, then alphabetically for determinism.
        rank = (count, _is_numeric(rows, relation, column), column)
        if relation not in best or rank > best[relation]:
            best[relation] = rank

    schemes: List[PartitionScheme] = []
    for relation in sorted(best):
        _, numeric, column = best[relation]
        if numeric:
            values = [_key_value(row, column) for row in rows.get(relation, ())]
            try:
                bounds = range_bounds(values, shards)
                schemes.append(
                    PartitionScheme(
                        relation=relation,
                        key=column,
                        shards=shards,
                        kind=RANGE,
                        bounds=bounds,
                    )
                )
                continue
            except DistributedError:
                pass  # too few distinct values: fall back to hash
        schemes.append(
            PartitionScheme(
                relation=relation, key=column, shards=shards, kind=HASH
            )
        )
    if not schemes:
        raise DistributedError(
            f"workload {workload.name!r} has no literal predicates to "
            "partition on"
        )
    return schemes


def _key_value(row: Mapping[str, Any], column: str) -> Any:
    if column in row:
        return row[column]
    short = column.split(".")[-1]
    return row.get(short)


def _is_numeric(
    rows: Mapping[str, Sequence[Mapping[str, Any]]],
    relation: str,
    column: str,
) -> bool:
    values = [_key_value(row, column) for row in rows.get(relation, ())]
    return bool(values) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    )
