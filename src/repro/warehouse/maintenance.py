"""View maintenance: full recomputation and incremental (delta) refresh.

The paper assumes *recompute* maintenance ("re-computing is used whenever
an update of involved base relation occurs", Section 2) — that is the
default policy.  Incremental maintenance for insert-only deltas on SPJ
views is provided as the extension the paper's future-work section points
at, and is ablated in ``benchmarks/bench_ablation_maintenance.py``:
cheaper refresh shifts the weight formula's ``Cm`` term and can flip
materialization decisions.

The delta rules live here once, for this batch path and the streaming
path in :mod:`repro.cdc` alike: :func:`edge_rule`, :func:`evaluate_overlay`
and :func:`commit_delta`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.algebra.operators import Aggregate, Operator, Project
from repro.errors import DeltaSchemaError, WarehouseError
from repro.executor.engine import Database, ExecutionEngine
from repro.executor.physical import charge_materialize
from repro.storage.block import IOSnapshot
from repro.storage.table import Table
from repro.warehouse.view import MaterializedView

RECOMPUTE = "recompute"
INCREMENTAL = "incremental"

MODE_DELTA = "delta"
MODE_RECOMPUTE = RECOMPUTE


def validate_delta_rows(
    schema, rows: Iterable[Mapping[str, object]], relation: str
) -> List[Mapping[str, object]]:
    """Check delta rows against the base relation's schema up front.

    Every attribute must be present (by qualified or short name) and no
    extra columns are allowed — a misspelt column would otherwise either
    vanish silently during normalization or blow up deep inside the
    overlay executor.  Raises :class:`~repro.errors.DeltaSchemaError`
    naming the offending row and columns; returns the rows as a list so
    one-shot iterables survive validation.
    """
    names = {attribute.name for attribute in schema}
    shorts = {attribute.short_name for attribute in schema}
    out: List[Mapping[str, object]] = []
    for index, row in enumerate(rows):
        unknown = [
            key for key in row if key not in names and key not in shorts
        ]
        missing = [
            attribute.name
            for attribute in schema
            if attribute.name not in row and attribute.short_name not in row
        ]
        if unknown or missing:
            raise DeltaSchemaError(
                relation, tuple(unknown), tuple(missing), index
            )
        out.append(row)
    return out


@dataclass(frozen=True)
class EdgeRule:
    """How a delta of ``relation`` reaches ``view``."""

    view: str
    relation: str
    mode: str  # MODE_DELTA or MODE_RECOMPUTE
    reason: str = ""  # "aggregate" | "self-join" when recompute
    distinct: bool = False  # DISTINCT view: dedup inserts, recompute deletes

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def edge_rule(view: MaterializedView, relation: str) -> EdgeRule:
    """Classify the (``view``, ``relation``) maintenance edge.

    An SPJ view that references ``relation`` once takes the linear delta
    ``δV = plan[R := δR]``.  Aggregate views recompute (no counting
    state is kept), as do *self-join* views: substituting the delta for
    every occurrence of ``relation`` would evaluate ``δR ⋈ δR`` instead
    of ``δR ⋈ R  ∪  R_old ⋈ δR``, silently dropping rows.  A view with a
    duplicate-eliminating projection dedups inserted rows against the
    store; its delete deltas need counting state and recompute instead.
    """
    plan = view.plan
    if any(isinstance(node, Aggregate) for node in plan.walk()):
        return EdgeRule(view.name, relation, MODE_RECOMPUTE, "aggregate")
    if sum(1 for leaf in plan.leaves if leaf.name == relation) > 1:
        return EdgeRule(view.name, relation, MODE_RECOMPUTE, "self-join")
    distinct = any(
        isinstance(node, Project) and node.distinct for node in plan.walk()
    )
    return EdgeRule(view.name, relation, MODE_DELTA, distinct=distinct)


def delta_table(
    database: Database, relation: str, rows: Iterable[Mapping[str, Any]]
) -> Table:
    """A transient table holding ``rows`` in ``relation``'s schema."""
    base = database.table(relation)
    delta = Table(base.schema, base.blocking_factor, io=database.io)
    for row in rows:
        delta.insert(row)
    return delta


def evaluate_overlay(
    database: Database,
    engine: ExecutionEngine,
    plan: Operator,
    overrides: Mapping[str, Table],
) -> Table:
    """Execute ``plan`` with ``engine``'s settings as if ``overrides``
    replaced those tables of ``database`` (whose I/O counter is charged).

    A delta table in place of a base relation evaluates its delta rule;
    sharded serving substitutes shard unions the same way.
    """
    overlay = OverlayDatabase(database, overrides)
    return ExecutionEngine(
        overlay,
        engine.join_method,
        engine=engine.engine,
        batch_size=engine.batch_size,
    ).execute(plan)


def commit_delta(
    database: Database,
    view_name: str,
    insert_rows: Sequence[Mapping[str, Any]],
    delete_rows: Sequence[Mapping[str, Any]] = (),
    distinct: bool = False,
) -> Tuple[Table, int]:
    """Atomically swap ``view_name`` to (stored − deletes) + inserts.

    The delta is applied to a shadow copy that replaces the stored table
    only once fully built, so concurrent readers never observe a
    partially-refreshed view.  A ``distinct`` view inserts only rows not
    already stored, preserving set semantics.  Returns the new table and
    the number of rows inserted.
    """
    shadow = database.table(view_name).copy(database.io)
    if delete_rows:
        shadow.delete_many(delete_rows, count_io=True)
    if distinct and insert_rows:
        names = shadow.schema.attribute_names
        existing = set(zip(*shadow.columns()))
        deduped = []
        for row in insert_rows:
            key = tuple(row[n] for n in names)
            if key not in existing:
                existing.add(key)
                deduped.append(row)
        insert_rows = deduped
    added = shadow.insert_many(insert_rows, count_io=True) if insert_rows else 0
    database.register(view_name, shadow)
    return shadow, added


def _record_refresh(
    span, report: "RefreshReport", view: Optional[MaterializedView] = None
) -> None:
    """Attach a refresh outcome to its span and the per-policy metrics."""
    span.set(
        io_reads=report.io.reads,
        io_writes=report.io.writes,
        rows_after=report.rows_after,
    )
    if obs.enabled():
        registry = obs.metrics()
        registry.counter(
            "maintenance.refreshes", policy=report.policy
        ).inc()
        registry.histogram(
            "maintenance.io", policy=report.policy
        ).observe(report.io.total)
        if view is not None and view.estimated_maintenance is not None:
            # Calibrate the design's Cm annotation against the refresh
            # the executor actually performed (blocks of I/O).
            obs.calibration().record(
                "maintenance",
                view.name,
                report.policy,
                view.estimated_maintenance,
                float(report.io.total),
            )


@dataclass(frozen=True)
class RefreshReport:
    """Outcome of refreshing one view."""

    view: str
    policy: str
    io: IOSnapshot
    rows_after: int


class ViewMaintainer:
    """Maintains the stored contents of materialized views."""

    def __init__(self, database: Database, engine: Optional[ExecutionEngine] = None):
        self.database = database
        self.engine = engine or ExecutionEngine(database)

    # -------------------------------------------------------------- recompute
    def materialize(self, view: MaterializedView) -> RefreshReport:
        """(Re)compute ``view`` from base relations and store it."""
        with obs.span(
            "maintenance.refresh", view=view.name, policy=RECOMPUTE
        ) as span:
            before = self.database.io.snapshot()
            stored = self.engine.execute(view.plan).copy(self.database.io)
            charge_materialize(stored)
            self.database.register(view.name, stored)
            report = RefreshReport(
                view=view.name,
                policy=RECOMPUTE,
                io=self.database.io.since(before),
                rows_after=stored.cardinality,
            )
            _record_refresh(span, report, view)
        return report

    # ------------------------------------------------------------ incremental
    def incremental_refresh(
        self,
        view: MaterializedView,
        relation: str,
        delta_rows: Iterable[Mapping[str, object]],
    ) -> RefreshReport:
        """Apply an insert-only delta of ``relation`` to ``view``.

        The edge follows :func:`edge_rule`: a linear SPJ edge evaluates
        the view's plan with ``relation`` replaced by the delta and
        commits the new tuples through :func:`commit_delta` (atomic
        shadow swap, DISTINCT dedup); a recompute edge (aggregate,
        self-join) falls back to :meth:`materialize`.  An empty delta
        costs nothing and leaves the stored table in place.
        """
        if view.name not in self.database:
            raise WarehouseError(
                f"view {view.name!r} has not been materialized yet"
            )
        if not view.depends_on(relation):
            return self._unchanged(view)
        rule = edge_rule(view, relation)
        if rule.mode == MODE_RECOMPUTE:
            return self.materialize(view)
        delta_rows = validate_delta_rows(
            self.database.table(relation).schema, delta_rows, relation
        )
        if not delta_rows:
            return self._unchanged(view)

        with obs.span(
            "maintenance.refresh", view=view.name, policy=INCREMENTAL,
            relation=relation,
        ) as span:
            before = self.database.io.snapshot()
            delta = delta_table(self.database, relation, delta_rows)
            new_rows = evaluate_overlay(
                self.database, self.engine, view.plan, {relation: delta}
            ).rows()
            shadow, added = commit_delta(
                self.database, view.name, new_rows, distinct=rule.distinct
            )
            span.set(rows_added=added)
            report = RefreshReport(
                view=view.name,
                policy=INCREMENTAL,
                io=self.database.io.since(before),
                rows_after=shadow.cardinality,
            )
            _record_refresh(span, report, view)
        return report

    def _unchanged(self, view: MaterializedView) -> RefreshReport:
        return RefreshReport(
            view=view.name,
            policy=INCREMENTAL,
            io=IOSnapshot(0, 0),
            rows_after=self.database.table(view.name).cardinality,
        )


class OverlayDatabase(Database):
    """A database view where selected tables are substituted.

    Used to evaluate a view plan "as if" a base relation contained only
    the delta rows, while every other relation reads through to the real
    database (sharing its I/O counter).
    """

    def __init__(self, base: Database, overrides: Mapping[str, Table]):
        super().__init__()
        self.io = base.io  # share accounting with the real database
        # Forward the injector: the vectorized engine keys build-side
        # caching (and FaultyTable wrapping) off this attribute, so a
        # delta evaluation must fail exactly like a direct one would.
        self.fault_injector = base.fault_injector
        self._base = base
        self._overrides = overrides

    def table(self, name: str) -> Table:
        if name in self._overrides:
            return self._overrides[name]
        return self._base.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._overrides or name in self._base
