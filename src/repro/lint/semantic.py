"""Layer 1 — semantic lints over workloads, MVPP graphs, and designs.

These rules enforce the invariants the paper's algorithms assume:

* Figure 4 (steps 5/6) requires select *disjunctions* and projection
  *unions* pushed to the base relations after merging — ``M001``/``M002``
  flag graphs where a merge left per-query selections or full-width
  leaves behind;
* Section 3.1's common-subexpression merge means no two vertices may
  compute the same relation — ``M003``;
* Figure 9's greedy selection assumes every candidate is reachable from
  a query root (``M004``), carries frequency annotations (``M005``), and
  sees non-negative, monotone ``Ca``/``Cm`` along the DAG
  (``M006``/``M007``);
* a finished design should contain no view with non-positive weight
  ``w(v)`` (``D001``) and no view shadowed by materialized destinations
  (``D002``, the paper's step 9);
* the statistics catalog backing it all must cover the queried relations
  and carry no stale leftovers (``W003``).

Every rule is registered in :mod:`repro.lint.diagnostics`' registry and
receives a :class:`SemanticContext`; entry points
(:func:`lint_workload`, :func:`lint_mvpp`, :func:`lint_design`) assemble
the context and run the rules of the matching scopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.algebra.operators import (
    Aggregate,
    Join,
    Operator,
    Project,
    Select,
    Sort,
)
from repro.errors import LintError
from repro.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Rule,
    Severity,
    get_rule,
    register_rule,
    rules_for,
)
from repro.mvpp.cost import MVPPCostCalculator, PER_PERIOD
from repro.mvpp.graph import MVPP, Vertex, VertexKind
from repro.workload.spec import Workload

#: Relation-name prefix the warehouse uses when registering statistics
#: for materialized views; those entries are derived, not stale.
VIEW_STATS_PREFIX = "mv_"


@dataclass
class SemanticContext:
    """Everything a semantic rule may inspect.

    ``workload`` rules need only the workload; ``mvpp`` rules need the
    graph; ``design`` rules additionally need the chosen vertices and a
    calculator for weights; ``adaptive`` rules inspect the
    :class:`~repro.adaptive.policy.AdaptivePolicy` in ``policy``.  Entry
    points fill in what they have.
    """

    workload: Optional[Workload] = None
    mvpp: Optional[MVPP] = None
    materialized: Optional[Sequence[Vertex]] = None
    calculator: Optional[MVPPCostCalculator] = None
    policy: Optional[Any] = None  # AdaptivePolicy (lazy import)
    streaming: Optional[Any] = None  # StreamingPolicy (lazy import)

    def location(self, vertex: Optional[Vertex] = None) -> Location:
        return Location(
            mvpp=self.mvpp.name if self.mvpp is not None else None,
            vertex=vertex.name if vertex is not None else None,
        )


def _vertex_references(vertex: Vertex) -> Set[str]:
    """Column names the vertex's *root* operator mentions directly."""
    operator = vertex.operator
    if isinstance(operator, Select):
        return set(operator.predicate.columns())
    if isinstance(operator, Project):
        return set(operator.attributes)
    if isinstance(operator, Join):
        if operator.condition is None:
            return set()
        return set(operator.condition.columns())
    if isinstance(operator, Aggregate):
        out = set(operator.group_by)
        out |= {s.attribute for s in operator.aggregates if s.attribute}
        return out
    if isinstance(operator, Sort):
        return {name for name, _ in operator.keys}
    return set()


# ---------------------------------------------------------------------------
# workload rules
# ---------------------------------------------------------------------------
@register_rule(
    "W001",
    scope="workload",
    severity=Severity.WARNING,
    summary="query with missing or zero access frequency fq",
    paper="Section 4.1 (C_queryprocessing = Σ fq·C)",
)
def check_query_frequencies(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("W001")
    assert ctx.workload is not None
    for spec in ctx.workload.queries:
        if spec.frequency <= 0:
            yield rule.diagnostic(
                f"query {spec.name!r} has fq={spec.frequency:g}; it cannot "
                f"influence view selection",
                hint="set a positive access frequency or drop the query",
            )


@register_rule(
    "W002",
    scope="workload",
    severity=Severity.WARNING,
    summary="explicit update frequency fu that is zero or negative",
    paper="Section 4.1 (C_maintenance = Σ fu·Cm)",
)
def check_update_frequencies(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("W002")
    assert ctx.workload is not None
    for relation, frequency in sorted(ctx.workload.update_frequencies.items()):
        if frequency <= 0:
            yield rule.diagnostic(
                f"relation {relation!r} has fu={frequency:g}; maintenance "
                f"of views over it is costed as free",
                hint="use a positive fu, or omit it to get the paper's "
                "once-per-period default",
            )


@register_rule(
    "W003",
    scope="workload",
    severity=Severity.ERROR,
    summary="stale or missing catalog statistics",
    paper="Table 1 (per-relation cardinality/selectivity statistics)",
)
def check_statistics(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("W003")
    assert ctx.workload is not None
    workload = ctx.workload
    for relation in workload.catalog.relation_names:
        if not workload.statistics.has_relation(relation):
            yield rule.diagnostic(
                f"relation {relation!r} has no registered statistics; its "
                f"plans cannot be costed",
                hint=f"statistics.set_relation({relation!r}, cardinality)",
            )
    for relation in workload.statistics.relation_names:
        if relation in workload.catalog:
            continue
        if relation.startswith(VIEW_STATS_PREFIX):
            continue  # derived view statistics registered by the warehouse
        yield rule.diagnostic(
            f"statistics registered for unknown relation {relation!r} "
            f"(stale leftover from a previous schema?)",
            severity=Severity.WARNING,
            hint="drop the entry or register the relation in the catalog",
        )


@register_rule(
    "W004",
    scope="workload",
    severity=Severity.NOTE,
    summary="two queries with identical SQL text",
    paper="Section 3.1 (shared subexpressions should merge, not repeat)",
)
def check_duplicate_queries(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("W004")
    assert ctx.workload is not None
    seen: Dict[str, str] = {}
    for spec in ctx.workload.queries:
        normalized = " ".join(spec.sql.split()).lower()
        if normalized in seen:
            yield rule.diagnostic(
                f"queries {seen[normalized]!r} and {spec.name!r} have "
                f"identical SQL; their frequencies could be combined",
                hint="register one query with the summed fq",
            )
        else:
            seen[normalized] = spec.name


# ---------------------------------------------------------------------------
# MVPP graph rules
# ---------------------------------------------------------------------------
@register_rule(
    "M001",
    scope="mvpp",
    severity=Severity.WARNING,
    summary="per-query selections on a base relation not merged into one "
    "disjunctive stem",
    paper="Figure 4, steps 5/6 (push the disjunction of select conditions "
    "down to the base relations)",
)
def check_select_pushdown(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M001")
    assert ctx.mvpp is not None
    mvpp = ctx.mvpp
    for leaf in mvpp.leaves:
        parents = mvpp.parents_of(leaf)
        selects = [p for p in parents if isinstance(p.operator, Select)]
        others = [
            p
            for p in parents
            if not isinstance(p.operator, Select)
            and p.kind is not VertexKind.QUERY
        ]
        if len(selects) >= 2:
            yield rule.diagnostic(
                f"base relation {leaf.name!r} feeds {len(selects)} distinct "
                f"selections ({', '.join(sorted(p.name for p in selects))}); "
                f"the Figure-4 merge should have pushed one disjunction",
                location=ctx.location(leaf),
                hint="re-run generation with push_down=True, or merge the "
                "selections into a single σ(c1 ∨ c2) stem",
            )
        elif selects and others:
            yield rule.diagnostic(
                f"base relation {leaf.name!r} is read both through a "
                f"selection ({selects[0].name}) and raw "
                f"({', '.join(sorted(p.name for p in others))}); a merged "
                f"stem would collapse to the unfiltered read",
                location=ctx.location(leaf),
                hint="the disjunction with an unfiltered sharer is TRUE; "
                "drop the per-query selection from the shared path",
            )


@register_rule(
    "M002",
    scope="mvpp",
    severity=Severity.WARNING,
    summary="base relation flows full-width into a join though some "
    "attributes are never used",
    paper="Figure 4, steps 5/6 (push the union of referenced attributes "
    "down to the base relations)",
)
def check_project_pushdown(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M002")
    assert ctx.mvpp is not None
    mvpp = ctx.mvpp
    for leaf in mvpp.leaves:
        joins_above = [
            p for p in mvpp.parents_of(leaf) if isinstance(p.operator, Join)
        ]
        if not joins_above:
            continue  # a σ/π stem (or a query root) guards this leaf
        used: Set[str] = set()
        for ancestor_id in leaf.parents | mvpp.ancestors(leaf):
            ancestor = mvpp.vertex(ancestor_id)
            if ancestor.kind is VertexKind.QUERY:
                # whatever survives to a query result is used by definition
                used |= set(ancestor.operator.schema.attribute_names)
            else:
                used |= _vertex_references(ancestor)
        unused = set(leaf.operator.schema.attribute_names) - used
        if unused:
            yield rule.diagnostic(
                f"base relation {leaf.name!r} joins at full width but "
                f"{', '.join(sorted(unused))} are never referenced above it",
                location=ctx.location(leaf),
                hint="push a projection of the union of referenced "
                "attributes (plus join attributes) onto the leaf",
            )


@register_rule(
    "M003",
    scope="mvpp",
    severity=Severity.ERROR,
    summary="two vertices compute the same relation (missed merge)",
    paper="Section 3.1 (merge u, v when S(u)=S(v) and R(u)=R(v))",
)
def check_duplicate_subtrees(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M003")
    assert ctx.mvpp is not None
    by_signature: Dict[str, Vertex] = {}
    for vertex in ctx.mvpp:
        if vertex.kind is VertexKind.QUERY:
            continue
        first = by_signature.get(vertex.signature)
        if first is None:
            by_signature[vertex.signature] = vertex
        else:
            yield rule.diagnostic(
                f"vertices {first.name!r} and {vertex.name!r} share the "
                f"operator signature {vertex.signature!r}; the common "
                f"subexpression was not merged",
                location=ctx.location(vertex),
                hint="intern both plans through MVPP.add_query so equal "
                "subtrees share one vertex",
            )


@register_rule(
    "M004",
    scope="mvpp",
    severity=Severity.WARNING,
    summary="vertex unreachable from any query root",
    paper="Section 3.1 (every vertex serves some query in R)",
)
def check_reachability(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M004")
    assert ctx.mvpp is not None
    mvpp = ctx.mvpp
    for vertex in mvpp:
        if vertex.kind is VertexKind.QUERY:
            continue
        if not mvpp.queries_using(vertex):
            yield rule.diagnostic(
                f"vertex {vertex.name!r} is reachable from no query root; "
                f"it is dead weight in the DAG",
                location=ctx.location(vertex),
                hint="drop the vertex, or re-add the query that used it",
            )


@register_rule(
    "M005",
    scope="mvpp",
    severity=Severity.WARNING,
    summary="missing or zero fq/fu annotation on a root/leaf vertex",
    paper="Section 3.1 (M = (V, A, R, Ca, Cm, fq, fu))",
)
def check_frequency_annotations(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M005")
    assert ctx.mvpp is not None
    for root in ctx.mvpp.roots:
        if root.frequency <= 0:
            yield rule.diagnostic(
                f"query root {root.name!r} has fq={root.frequency:g}",
                location=ctx.location(root),
                hint="annotate a positive access frequency",
            )
    for leaf in ctx.mvpp.leaves:
        if leaf.frequency < 0:
            yield rule.diagnostic(
                f"base relation {leaf.name!r} has negative fu="
                f"{leaf.frequency:g}",
                location=ctx.location(leaf),
                severity=Severity.ERROR,
            )
        elif leaf.frequency == 0:
            yield rule.diagnostic(
                f"base relation {leaf.name!r} has fu=0; views over it are "
                f"maintained for free",
                location=ctx.location(leaf),
                hint="set fu, or leave it unset for the once-per-period "
                "default",
            )


@register_rule(
    "M006",
    scope="mvpp",
    severity=Severity.ERROR,
    summary="negative access or maintenance cost annotation",
    paper="Section 4.1 (Ca, Cm are block-access counts)",
)
def check_negative_costs(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M006")
    assert ctx.mvpp is not None
    if not ctx.mvpp.is_annotated:
        return
    for vertex in ctx.mvpp:
        if vertex.access_cost < 0 or vertex.maintenance_cost < 0:
            yield rule.diagnostic(
                f"vertex {vertex.name!r} has Ca={vertex.access_cost:g}, "
                f"Cm={vertex.maintenance_cost:g}; costs must be >= 0",
                location=ctx.location(vertex),
                hint="re-annotate the MVPP against a sane cost model",
            )


@register_rule(
    "M007",
    scope="mvpp",
    severity=Severity.ERROR,
    summary="access cost not monotone along the DAG (Ca(v) < Ca(child))",
    paper="Section 4.1 (Ca accumulates bottom-up from the base relations)",
)
def check_cost_monotonicity(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("M007")
    assert ctx.mvpp is not None
    mvpp = ctx.mvpp
    if not mvpp.is_annotated:
        return
    for vertex in mvpp:
        if vertex.kind is not VertexKind.OPERATION:
            continue
        for child in mvpp.children_of(vertex):
            if vertex.access_cost < child.access_cost:
                yield rule.diagnostic(
                    f"vertex {vertex.name!r} has Ca={vertex.access_cost:g} "
                    f"below its input {child.name!r} "
                    f"(Ca={child.access_cost:g}); greedy savings would go "
                    f"negative",
                    location=ctx.location(vertex),
                    hint="Ca(v) must be local_cost(v) + Σ Ca(children); "
                    "re-annotate the graph",
                )
        if vertex.maintenance_cost < vertex.access_cost:
            yield rule.diagnostic(
                f"vertex {vertex.name!r} has Cm={vertex.maintenance_cost:g} "
                f"< Ca={vertex.access_cost:g}; recompute maintenance cannot "
                f"cost less than computing the relation",
                location=ctx.location(vertex),
            )


# ---------------------------------------------------------------------------
# design rules
# ---------------------------------------------------------------------------
@register_rule(
    "D001",
    scope="design",
    severity=Severity.WARNING,
    summary="materialized vertex with non-positive weight w(v)",
    paper="Section 4.3 / Figure 9 (only positive-weight vertices are "
    "selection candidates)",
)
def check_materialized_weights(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("D001")
    assert ctx.mvpp is not None and ctx.materialized is not None
    calculator = ctx.calculator or MVPPCostCalculator(ctx.mvpp, PER_PERIOD)
    for vertex in ctx.materialized:
        weight = calculator.weight(vertex)
        if weight <= 0:
            yield rule.diagnostic(
                f"materialized vertex {vertex.name!r} has w(v)="
                f"{weight:g}; its maintenance outweighs its query saving",
                location=ctx.location(vertex),
                hint="drop the view or revisit the fq/fu annotations",
            )


@register_rule(
    "D002",
    scope="design",
    severity=Severity.WARNING,
    summary="materialized vertex shadowed by materialized destinations",
    paper="Figure 9, step 9 (remove v if all d ∈ D(v) are materialized)",
)
def check_shadowed_views(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("D002")
    assert ctx.mvpp is not None and ctx.materialized is not None
    mvpp = ctx.mvpp
    chosen = {vertex.vertex_id for vertex in ctx.materialized}
    for vertex in ctx.materialized:
        parents = mvpp.parents_of(vertex)
        if parents and all(p.vertex_id in chosen for p in parents):
            yield rule.diagnostic(
                f"materialized vertex {vertex.name!r} is never read: every "
                f"destination ({', '.join(p.name for p in parents)}) is "
                f"itself materialized",
                location=ctx.location(vertex),
                hint="drop the shadowed view (the paper's step 9)",
            )


# ---------------------------------------------------------------------------
# adaptive-policy rules
# ---------------------------------------------------------------------------
@register_rule(
    "A001",
    scope="adaptive",
    severity=Severity.WARNING,
    summary="cooldown shorter than the drift estimation window "
    "(guaranteed thrash)",
    paper="beyond the paper: docs/adaptive.md (hysteresis)",
)
def check_cooldown_vs_window(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("A001")
    assert ctx.policy is not None
    policy = ctx.policy
    if policy.cooldown_ticks < policy.window_ticks:
        yield rule.diagnostic(
            f"cooldown_ticks={policy.cooldown_ticks:g} is shorter than the "
            f"drift window ({policy.window_ticks:g} ticks = "
            f"{policy.window_periods:g} periods); the estimate that "
            f"triggered one redesign can trigger the next before it leaves "
            f"the window, so an alternating workload redesigns every "
            f"evaluation",
            hint="raise cooldown_ticks to at least window_periods * "
            "period_ticks",
        )


@register_rule(
    "A002",
    scope="adaptive",
    severity=Severity.WARNING,
    summary="zero min_benefit_margin accepts break-even migrations",
    paper="beyond the paper: docs/adaptive.md (benefit gate)",
)
def check_benefit_margin(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("A002")
    assert ctx.policy is not None
    policy = ctx.policy
    if policy.min_benefit_margin == 0:
        yield rule.diagnostic(
            "min_benefit_margin=0 accepts any migration whose net benefit "
            "is merely non-negative; estimation noise around break-even "
            "flips the view set back and forth for free on paper while "
            "paying real build cost",
            hint="set a positive margin (a fraction of the workload's "
            "per-period total cost is a good start)",
        )


# ---------------------------------------------------------------------------
# streaming-policy rules
# ---------------------------------------------------------------------------
@register_rule(
    "S001",
    scope="streaming",
    severity=Severity.WARNING,
    summary="staleness bound not covered by change-log retention",
    paper="beyond the paper: docs/streaming.md (bounded staleness)",
)
def check_lag_vs_retention(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("S001")
    assert ctx.streaming is not None
    policy = ctx.streaming
    if not policy.covers_lag_bound:
        yield rule.diagnostic(
            f"max_lag_records={policy.max_lag_records} exceeds the "
            f"change-log retention ({policy.retention} records per "
            f"relation); a view can drift past the ring's history while "
            f"still inside its staleness bound, forcing a batch recompute "
            f"exactly when the bound promised an incremental catch-up",
            hint="raise retention to at least max_lag_records, or tighten "
            "the lag bound",
        )


@register_rule(
    "S002",
    scope="streaming",
    severity=Severity.WARNING,
    summary="streaming view with no incrementally maintainable edge",
    paper="beyond the paper: docs/streaming.md (delta propagation rules)",
)
def check_streamable_edges(ctx: SemanticContext) -> Iterator[Diagnostic]:
    rule = get_rule("S002")
    assert ctx.streaming is not None
    if not ctx.materialized:
        return
    from repro.cdc.propagation import MODE_DELTA, PropagationGraph
    from repro.warehouse.view import MaterializedView

    views = [
        MaterializedView(name=vertex.name, plan=vertex.operator)
        for vertex in ctx.materialized
    ]
    graph = PropagationGraph(views)
    for view in views:
        edges = [
            graph.rule(view.name, relation)
            for relation in sorted(view.base_relations)
        ]
        if edges and all(
            edge is not None and edge.mode != MODE_DELTA for edge in edges
        ):
            reasons = sorted(
                {edge.reason for edge in edges if edge.reason}, key=str
            )
            yield rule.diagnostic(
                f"view {view.name!r} falls back to a full recompute for "
                f"every base-relation delta "
                f"({', '.join(reasons) or 'no delta rule applies'}); "
                f"streaming maintenance degrades it to batch refresh on "
                f"each drain, and batch policy='incremental' recomputes "
                f"it on every update",
                hint="materialize a delta-friendly ancestor instead, or "
                "exclude the view from the streaming tier",
            )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def _run_rules(
    scopes: Sequence[str], ctx: SemanticContext, target: str
) -> LintReport:
    report = LintReport(target=target)
    for scope in scopes:
        for rule in rules_for(scope):
            report.extend(rule.check(ctx))
    report.diagnostics = report.sorted()
    return report


def lint_workload(workload: Workload) -> LintReport:
    """Run the workload-scope rules over one design problem."""
    ctx = SemanticContext(workload=workload)
    return _run_rules(("workload",), ctx, target=f"workload {workload.name!r}")


def lint_mvpp(mvpp: MVPP, workload: Optional[Workload] = None) -> LintReport:
    """Run the MVPP-scope rules over one (annotated or raw) graph."""
    ctx = SemanticContext(workload=workload, mvpp=mvpp)
    return _run_rules(("mvpp",), ctx, target=f"MVPP {mvpp.name!r}")


def lint_design(
    mvpp: MVPP,
    materialized: Sequence[Vertex],
    calculator: Optional[MVPPCostCalculator] = None,
    workload: Optional[Workload] = None,
    policy: Optional[Any] = None,
    streaming: Optional[Any] = None,
) -> LintReport:
    """Run the MVPP- and design-scope rules over a finished design.

    With ``policy`` (an :class:`~repro.adaptive.policy.AdaptivePolicy`,
    e.g. ``DesignConfig.adaptive``), the adaptive-scope rules run too;
    with ``streaming`` (a :class:`~repro.cdc.policy.StreamingPolicy`,
    e.g. ``DesignConfig.streaming``), the streaming-scope rules do.
    """
    ctx = SemanticContext(
        workload=workload,
        mvpp=mvpp,
        materialized=list(materialized),
        calculator=calculator,
        policy=policy,
        streaming=streaming,
    )
    scopes: List[str] = ["mvpp", "design"]
    if policy is not None:
        scopes.append("adaptive")
    if streaming is not None:
        scopes.append("streaming")
    return _run_rules(scopes, ctx, target=f"design on MVPP {mvpp.name!r}")


def lint_adaptive_policy(policy: Any) -> LintReport:
    """Run the adaptive-scope rules over one AdaptivePolicy."""
    from repro.adaptive.policy import AdaptivePolicy

    if not isinstance(policy, AdaptivePolicy):
        raise LintError(f"not an AdaptivePolicy: {policy!r}")
    ctx = SemanticContext(policy=policy)
    return _run_rules(("adaptive",), ctx, target="adaptive policy")


def lint_streaming_policy(policy: Any) -> LintReport:
    """Run the streaming-scope rules over one StreamingPolicy.

    Without a design in hand only the policy-shape rules (S001) can
    fire; run :func:`lint_design` with ``streaming=`` to also check the
    chosen views' delta edges (S002).
    """
    from repro.cdc.policy import StreamingPolicy

    if not isinstance(policy, StreamingPolicy):
        raise LintError(f"not a StreamingPolicy: {policy!r}")
    ctx = SemanticContext(streaming=policy)
    return _run_rules(("streaming",), ctx, target="streaming policy")
