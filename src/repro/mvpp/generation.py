"""Generating multiple MVPPs (paper Figure 4) and picking the best design.

Pipeline per the paper:

1. optimize each query individually (step 1);
2. pull selections/projections up, leaving join skeletons (step 2);
3. order plans by ``fq(q) · Ca(optimal plan)`` descending (step 3);
4. merge plans into an MVPP in that order, reusing existing join
   patterns; rotate the list so each plan seeds once — ``k`` queries
   yield ``k`` MVPPs (step 4);
5. push the *disjunction* of the sharing queries' select conditions and
   the *union* of their projection attributes (plus join attributes) down
   to each base relation (steps 5/6), re-applying non-subsumed residual
   conditions above the shared skeletons.

``design()`` runs the whole paper pipeline: generate the MVPP candidates,
run the Figure-9 materialized-view selection on each, and return the
cheapest design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression
from repro.algebra.operators import Operator, Relation, Select
from repro.algebra.rewrite import PulledPlan, pull_up
from repro.errors import MVPPError
from repro.mvpp.config import DEFAULT_DESIGN_CONFIG, DesignConfig
from repro.mvpp.cost import PER_PERIOD, CostBreakdown, CostCache, MVPPCostCalculator
from repro.mvpp.graph import MVPP, Vertex
from repro.parallel.executor import SerialExecutor, resolve_executor
from repro.mvpp.merge import PlanInterner, merge_skeletons
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.optimizer.heuristics import optimize_query
from repro.optimizer.plans import AnnotatedPlan
from repro.sql.translator import parse_query
from repro.workload.spec import QuerySpec, Workload


@dataclass
class QueryPlanInfo:
    """A query with its individually-optimal plan, normalized for merging.

    The push-down inputs of steps 5/6 depend only on the query, not on
    the merge order, so they are derived once here rather than in every
    rotation: ``leaf_conjuncts`` maps a leaf name to the selection
    conjuncts over that leaf alone, ``residual_conjuncts`` holds the
    conjuncts spanning several leaves, and ``leaf_needs`` maps a leaf
    name to the attributes of that leaf the query uses anywhere above it.
    """

    spec: QuerySpec
    plan: Operator
    pulled: PulledPlan
    access_cost: float  # Ca of the optimal plan
    leaf_conjuncts: Dict[str, Tuple[Expression, ...]]
    residual_conjuncts: Tuple[Expression, ...]
    leaf_needs: Dict[str, FrozenSet[str]]

    @property
    def rank(self) -> float:
        """The paper's ordering key ``fq(op) · Ca(op)``."""
        return self.spec.frequency * self.access_cost


def prepare_queries(
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[QueryPlanInfo]:
    """Steps 1–2: optimal plan + pulled normal form for every query."""
    estimator = estimator or CardinalityEstimator(workload.statistics)
    infos = []
    with obs.span("generation.prepare", queries=len(workload.queries)):
        for spec in workload.queries:
            with obs.span("generation.optimize", query=spec.name) as span:
                raw = parse_query(spec.sql, workload.catalog)
                plan = optimize_query(raw, estimator, cost_model)
                annotated = AnnotatedPlan(plan, estimator, cost_model)
                span.set(access_cost=annotated.total_cost)
                pulled = pull_up(plan)
                per_leaf, residual = _leaf_conjuncts(pulled)
                infos.append(
                    QueryPlanInfo(
                        spec=spec,
                        plan=plan,
                        pulled=pulled,
                        access_cost=annotated.total_cost,
                        leaf_conjuncts=per_leaf,
                        residual_conjuncts=residual,
                        leaf_needs=_leaf_needs(pulled),
                    )
                )
    return infos


def build_mvpp(
    ordered_infos: Sequence[QueryPlanInfo],
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    name: str = "mvpp",
    push_down: bool = True,
    maintenance_write: bool = False,
    interner: Optional[PlanInterner] = None,
) -> MVPP:
    """Steps 4–6 for one merge order: merge skeletons, push down, intern.

    ``push_down=False`` yields the paper's *Figure 7* form (selections
    above the shared joins); the default yields the optimized *Figure 8*
    form with leaf-level disjunctive selections and unioned projections.
    Every plan node is built through ``interner`` (a fresh one by
    default); :func:`generate_mvpps` passes one interner to all of its
    rotations, so a node two rotations share is built once.
    """
    estimator = estimator or CardinalityEstimator(workload.statistics)
    interner = interner if interner is not None else PlanInterner()
    with obs.span(
        "generation.merge", mvpp=name, queries=len(ordered_infos)
    ) as span:
        merged = merge_skeletons(
            [(info.spec.name, info.pulled.skeleton) for info in ordered_infos],
            interner,
        )

        plans: Dict[str, Operator] = {}
        if push_down:
            stems = _leaf_stems(ordered_infos, merged, interner)
            for info in ordered_infos:
                skeleton = _replace_leaves(
                    merged[info.spec.name], stems, {}, interner
                )
                plans[info.spec.name] = _assemble(
                    info, skeleton, _residuals(info, stems), interner
                )
        else:
            for info in ordered_infos:
                plans[info.spec.name] = _assemble(
                    info,
                    merged[info.spec.name],
                    info.pulled.selection,
                    interner,
                )

        mvpp = MVPP(name=name)
        for spec in workload.queries:  # stable vertex naming across rotations
            if spec.name in plans:
                mvpp.add_query(spec.name, plans[spec.name], spec.frequency)
        for leaf in mvpp.leaves:
            leaf.frequency = workload.update_frequency(leaf.name)
        mvpp.annotate(estimator, cost_model, maintenance_write=maintenance_write)
        mvpp.assign_names()
        span.set(vertices=len(mvpp))
    return mvpp


def _build_rotation(payload: Tuple[Any, ...]) -> MVPP:
    """Build one rotation's MVPP (module-level so process pools can run it)."""
    order, workload, estimator, cost_model, name, push_down, interner = payload
    return build_mvpp(
        order,
        workload,
        estimator,
        cost_model,
        name=name,
        push_down=push_down,
        interner=interner,
    )


def generate_mvpps(
    workload: Workload,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    rotations: Optional[int] = None,
    push_down: bool = True,
    config: Optional[DesignConfig] = None,
) -> List[MVPP]:
    """The full Figure-4 algorithm: one MVPP per rotation of the plan list.

    With a ``config``, its ``rotations``/``push_down`` take over (unless
    the explicit keyword arguments were given) and its
    ``workers``/``executor`` fan the per-rotation merges out in
    parallel.  The candidate list is identical for every backend: tasks
    are dispatched and collected in rotation order.  All rotations build
    their plan nodes through one :class:`~repro.mvpp.merge.PlanInterner`,
    so the candidates share every node they have in common.
    """
    if config is not None:
        rotations = rotations if rotations is not None else config.rotations
        push_down = push_down and config.push_down
    executor = (
        resolve_executor(config.executor, config.workers)
        if config is not None
        else SerialExecutor()
    )
    estimator = estimator or CardinalityEstimator(workload.statistics)
    with obs.span("generation.mvpps", workload=workload.name) as span:
        infos = prepare_queries(workload, estimator, cost_model)
        infos.sort(key=lambda info: -info.rank)
        k = len(infos)
        if k == 0:
            raise MVPPError("workload has no queries")
        count = k if rotations is None else max(1, min(rotations, k))
        span.set(rotations=count, workers=executor.workers)
        obs.metrics().counter("generation.candidates").inc(count)
        interner = PlanInterner()
        payloads = [
            (
                infos[rotation:] + infos[:rotation],
                workload,
                estimator,
                cost_model,
                f"{workload.name}-mvpp{rotation + 1}",
                push_down,
                interner,
            )
            for rotation in range(count)
        ]
        mvpps = executor.map(_build_rotation, payloads)
    return mvpps


# ---------------------------------------------------------------------------
# steps 5/6: leaf-level push-down
# ---------------------------------------------------------------------------
def _leaf_conjuncts(
    pulled: PulledPlan,
) -> Tuple[Dict[str, Tuple[Expression, ...]], Tuple[Expression, ...]]:
    """Split a query's selection conjuncts per leaf; rest are residual-only."""
    per_leaf: Dict[str, List[Expression]] = {}
    residual_only: List[Expression] = []
    leaf_columns = {
        leaf.name: set(leaf.schema.attribute_names)
        for leaf in pulled.skeleton.leaves
    }
    for conjunct in P.conjuncts(pulled.selection):
        owner = next(
            (
                name
                for name, columns in leaf_columns.items()
                if conjunct.columns() <= columns
            ),
            None,
        )
        if owner is None:
            residual_only.append(conjunct)
        else:
            per_leaf.setdefault(owner, []).append(conjunct)
    return (
        {name: tuple(conjs) for name, conjs in per_leaf.items()},
        tuple(residual_only),
    )


def _leaf_needs(pulled: PulledPlan) -> Dict[str, FrozenSet[str]]:
    """Per leaf name, the attributes of that leaf the query needs above it."""
    needed: Set[str] = set()
    if pulled.aggregate is not None:
        needed |= set(pulled.aggregate.group_by)
        needed |= {
            s.attribute
            for s in pulled.aggregate.aggregates
            if s.attribute is not None
        }
    else:
        needed |= set(pulled.projection)
    if pulled.selection is not None:
        needed |= pulled.selection.columns()
    for predicate in pulled.skeleton.join_conjuncts:
        needed |= predicate.columns()
    return {
        leaf.name: frozenset(needed.intersection(leaf.schema.attribute_names))
        for leaf in pulled.skeleton.leaves
    }


def _leaf_stems(
    infos: Sequence[QueryPlanInfo],
    merged: Dict[str, Operator],
    interner: PlanInterner,
) -> Dict[str, Operator]:
    """Figure 4 steps 5/6: the σ/π stem placed over each base relation.

    Selection: the disjunction over sharing queries of each query's
    conjunction of conditions on that relation (TRUE when any sharing
    query filters nothing).  Projection: the union of attributes any
    sharing query needs, plus join attributes (collected inside
    :func:`_leaf_needs`).  The merged skeletons are interned, so each
    leaf is the one canonical object for its relation.
    """
    leaf_nodes: Dict[str, Relation] = {}
    for skeleton in merged.values():
        for leaf in skeleton.leaves:
            leaf_nodes[leaf.name] = leaf

    stems: Dict[str, Operator] = {}
    for leaf_name, leaf in leaf_nodes.items():
        terms: List[Optional[Expression]] = []
        union_attrs: Set[str] = set()
        for info in infos:
            if leaf_name not in merged[info.spec.name].leaf_names:
                continue
            mine = info.leaf_conjuncts.get(leaf_name)
            terms.append(P.conjunction(mine) if mine else None)
            union_attrs |= info.leaf_needs[leaf_name]
        condition = P.disjunction(terms) if terms else None
        stem = interner.select(leaf, condition)
        if union_attrs:
            ordered = [
                a for a in leaf.schema.attribute_names if a in union_attrs
            ]
            stem = interner.project(stem, ordered)
        stems[leaf_name] = stem
    return stems


def _residuals(
    info: QueryPlanInfo, stems: Dict[str, Operator]
) -> Optional[Expression]:
    """The query's conditions its leaves' pushed-down stems do not imply."""
    residuals: List[Expression] = list(info.residual_conjuncts)
    for leaf_name, conjs in info.leaf_conjuncts.items():
        stem = stems[leaf_name]
        pushed = _stem_condition(stem)
        for conjunct in conjs:
            if not P.implies(pushed, conjunct):
                residuals.append(conjunct)
    return P.conjunction(residuals)


def _assemble(
    info: QueryPlanInfo,
    skeleton: Operator,
    selection: Optional[Expression],
    interner: PlanInterner,
) -> Operator:
    """One query's plan over ``skeleton``: σ, then γ, π and its caps."""
    body = interner.select(skeleton, selection)
    pulled = info.pulled
    if pulled.aggregate is not None:
        body = interner.rebuild(pulled.aggregate, (body,))
    body = interner.project(body, pulled.projection)
    for cap in (pulled.sort, pulled.limit):  # PulledPlan.decorate's order
        if cap is not None:
            body = interner.rebuild(cap, (body,))
    return body


def _replace_leaves(
    node: Operator,
    stems: Dict[str, Operator],
    memo: Dict[str, Operator],
    interner: PlanInterner,
) -> Operator:
    cached = memo.get(node.signature)
    if cached is not None:
        return cached
    if isinstance(node, Relation):
        out = stems.get(node.name, node)
    else:
        out = interner.rebuild(
            node,
            [_replace_leaves(child, stems, memo, interner) for child in node.children],
        )
    memo[node.signature] = out
    return out


def _stem_condition(stem: Operator) -> Optional[Expression]:
    """The selection condition a stem applies (if any)."""
    for node in stem.walk():
        if isinstance(node, Select):
            return node.predicate
    return None


# ---------------------------------------------------------------------------
# end-to-end design
# ---------------------------------------------------------------------------
@dataclass
class DesignResult:
    """Output of the full paper pipeline for one workload.

    Implements the :class:`~repro.mvpp.config.CostedResult` protocol
    (``query_cost`` / ``maintenance_cost`` / ``total_cost`` / ``views``),
    making it interchangeable with Table-2
    :class:`~repro.mvpp.strategies.StrategyResult` rows.
    """

    mvpp: MVPP
    materialized: List[Vertex]
    breakdown: CostBreakdown
    calculator: MVPPCostCalculator
    candidates: List[MVPP]
    config: DesignConfig = field(default_factory=lambda: DEFAULT_DESIGN_CONFIG)
    cache_stats: Optional[Dict[str, float]] = None
    lint_report: Optional[Any] = None  # LintReport when config.lint=True

    @property
    def materialized_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.materialized)

    @property
    def views(self) -> Tuple[str, ...]:
        """Protocol alias for the materialized vertex names."""
        return self.materialized_names

    @property
    def query_cost(self) -> float:
        return self.breakdown.query_processing

    @property
    def maintenance_cost(self) -> float:
        return self.breakdown.maintenance

    @property
    def total_cost(self) -> float:
        return self.breakdown.total


def _evaluate_candidate(payload: Tuple[Any, ...]) -> Tuple[Tuple[str, ...], CostBreakdown]:
    """Select views on one candidate MVPP; returns (names, breakdown).

    Module-level so process pools can run it.  Names (not Vertex
    objects) cross the worker boundary — the parent re-resolves them on
    its own MVPP instances, keeping object identity intact.
    """
    from repro.mvpp import strategies as strategy_registry

    mvpp, trigger, config, cache = payload
    calculator = MVPPCostCalculator(mvpp, trigger, cache=cache)
    strategy = strategy_registry.get_strategy(config.strategy)
    chosen = strategy(mvpp, calculator, config)
    breakdown = calculator.breakdown(chosen)
    return tuple(v.name for v in chosen), breakdown


def design(
    workload: Workload,
    config: Optional[DesignConfig] = None,
    estimator: Optional[CardinalityEstimator] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    cache: Optional[CostCache] = None,
) -> DesignResult:
    """Generate candidate MVPPs, select views on each, keep the cheapest.

    The unified entry point: every knob lives on ``config`` (a
    :class:`~repro.mvpp.config.DesignConfig`); ``estimator`` /
    ``cost_model`` stay separate because they are live objects, not
    configuration values.

    ``config.workers > 1`` fans the per-candidate Figure-9 selection
    out on the configured executor; ``config.cache`` shares one
    :class:`~repro.mvpp.cost.CostCache` across candidates (pass
    ``cache`` to reuse a caller-owned instance, e.g. the warehouse's).
    Results are bit-identical across worker counts and backends: tasks
    are collected in candidate order and ties keep the earlier
    candidate, exactly like the serial loop.

    ``config.include_naive`` adds one more candidate beyond the paper's
    Figure-4 rotations: the MVPP obtained by interning each query's
    individually-optimal plan unchanged (no join-pattern merge, no
    disjunctive push-down).  When queries already share identical
    subplans, that naive MVPP keeps selections exact and can beat the
    merged ones, whose disjunctive stems widen shared intermediates —
    see ``benchmarks/bench_ablation_merge.py``.
    """
    from repro.mvpp.builder import build_from_workload

    if config is None:
        config = DEFAULT_DESIGN_CONFIG
    elif not isinstance(config, DesignConfig):
        raise TypeError(
            f"design() takes a DesignConfig second, not {type(config).__name__}; "
            "pass an estimator as estimator="
        )

    estimator = estimator or CardinalityEstimator(workload.statistics)
    trigger = config.resolved_trigger(PER_PERIOD)
    if cache is None and config.cache:
        cache = CostCache()
    elif not config.cache:
        cache = None
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0

    with obs.span(
        "generation.design",
        workload=workload.name,
        strategy=config.strategy,
        workers=config.workers,
    ) as span:
        candidates = generate_mvpps(
            workload, estimator, cost_model, config=config
        )
        if config.include_naive:
            candidates = candidates + [
                build_from_workload(workload, estimator, cost_model)
            ]
        executor = resolve_executor(config.executor, config.workers)
        payloads = [
            (mvpp, trigger, config, cache) for mvpp in candidates
        ]
        evaluations = executor.map(_evaluate_candidate, payloads)

        best: Optional[DesignResult] = None
        for mvpp, (names, breakdown) in zip(candidates, evaluations):
            if best is not None and breakdown.total >= best.total_cost:
                continue
            calculator = MVPPCostCalculator(mvpp, trigger, cache=cache)
            best = DesignResult(
                mvpp=mvpp,
                materialized=[mvpp.vertex_by_name(n) for n in names],
                breakdown=breakdown,
                calculator=calculator,
                candidates=candidates,
                config=config,
            )
        assert best is not None  # generate_mvpps raises on empty workloads
        if config.lint:
            from repro.lint.semantic import lint_design

            report = lint_design(
                best.mvpp,
                best.materialized,
                calculator=best.calculator,
                workload=workload,
                policy=config.adaptive,
                streaming=config.streaming,
            )
            best.lint_report = report
            report.publish()
            span.set(lint_diagnostics=len(report.diagnostics))
            report.raise_on_errors()
        if cache is not None:
            cache.publish(hits_before, misses_before)
            best.cache_stats = cache.stats()
            span.set(
                cache_hits=cache.hits - hits_before,
                cache_misses=cache.misses - misses_before,
                cache_hit_ratio=cache.hit_ratio,
            )
        span.set(
            chosen=best.mvpp.name,
            materialized=list(best.materialized_names),
            total_cost=best.total_cost,
        )
    return best
