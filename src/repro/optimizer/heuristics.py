"""The single-query optimization pipeline.

``optimize_query`` is the paper's step 1 ("for each query, generate an
optimal query processing plan"): selections are pushed onto their
relations, join order is chosen by exact dynamic programming (greedy for
very wide queries), residual predicates/aggregation/projection are
re-applied on top.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra import predicates as P
from repro.algebra.operators import Operator, project_if, select_if
from repro.algebra.rewrite import pull_up, push_down_projections
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.optimizer.join_order import MAX_DP_RELATIONS, best_join_tree
from repro.optimizer.plans import AnnotatedPlan


def optimize_query(
    plan: Operator,
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    push_projections: bool = False,
    max_dp_relations: int = MAX_DP_RELATIONS,
) -> Operator:
    """Return the optimized operator tree for a single query.

    ``push_projections=False`` (the default) keeps the projection at the
    top of the plan — the form the MVPP generator consumes, since Figure 4
    merges join patterns first and pushes projections down only at the
    very end (its step 6).  Pass ``True`` for a standalone executable plan
    with leaf-level projections.
    """
    pulled = pull_up(plan)

    # Split the residual selection into join predicates (for the join
    # enumerator), per-leaf selections, and whatever spans several leaves.
    selections, joins = P.split_selection_and_join(pulled.selection)
    join_predicates = list(joins) + list(pulled.skeleton.join_conjuncts)

    leaf_plans: List[Operator] = []
    remaining = list(selections)
    for leaf in pulled.skeleton.leaves:
        columns = set(leaf.schema.attribute_names)
        mine = [s for s in remaining if s.columns() <= columns]
        for predicate in mine:
            remaining.remove(predicate)
        leaf_plans.append(select_if(leaf, P.conjunction(mine)))

    body = best_join_tree(
        leaf_plans,
        join_predicates,
        estimator,
        cost_model,
        max_dp_relations=max_dp_relations,
    )
    body = select_if(body, P.conjunction(remaining))
    if pulled.aggregate is not None:
        body = pulled.aggregate.with_children((body,))
    result = project_if(body, pulled.projection, distinct=pulled.distinct)
    if push_projections:
        result = push_down_projections(result, result.schema.attribute_names)
    return pulled.decorate(result)


def annotate(
    plan: Operator,
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> AnnotatedPlan:
    """Convenience: wrap ``plan`` in an :class:`AnnotatedPlan`."""
    return AnnotatedPlan(plan, estimator, cost_model)


