"""Merging individual query plans into one MVPP (paper Figure 4, step 4.3).

Merging operates on *join skeletons* — plans whose selections and
projections have been pulled up (Figure 4 step 2), leaving only base
relation leaves and join nodes.  The invariant the paper's step 4.3
maintains is: *reuse the join patterns already present in the MVPP*.  For
each incoming plan we

1. partition its leaf set into subsets that are already joined in the
   MVPP (largest first — the "common ancestor" nodes of step 4.3.2) plus
   leftover single leaves;
2. join those pieces left-deep, following the incoming plan's own join
   predicates, starting from the piece containing the plan's first leaf.

A pooled node is only reused when its join predicates agree exactly with
the incoming query's predicates over the same leaves — reusing a node with
different conditions would change the query's meaning.

Every node the merge builds goes through a :class:`PlanInterner`, so one
design builds each distinct plan node once, however many Figure-4
rotations reach it.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.algebra import predicates as P
from repro.algebra.expressions import Expression
from repro.algebra.operators import Join, Operator, Select, project_if
from repro.errors import MVPPError


class PlanInterner:
    """Hash-consed plan nodes: each distinct node is built once.

    A node's key is its operator class, its own
    :attr:`~repro.algebra.operators.Operator.parameters` and the
    identities of its children.  Children must be nodes this interner
    returned (:meth:`tree` interns a whole outside tree).  Keys are
    ordered, so ``A ⋈ B`` and ``B ⋈ A`` — one commutative signature but
    two schemas — stay two nodes.  Base leaves are canonical per
    ``(name, schema)``, so the same relation read by different queries
    is one leaf object.

    Sharing contract: plan nodes are immutable, so one interner serves
    every rotation of one :func:`~repro.mvpp.generation.generate_mvpps`
    call, and its nodes are shared by all of that design's candidate
    MVPPs.  Every id in a key belongs to a node the interner holds, so
    no id is reused while the interner lives.  Lookups are single dict
    operations, safe to share across the thread executor; a process
    worker unpickles an empty interner (ids mean nothing in another
    process), so it stays correct but shares nothing with its parent.
    """

    __slots__ = ("_nodes", "_trees")

    def __init__(self) -> None:
        self._nodes: Dict[Tuple[Any, ...], Operator] = {}
        # id(input tree) -> (input tree, interned copy); holding the input
        # keeps its id from being reused.
        self._trees: Dict[int, Tuple[Operator, Operator]] = {}

    def __reduce__(self) -> Tuple[type, Tuple[()]]:
        return (PlanInterner, ())

    def _get(self, key: Tuple[Any, ...], build: Callable[[], Operator]) -> Operator:
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes.setdefault(key, build())
        return node

    def rebuild(self, node: Operator, children: Sequence[Operator]) -> Operator:
        """``node.with_children(children)``, built once per key."""
        key = (type(node), node.parameters, *map(id, children))
        if all(a is b for a, b in zip(children, node.children)):
            return self._get(key, lambda: node)
        return self._get(key, lambda: node.with_children(children))

    def tree(self, node: Operator) -> Operator:
        """The interned copy of a whole plan tree (remembered per tree)."""
        known = self._trees.get(id(node))
        if known is not None:
            return known[1]
        interned = self.rebuild(node, [self.tree(child) for child in node.children])
        self._trees[id(node)] = (node, interned)
        return interned

    def join(
        self, left: Operator, right: Operator, condition: Optional[Expression]
    ) -> Operator:
        """``Join(left, right, condition)``, built once per key."""
        key = (
            Join,
            (None if condition is None else condition.signature,),
            id(left),
            id(right),
        )
        return self._get(key, lambda: Join(left, right, condition))

    def select(self, child: Operator, predicate: Optional[Expression]) -> Operator:
        """:func:`~repro.algebra.operators.select_if`, built once per key."""
        if predicate is None:
            return child
        key = (Select, (predicate.signature,), id(child))
        return self._get(key, lambda: Select(child, predicate))

    def project(self, child: Operator, attributes: Sequence[str]) -> Operator:
        """:func:`~repro.algebra.operators.project_if`, built once per key."""
        key = (project_if, tuple(attributes), id(child))
        return self._get(key, lambda: project_if(child, attributes))


def skeleton_join_conjuncts(skeleton: Operator) -> Tuple[Expression, ...]:
    """All join-condition conjuncts attached to joins of a skeleton."""
    return skeleton.join_conjuncts


class SkeletonPool:
    """The join nodes currently present in an MVPP under construction."""

    def __init__(self) -> None:
        self._nodes: List[Operator] = []  # creation order
        self._signatures: Set[str] = set()

    def add_tree(self, skeleton: Operator) -> None:
        """Register every subtree of ``skeleton`` as available for reuse."""
        for node in skeleton.walk():
            if node.signature not in self._signatures:
                self._signatures.add(node.signature)
                self._nodes.append(node)

    def reusable_pieces(
        self, leaf_names: AbstractSet[str], predicates: Sequence[Expression]
    ) -> List[Operator]:
        """Greedy maximal cover of ``leaf_names`` by existing join nodes.

        Only nodes whose internal join predicates match the query's
        predicates over the covered leaves are candidates.  Larger nodes
        are preferred; earlier-created nodes break ties (the paper keeps
        the join pattern of the more expensive, earlier-merged plans).
        """
        predicate_signatures = {p.signature for p in predicates}
        candidates = []
        for position, node in enumerate(self._nodes):
            if not isinstance(node, Join):
                continue
            node_leaves = node.leaf_names
            if not node_leaves <= leaf_names:
                continue
            if not self._conditions_match(node, predicates, predicate_signatures):
                continue
            candidates.append((len(node_leaves), -position, node, node_leaves))
        candidates.sort(key=lambda item: (-item[0], -item[1]))

        chosen: List[Operator] = []
        covered: Set[str] = set()
        for _, _, node, node_leaves in candidates:
            if node_leaves & covered:
                continue
            chosen.append(node)
            covered |= node_leaves
        return chosen

    @staticmethod
    def _conditions_match(
        node: Operator,
        query_predicates: Sequence[Expression],
        query_signatures: Set[str],
    ) -> bool:
        """Node reusable iff its predicates == query's predicates over its leaves."""
        node_signatures = {p.signature for p in node.join_conjuncts}
        if not node_signatures <= query_signatures:
            return False
        node_columns = set(node.schema.attribute_names)
        within = {
            p.signature
            for p in query_predicates
            if p.columns() <= node_columns
        }
        return within == node_signatures


def merge_skeletons(
    ordered: Sequence[Tuple[str, Operator]],
    interner: Optional[PlanInterner] = None,
) -> Dict[str, Operator]:
    """Merge query skeletons in the given order (Figure 4 steps 4.1–4.3).

    ``ordered`` holds ``(query name, join skeleton)`` pairs, most
    expensive plan first (the caller applies the ``fq · Ca`` ordering and
    the rotation).  Returns each query's merged skeleton; shared structure
    is shared as identical subtree objects, so interning the results into
    an :class:`~repro.mvpp.graph.MVPP` produces the shared DAG.  Every
    returned node comes from ``interner`` (a fresh one by default); pass
    one interner to every merge order of a design to share nodes across
    them.
    """
    interner = interner if interner is not None else PlanInterner()
    pool = SkeletonPool()
    merged: Dict[str, Operator] = {}
    for index, (name, skeleton) in enumerate(ordered):
        skeleton = interner.tree(skeleton)
        if index == 0:
            result = skeleton  # step 4.1/4.2: the seed keeps its join order
        else:
            result = _merge_one(skeleton, pool, interner)
        merged[name] = result
        pool.add_tree(result)
    return merged


def _merge_one(
    skeleton: Operator, pool: SkeletonPool, interner: PlanInterner
) -> Operator:
    predicates = skeleton.join_conjuncts
    pieces = pool.reusable_pieces(skeleton.leaf_names, predicates)
    if obs.enabled():
        registry = obs.metrics()
        registry.counter("generation.reuse_hits").inc(len(pieces))
        registry.counter("generation.reuse_covered_leaves").inc(
            sum(len(piece.leaves) for piece in pieces)
        )
        if not pieces:
            registry.counter("generation.reuse_misses").inc()
    covered = frozenset().union(*(piece.leaf_names for piece in pieces))
    for leaf in skeleton.leaves:
        if leaf.name not in covered:
            pieces.append(leaf)

    if len(pieces) == 1:
        return pieces[0]
    return _join_pieces(
        pieces, predicates, skeleton.leaves[0].name, interner
    )


def _join_pieces(
    pieces: List[Operator],
    predicates: Sequence[Expression],
    first_leaf: str,
    interner: PlanInterner,
) -> Operator:
    """Left-deep join of ``pieces`` along the query's join predicates."""
    remaining = list(pieces)
    pending = list(predicates)

    start = next(
        (p for p in remaining if first_leaf in p.leaf_names),
        remaining[0],
    )
    remaining.remove(start)
    current = start

    # Drop predicates already satisfied inside the pieces.
    def internal(piece: Operator) -> Set[str]:
        return {p.signature for p in piece.join_conjuncts}

    satisfied = internal(current)
    for piece in remaining:
        satisfied |= internal(piece)
    pending = [p for p in pending if p.signature not in satisfied]

    while remaining:
        chosen: Optional[Operator] = None
        for piece in remaining:
            if _connecting(pending, current, piece):
                chosen = piece
                break
        if chosen is None:
            chosen = remaining[0]  # cross join as a last resort
        remaining.remove(chosen)
        applicable = _connecting(pending, current, chosen)
        for predicate in applicable:
            pending.remove(predicate)
        current = interner.join(current, chosen, P.conjunction(applicable))
    if pending:
        raise MVPPError(
            f"join predicates left over after merging: "
            f"{[p.signature for p in pending]}"
        )
    return current


def _connecting(
    predicates: Sequence[Expression], left: Operator, right: Operator
) -> List[Expression]:
    left_cols = set(left.schema.attribute_names)
    right_cols = set(right.schema.attribute_names)
    out = []
    for predicate in predicates:
        columns = predicate.columns()
        if (
            columns & left_cols
            and columns & right_cols
            and columns <= (left_cols | right_cols)
        ):
            out.append(predicate)
    return out
