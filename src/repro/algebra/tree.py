"""Operator-tree utilities: search, replacement, structural queries.

Operators are immutable, so "mutation" helpers return rebuilt trees and
share unchanged subtrees with the input.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.algebra.operators import Operator, Relation


def find(root: Operator, match: Callable[[Operator], bool]) -> List[Operator]:
    """All nodes (post-order) for which ``match`` returns True."""
    return [node for node in root.walk() if match(node)]


def find_by_signature(root: Operator, signature: str) -> Optional[Operator]:
    """The first node whose signature equals ``signature``, or None."""
    for node in root.walk():
        if node.signature == signature:
            return node
    return None


def leaves(root: Operator) -> List[Relation]:
    """All base-relation leaves of the tree (left-to-right order)."""
    return list(root.leaves)


def replace(root: Operator, target_signature: str, replacement: Operator) -> Operator:
    """Rebuild ``root`` with every subtree matching ``target_signature``
    replaced by ``replacement``.

    Replacement short-circuits: nothing below a replaced subtree is
    visited.  Returns ``root`` unchanged (same object) when no match
    exists.
    """
    if root.signature == target_signature:
        return replacement
    new_children = tuple(
        replace(child, target_signature, replacement) for child in root.children
    )
    if all(new is old for new, old in zip(new_children, root.children)):
        return root
    return root.with_children(new_children)


def subtree_signatures(root: Operator) -> Dict[str, Operator]:
    """Map of signature -> node for every subtree (duplicates collapse)."""
    return {node.signature: node for node in root.walk()}


def contains(root: Operator, signature: str) -> bool:
    return find_by_signature(root, signature) is not None


def common_subexpressions(plans: Sequence[Operator]) -> Dict[str, List[Operator]]:
    """Subtrees appearing in more than one plan.

    Returns signature -> one representative node per plan that contains
    it.  Leaf relations are excluded: sharing a base relation is not a
    common *subexpression* in the paper's sense (Section 3.1 requires a
    shared operation result).
    """
    per_plan: List[Dict[str, Operator]] = [subtree_signatures(p) for p in plans]
    counts: Dict[str, List[Operator]] = {}
    for plan_map in per_plan:
        for signature, node in plan_map.items():
            if isinstance(node, Relation):
                continue
            counts.setdefault(signature, []).append(node)
    return {s: nodes for s, nodes in counts.items() if len(nodes) > 1}


def maximal_common_subexpressions(
    plans: Sequence[Operator],
) -> Dict[str, List[Operator]]:
    """Common subexpressions not contained in a larger common subexpression.

    These are the profitable sharing points: materializing a maximal
    shared node subsumes the benefit of materializing its shared
    descendants for the same pair of queries.
    """
    shared = common_subexpressions(plans)
    maximal = {}
    for signature, nodes in shared.items():
        node = nodes[0]
        enclosed = any(
            signature != other_sig
            and contains(shared[other_sig][0], signature)
            for other_sig in shared
        )
        if not enclosed:
            maximal[signature] = nodes
    return maximal
