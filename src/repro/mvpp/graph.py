"""The Multiple View Processing Plan (MVPP) DAG.

Paper Section 3.1: an MVPP is a labeled DAG ``M = (V, A, R, Ca, Cm, fq,
fu)`` whose leaves are base relations (update frequency ``fu``), whose
roots are warehouse queries (access frequency ``fq``), and whose interior
vertices are relational operations annotated with an access cost ``Ca``
(cost of computing the vertex's relation from base relations) and a
maintenance cost ``Cm`` (cost of refreshing the vertex if materialized).

Vertices are deduplicated by operator signature, so feeding several query
plans that share subexpressions into :meth:`MVPP.add_query` produces the
shared structure automatically — the merge of common subexpressions the
paper describes for Figure 2(b).

Structural reachability (``S*``, ``D*``, ``Ov``, ``Iv``) is computed once
per vertex and memoized until the next structural change.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.algebra.operators import Operator, Relation
from repro.catalog.statistics import RelationStatistics
from repro.errors import MVPPError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel, DEFAULT_COST_MODEL


class VertexKind(enum.Enum):
    """Role of a vertex in the MVPP DAG."""

    BASE = "base"  # leaf: a member-database relation (paper's □)
    OPERATION = "operation"  # interior: an algebra operation result
    QUERY = "query"  # root: a warehouse query (paper's ●)


@dataclass
class Vertex:
    """One MVPP vertex.

    ``operator`` is the algebra subtree computing this vertex's relation
    ``R(v)``; for BASE vertices it is the :class:`Relation` leaf itself.
    ``children`` are the source vertices ``S(v)`` and ``parents`` the
    destinations ``D(v)``.
    """

    vertex_id: int
    name: str
    kind: VertexKind
    operator: Operator
    children: Tuple[int, ...]
    parents: Set[int] = field(default_factory=set)
    frequency: float = 0.0  # fq for QUERY vertices, fu for BASE vertices
    stats: Optional[RelationStatistics] = None
    local_cost: float = 0.0
    access_cost: float = 0.0  # the paper's Ca(v)
    maintenance_cost: float = 0.0  # the paper's Cm(v)

    @property
    def signature(self) -> str:
        return self.operator.signature

    @property
    def is_leaf(self) -> bool:
        return self.kind is VertexKind.BASE

    @property
    def is_root(self) -> bool:
        return self.kind is VertexKind.QUERY

    def __repr__(self) -> str:
        return f"Vertex({self.name}, {self.kind.value})"


class MVPP:
    """A Multiple View Processing Plan over a set of warehouse queries."""

    def __init__(self, name: str = "mvpp"):
        self.name = name
        self._vertices: Dict[int, Vertex] = {}
        self._by_signature: Dict[str, int] = {}
        self._query_roots: Dict[str, int] = {}  # query name -> QUERY vertex id
        self._next_id = 0
        self._annotated = False
        self._scan_cost_model: Optional[CostModel] = None
        # Reachability memos, per vertex id; cleared by _forget_reachability
        # on every new vertex or arc.
        self._descendants: Dict[int, FrozenSet[int]] = {}
        self._ancestors: Dict[int, FrozenSet[int]] = {}
        self._queries_using: Dict[int, Tuple[Vertex, ...]] = {}
        self._base_relations: Dict[int, Tuple[Vertex, ...]] = {}

    # ----------------------------------------------------------- construction
    def add_query(self, name: str, plan: Operator, frequency: float) -> Vertex:
        """Add a warehouse query's plan, sharing existing subexpressions.

        Every subtree of ``plan`` becomes (or reuses) a vertex; a QUERY
        root vertex named ``name`` is placed above the plan's result.
        """
        if name in self._query_roots:
            raise MVPPError(f"query {name!r} already present in MVPP")
        if frequency < 0:
            raise MVPPError(f"query frequency must be >= 0: {frequency}")
        result_vertex = self._intern(plan)
        root = self._new_vertex(
            name=name,
            kind=VertexKind.QUERY,
            operator=plan,
            children=(result_vertex.vertex_id,),
            register_signature=False,
        )
        root.frequency = frequency
        self._link(result_vertex, root)
        self._query_roots[name] = root.vertex_id
        self._annotated = False
        return root

    def set_update_frequency(self, relation: str, frequency: float) -> None:
        """Set ``fu`` for a base relation vertex."""
        vertex = self.vertex_by_name(relation)
        if not vertex.is_leaf:
            raise MVPPError(f"{relation!r} is not a base relation vertex")
        vertex.frequency = frequency

    def _intern(self, operator: Operator) -> Vertex:
        """Get-or-create the vertex for ``operator`` (recursively)."""
        existing = self._by_signature.get(operator.signature)
        if existing is not None:
            return self._vertices[existing]
        child_vertices = [self._intern(child) for child in operator.children]
        if isinstance(operator, Relation):
            vertex = self._new_vertex(
                name=operator.name,
                kind=VertexKind.BASE,
                operator=operator,
                children=(),
            )
            vertex.frequency = 1.0  # the paper's default: one update/period
            return vertex
        vertex = self._new_vertex(
            name="",  # operation names are assigned topologically later
            kind=VertexKind.OPERATION,
            operator=operator,
            children=tuple(c.vertex_id for c in child_vertices),
        )
        for child in child_vertices:
            self._link(child, vertex)
        return vertex

    def _link(self, child: Vertex, parent: Vertex) -> None:
        """Add the back-link of the arc ``child -> parent``."""
        child.parents.add(parent.vertex_id)
        self._forget_reachability()

    def _forget_reachability(self) -> None:
        self._descendants.clear()
        self._ancestors.clear()
        self._queries_using.clear()
        self._base_relations.clear()

    def _new_vertex(
        self,
        name: str,
        kind: VertexKind,
        operator: Operator,
        children: Tuple[int, ...],
        register_signature: bool = True,
    ) -> Vertex:
        vertex = Vertex(
            vertex_id=self._next_id,
            name=name,
            kind=kind,
            operator=operator,
            children=children,
        )
        self._vertices[vertex.vertex_id] = vertex
        if register_signature:
            self._by_signature[operator.signature] = vertex.vertex_id
        self._next_id += 1
        self._annotated = False
        self._forget_reachability()
        return vertex

    def assign_names(self, prefix: str = "tmp") -> None:
        """Name operation vertices ``tmp1, tmp2, ...`` in topological order,
        mirroring the paper's figure labels."""
        counter = 1
        for vertex in self.topological_order():
            if vertex.kind is VertexKind.OPERATION:
                vertex.name = f"{prefix}{counter}"
                counter += 1

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex(self, vertex_id: int) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise MVPPError(f"no vertex with id {vertex_id}") from None

    def vertex_by_signature(self, signature: str) -> Optional[Vertex]:
        vertex_id = self._by_signature.get(signature)
        return self._vertices[vertex_id] if vertex_id is not None else None

    def vertex_by_name(self, name: str) -> Vertex:
        for vertex in self._vertices.values():
            if vertex.name == name:
                return vertex
        raise MVPPError(f"no vertex named {name!r}")

    @property
    def leaves(self) -> List[Vertex]:
        """Base-relation vertices (the paper's ``L``)."""
        return [v for v in self._vertices.values() if v.is_leaf]

    @property
    def roots(self) -> List[Vertex]:
        """Query vertices (the paper's ``R``)."""
        return [self._vertices[i] for i in self._query_roots.values()]

    @property
    def operations(self) -> List[Vertex]:
        """Interior operation vertices — the materialization candidates."""
        return [
            v for v in self._vertices.values() if v.kind is VertexKind.OPERATION
        ]

    @property
    def query_names(self) -> Tuple[str, ...]:
        return tuple(self._query_roots)

    def query_root(self, name: str) -> Vertex:
        try:
            return self._vertices[self._query_roots[name]]
        except KeyError:
            raise MVPPError(f"no query named {name!r}") from None

    # ------------------------------------------------------------- traversal
    def children_of(self, vertex: Vertex) -> List[Vertex]:
        """``S(v)``: immediate sources."""
        return [self._vertices[i] for i in vertex.children]

    def parents_of(self, vertex: Vertex) -> List[Vertex]:
        """``D(v)``: immediate destinations."""
        return [self._vertices[i] for i in sorted(vertex.parents)]

    def descendants(self, vertex: Vertex) -> FrozenSet[int]:
        """``S*{v}``: every vertex below ``v`` (excluding ``v``)."""
        memo = self._descendants.get(vertex.vertex_id)
        if memo is None:
            below = set(vertex.children)
            for child_id in vertex.children:
                below |= self.descendants(self._vertices[child_id])
            memo = self._descendants[vertex.vertex_id] = frozenset(below)
        return memo

    def ancestors(self, vertex: Vertex) -> FrozenSet[int]:
        """``D*{v}``: every vertex above ``v`` (excluding ``v``)."""
        memo = self._ancestors.get(vertex.vertex_id)
        if memo is None:
            above = set(vertex.parents)
            for parent_id in vertex.parents:
                above |= self.ancestors(self._vertices[parent_id])
            memo = self._ancestors[vertex.vertex_id] = frozenset(above)
        return memo

    def queries_using(self, vertex: Vertex) -> Tuple[Vertex, ...]:
        """``Ov = R ∩ D*{v}``: query roots reachable above ``v``, by id."""
        if vertex.is_root:
            return (vertex,)
        queries = self._queries_using.get(vertex.vertex_id)
        if queries is None:
            queries = tuple(
                self._vertices[i]
                for i in sorted(self.ancestors(vertex))
                if self._vertices[i].is_root
            )
            self._queries_using[vertex.vertex_id] = queries
        return queries

    def base_relations_of(self, vertex: Vertex) -> Tuple[Vertex, ...]:
        """``Iv = L ∩ S*{v}``: base relations feeding ``v``, by id."""
        if vertex.is_leaf:
            return (vertex,)
        bases = self._base_relations.get(vertex.vertex_id)
        if bases is None:
            bases = tuple(
                self._vertices[i]
                for i in sorted(self.descendants(vertex))
                if self._vertices[i].is_leaf
            )
            self._base_relations[vertex.vertex_id] = bases
        return bases

    def topological_order(self) -> List[Vertex]:
        """Vertices ordered children-before-parents (stable by id).

        Kahn's algorithm over a min-heap of ready vertex ids: O(E log V)
        with exactly the order the old sort-the-ready-list-per-iteration
        implementation produced (always emit the smallest ready id).
        """
        in_degree = {i: len(v.children) for i, v in self._vertices.items()}
        ready = [i for i, d in in_degree.items() if d == 0]
        heapq.heapify(ready)
        order: List[Vertex] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(self._vertices[current])
            for parent in self._vertices[current].parents:
                in_degree[parent] -= 1
                if in_degree[parent] == 0:
                    heapq.heappush(ready, parent)
        if len(order) != len(self._vertices):
            raise MVPPError("MVPP contains a cycle")  # unreachable by construction
        return order

    def validate(self) -> None:
        """Check structural invariants; raises :class:`MVPPError` on any
        violation.  Invariants:

        * arcs are symmetric (``v ∈ children(p)`` iff ``p ∈ parents(v)``);
        * leaves are exactly the BASE vertices, roots exactly the QUERY
          vertices, and every query name maps to a live root;
        * the signature index maps back to the right vertices;
        * every OPERATION vertex's operator children match its arc
          children by signature;
        * the graph is acyclic (via :meth:`topological_order`).
        """
        for vertex in self._vertices.values():
            for child_id in vertex.children:
                child = self._vertices.get(child_id)
                if child is None:
                    raise MVPPError(
                        f"{vertex.name}: dangling child id {child_id}"
                    )
                if vertex.vertex_id not in child.parents:
                    raise MVPPError(
                        f"arc {child.name} -> {vertex.name} missing back-link"
                    )
            for parent_id in vertex.parents:
                parent = self._vertices.get(parent_id)
                if parent is None or vertex.vertex_id not in parent.children:
                    raise MVPPError(
                        f"arc {vertex.name} -> parent {parent_id} inconsistent"
                    )
            if vertex.is_leaf and vertex.children:
                raise MVPPError(f"BASE vertex {vertex.name} has children")
            if vertex.is_root and vertex.parents:
                raise MVPPError(f"QUERY vertex {vertex.name} has parents")
            if vertex.kind is VertexKind.OPERATION:
                expected = [c.signature for c in vertex.operator.children]
                actual = [
                    self._vertices[i].signature for i in vertex.children
                ]
                if sorted(expected) != sorted(actual):
                    raise MVPPError(
                        f"{vertex.name}: operator children disagree with arcs"
                    )
        for name, root_id in self._query_roots.items():
            root = self._vertices.get(root_id)
            if root is None or not root.is_root:
                raise MVPPError(f"query {name!r} has no live root vertex")
        for signature, vertex_id in self._by_signature.items():
            vertex = self._vertices.get(vertex_id)
            if vertex is None or vertex.signature != signature:
                raise MVPPError(f"signature index corrupt at {signature!r}")
        self.topological_order()  # raises on cycles

    def structure_signature(self) -> FrozenSet[str]:
        """Canonical identity of the DAG: the set of vertex signatures.

        Two MVPPs with equal structure signatures share every node and
        every sharing opportunity — the criterion under which the paper
        calls Figure 6(a) and 6(b) equivalent.
        """
        return frozenset(
            v.signature
            for v in self._vertices.values()
            if v.kind is not VertexKind.QUERY
        )

    # ------------------------------------------------------------ annotation
    def annotate(
        self,
        estimator: CardinalityEstimator,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        maintenance_write: bool = False,
    ) -> None:
        """Compute stats, local costs, ``Ca`` and ``Cm`` for every vertex.

        ``Ca(v)`` is the cumulative cost of producing ``R(v)`` from base
        relations (leaves cost 0, as in the paper).  ``Cm(v) = Ca(v)``
        under recompute maintenance; with ``maintenance_write=True`` the
        cost of writing the materialized result (its block count) is
        added.
        """
        for vertex in self.topological_order():
            vertex.stats = estimator.estimate(vertex.operator)
            if vertex.kind is VertexKind.QUERY:
                vertex.local_cost = 0.0
                child = self._vertices[vertex.children[0]]
                vertex.access_cost = child.access_cost
                vertex.maintenance_cost = child.maintenance_cost
                continue
            vertex.local_cost = cost_model.local_cost(vertex.operator, estimator)
            vertex.access_cost = vertex.local_cost + sum(
                self._vertices[c].access_cost for c in vertex.children
            )
            if vertex.is_leaf:
                vertex.access_cost = 0.0
                vertex.maintenance_cost = 0.0
            else:
                vertex.maintenance_cost = vertex.access_cost + (
                    vertex.stats.blocks if maintenance_write else 0.0
                )
        self._annotated = True
        self._scan_cost_model = cost_model

    @property
    def is_annotated(self) -> bool:
        return self._annotated

    def require_annotation(self) -> None:
        if not self._annotated:
            raise MVPPError(
                "MVPP is not annotated; call annotate(estimator, cost_model) first"
            )

    # -------------------------------------------------------------- rendering
    def describe(self) -> str:
        """Multi-line summary: one row per vertex in topological order."""
        self_rows = []
        for vertex in self.topological_order():
            freq = ""
            if vertex.is_root:
                freq = f" fq={vertex.frequency:g}"
            elif vertex.is_leaf:
                freq = f" fu={vertex.frequency:g}"
            stats = ""
            if vertex.stats is not None:
                stats = (
                    f" rows={vertex.stats.cardinality}"
                    f" blocks={vertex.stats.blocks}"
                    f" Ca={vertex.access_cost:,.0f}"
                )
            children = ",".join(self._vertices[c].name for c in vertex.children)
            self_rows.append(
                f"{vertex.name:>10} [{vertex.kind.value:9}]{freq}{stats}"
                + (f"  <- {children}" if children else "")
                + f"  {vertex.operator.label}"
            )
        return "\n".join(self_rows)
