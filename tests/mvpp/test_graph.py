"""Unit tests for the MVPP DAG structure."""

import pytest

from repro.errors import MVPPError
from repro.mvpp.graph import MVPP, VertexKind
from repro.mvpp.builder import build_from_workload
from repro.sql.translator import parse_query
from repro.optimizer.heuristics import optimize_query


@pytest.fixture(scope="module")
def mvpp(workload, estimator):
    """An MVPP built straight from the four optimized query plans."""
    return build_from_workload(workload, estimator)


class TestConstruction:
    def test_roots_and_leaves(self, mvpp):
        assert {r.name for r in mvpp.roots} == {"Q1", "Q2", "Q3", "Q4"}
        assert {l.name for l in mvpp.leaves} == {
            "Product",
            "Division",
            "Order",
            "Customer",
            "Part",
        }

    def test_duplicate_query_rejected(self, workload, estimator):
        mvpp = MVPP()
        plan = optimize_query(
            parse_query(workload.query("Q1").sql, workload.catalog), estimator
        )
        mvpp.add_query("Q1", plan, 10.0)
        with pytest.raises(MVPPError):
            mvpp.add_query("Q1", plan, 10.0)

    def test_negative_frequency_rejected(self, workload, estimator):
        mvpp = MVPP()
        plan = optimize_query(
            parse_query(workload.query("Q1").sql, workload.catalog), estimator
        )
        with pytest.raises(MVPPError):
            mvpp.add_query("Qx", plan, -1.0)

    def test_common_subexpressions_shared(self, workload, estimator):
        """Q1 and Q2 share Product ⋈ σ(Division): one vertex, two queries."""
        mvpp = build_from_workload(workload, estimator)
        shared = [
            v
            for v in mvpp.operations
            if len(mvpp.queries_using(v)) >= 2
        ]
        assert shared, "expected at least one shared subexpression vertex"

    def test_signature_deduplication(self, mvpp):
        signatures = [v.signature for v in mvpp.operations]
        assert len(signatures) == len(set(signatures))

    def test_operation_names_assigned(self, mvpp):
        names = [v.name for v in mvpp.operations]
        assert all(name.startswith("tmp") for name in names)
        assert len(set(names)) == len(names)


class TestTraversal:
    def test_children_parents_consistency(self, mvpp):
        for vertex in mvpp:
            for child in mvpp.children_of(vertex):
                assert vertex.vertex_id in child.parents
            for parent in mvpp.parents_of(vertex):
                assert vertex.vertex_id in parent.children

    def test_leaf_has_no_children_root_no_parents(self, mvpp):
        for leaf in mvpp.leaves:
            assert leaf.children == ()
        for root in mvpp.roots:
            assert root.parents == set()

    def test_descendants_of_root_cover_its_bases(self, mvpp):
        root = mvpp.query_root("Q3")
        bases = {v.name for v in mvpp.base_relations_of(root)}
        assert bases == {"Product", "Division", "Order", "Customer"}

    def test_ov_contains_expected_queries(self, mvpp):
        # The Product⋈σ(Division) vertex feeds Q1, Q2 and Q3.
        candidates = [
            v
            for v in mvpp.operations
            if v.operator.base_relations() == frozenset({"Product", "Division"})
        ]
        assert candidates
        queries = {
            q.name for q in mvpp.queries_using(candidates[0])
        }
        assert {"Q1", "Q2", "Q3"} <= queries

    def test_topological_order_children_first(self, mvpp):
        seen = set()
        for vertex in mvpp.topological_order():
            assert all(c in seen for c in vertex.children)
            seen.add(vertex.vertex_id)

    def test_topological_order_matches_sorted_list_reference(
        self, workload, estimator
    ):
        """The heapq Kahn rewrite must emit exactly the order the original
        sort-the-ready-list-per-iteration implementation produced, on every
        paper-workload MVPP."""
        from repro.mvpp import generate_mvpps

        def reference_order(graph):
            in_degree = {
                i: len(v.children) for i, v in graph._vertices.items()
            }
            ready = sorted(i for i, d in in_degree.items() if d == 0)
            order = []
            while ready:
                current = ready.pop(0)
                order.append(graph._vertices[current])
                for parent in graph._vertices[current].parents:
                    in_degree[parent] -= 1
                    if in_degree[parent] == 0:
                        ready.append(parent)
                ready.sort()
            return order

        for graph in generate_mvpps(workload, estimator):
            expected = [v.vertex_id for v in reference_order(graph)]
            actual = [v.vertex_id for v in graph.topological_order()]
            assert actual == expected

    def test_vertex_by_name(self, mvpp):
        assert mvpp.vertex_by_name("Q1").is_root
        with pytest.raises(MVPPError):
            mvpp.vertex_by_name("nope")

    def test_queries_using_root_is_itself(self, mvpp):
        root = mvpp.query_root("Q1")
        assert mvpp.queries_using(root) == (root,)

    def test_reachability_memo_follows_new_queries(self, workload, estimator):
        """Memoized ``S*``/``D*``/``Ov``/``Iv`` see vertices added later."""

        def plan(name):
            raw = parse_query(workload.query(name).sql, workload.catalog)
            return optimize_query(raw, estimator)

        def reachable(vertex, arcs):
            seen, stack = set(), list(arcs(vertex))
            while stack:
                current = stack.pop()
                if current not in seen:
                    seen.add(current)
                    stack.extend(arcs(graph.vertex(current)))
            return seen

        def query_all():
            return {
                v.vertex_id: (
                    graph.descendants(v),
                    graph.ancestors(v),
                    graph.queries_using(v),
                    graph.base_relations_of(v),
                )
                for v in graph
            }

        graph = MVPP()
        graph.add_query("Q1", plan("Q1"), 10.0)
        before = query_all()
        graph.add_query("Q2", plan("Q2"), 5.0)  # shares Product ⋈ σ(Division)
        after = query_all()

        q2 = graph.query_root("Q2")
        shared = [
            vertex_id
            for vertex_id in before
            if q2 in after[vertex_id][2] and not graph.vertex(vertex_id).is_root
        ]
        assert shared, "Q2 should reuse a vertex Q1 built"
        for vertex_id in shared:
            assert q2.vertex_id in after[vertex_id][1]
            assert q2.vertex_id not in before[vertex_id][1]
        for vertex in graph:
            down, up, queries, bases = after[vertex.vertex_id]
            assert down == reachable(vertex, lambda v: v.children)
            assert up == reachable(vertex, lambda v: v.parents)
            if not vertex.is_root:
                assert [q.vertex_id for q in queries] == sorted(
                    i for i in up if graph.vertex(i).is_root
                )
            if not vertex.is_leaf:
                assert [b.vertex_id for b in bases] == sorted(
                    i for i in down if graph.vertex(i).is_leaf
                )

        vertex = graph.vertex(shared[0])
        down, up, queries, bases = after[shared[0]]
        with pytest.raises(AttributeError):
            down.add(-1)
        with pytest.raises(AttributeError):
            up.add(-1)
        with pytest.raises(AttributeError):
            queries.append(vertex)
        with pytest.raises(AttributeError):
            bases.append(vertex)
        mine = set(graph.ancestors(vertex))
        mine.add(-1)
        assert -1 not in graph.ancestors(vertex)
        graph.validate()


class TestAnnotation:
    def test_leaf_costs_zero(self, mvpp):
        for leaf in mvpp.leaves:
            assert leaf.access_cost == 0.0
            assert leaf.maintenance_cost == 0.0

    def test_ca_monotone_along_arcs(self, mvpp):
        for vertex in mvpp.operations:
            for child in mvpp.children_of(vertex):
                assert vertex.access_cost >= child.access_cost

    def test_query_root_inherits_child_cost(self, mvpp):
        for root in mvpp.roots:
            child = mvpp.children_of(root)[0]
            assert root.access_cost == child.access_cost

    def test_cm_equals_ca_without_write_cost(self, mvpp):
        for vertex in mvpp.operations:
            assert vertex.maintenance_cost == vertex.access_cost

    def test_update_frequencies_applied(self, mvpp, workload):
        for leaf in mvpp.leaves:
            assert leaf.frequency == workload.update_frequency(leaf.name)

    def test_structure_signature_stable(self, workload, estimator):
        a = build_from_workload(workload, estimator)
        b = build_from_workload(workload, estimator)
        assert a.structure_signature() == b.structure_signature()

    def test_require_annotation(self, workload, estimator):
        mvpp = MVPP()
        plan = optimize_query(
            parse_query(workload.query("Q1").sql, workload.catalog), estimator
        )
        mvpp.add_query("Q1", plan, 10.0)
        with pytest.raises(MVPPError):
            mvpp.require_annotation()

    def test_describe_renders_every_vertex(self, mvpp):
        text = mvpp.describe()
        for vertex in mvpp:
            assert vertex.name in text
