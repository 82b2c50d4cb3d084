"""Unit tests for site-aware MVPP costing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.comm_cost import DistributedCostCalculator
from repro.distributed.partition import PartitionScheme
from repro.distributed.sharding import ShardCatalog
from repro.distributed.sites import Topology
from repro.errors import DistributedError
from repro.mvpp import design
from repro.mvpp.cost import MVPPCostCalculator
from repro.mvpp.materialization import select_views


PLACEMENT = {
    "Product": "s1",
    "Division": "s1",
    "Order": "s2",
    "Customer": "s2",
    "Part": "s1",
}


@pytest.fixture()
def setup(paper_mvpp):
    topology = Topology(["wh", "s1", "s2"], default_link_cost=2.0)
    placement = dict(PLACEMENT)
    calculator = DistributedCostCalculator(
        paper_mvpp, topology, placement, warehouse_site="wh"
    )
    return topology, placement, calculator


class TestValidation:
    def test_missing_placement_rejected(self, paper_mvpp):
        topology = Topology(["wh", "s1"])
        with pytest.raises(DistributedError):
            DistributedCostCalculator(
                paper_mvpp, topology, {"Product": "s1"}, warehouse_site="wh"
            )

    def test_unknown_site_rejected(self, paper_mvpp):
        topology = Topology(["wh"])
        placement = {
            leaf.name: "nowhere" for leaf in paper_mvpp.leaves
        }
        with pytest.raises(DistributedError):
            DistributedCostCalculator(
                paper_mvpp, topology, placement, warehouse_site="wh"
            )

    def test_unknown_warehouse_rejected(self, paper_mvpp):
        topology = Topology(["s1"])
        placement = {leaf.name: "s1" for leaf in paper_mvpp.leaves}
        with pytest.raises(DistributedError):
            DistributedCostCalculator(
                paper_mvpp, topology, placement, warehouse_site="wh"
            )


class TestCosting:
    def test_virtual_queries_pay_transfer(self, paper_mvpp, setup):
        _, _, distributed = setup
        centralized = MVPPCostCalculator(paper_mvpp)
        assert (
            distributed.query_processing_cost(frozenset())
            > centralized.query_processing_cost(frozenset())
        )

    def test_leaf_transfer_cost(self, paper_mvpp, setup):
        _, _, calculator = setup
        product = paper_mvpp.vertex_by_name("Product")
        assert calculator.leaf_transfer_cost(product) == 2.0 * 3_000

    def test_materialized_views_read_locally(self, paper_mvpp, setup):
        _, _, calculator = setup
        vertex = paper_mvpp.operations[0]
        cost = calculator.access_cost(vertex, frozenset({vertex.vertex_id}))
        assert cost == vertex.stats.blocks  # no transfer term

    def test_maintenance_includes_lineage_transfer(self, paper_mvpp, setup):
        _, _, distributed = setup
        centralized = MVPPCostCalculator(paper_mvpp)
        vertex = paper_mvpp.operations[0]
        assert distributed.maintenance_cost(
            frozenset({vertex.vertex_id})
        ) > centralized.maintenance_cost(frozenset({vertex.vertex_id}))

    def test_annotated_frequencies_reweigh_to_breakdown(self, workload):
        """Re-weighing the paper design at its own annotated frequencies
        changes nothing: the refresh keeps its lineage-transfer term."""
        result = design(workload)
        mvpp = result.mvpp
        calculator = DistributedCostCalculator(
            mvpp,
            Topology(["wh", "s1", "s2"], default_link_cost=2.0),
            PLACEMENT,
            warehouse_site="wh",
        )
        reweighed = calculator.breakdown_with_frequencies(
            result.materialized,
            {root.name: root.frequency for root in mvpp.roots},
            {leaf.name: leaf.frequency for leaf in mvpp.leaves},
        )
        assert reweighed == calculator.breakdown(result.materialized)
        assert reweighed.maintenance > result.maintenance_cost

    def test_weight_grows_with_transfer(self, paper_mvpp, setup):
        """Materialization is *more* attractive when lineage is remote and
        queried often: weight under distributed costing should be at least
        the centralized weight for multi-query shared nodes."""
        _, _, distributed = setup
        centralized = MVPPCostCalculator(paper_mvpp)
        shared = [
            v
            for v in paper_mvpp.operations
            if len(paper_mvpp.queries_using(v)) >= 2
        ]
        assert any(
            distributed.weight(v) > centralized.weight(v) for v in shared
        )

    def test_selection_works_under_distributed_costs(self, paper_mvpp, setup):
        _, _, calculator = setup
        result = select_views(paper_mvpp, calculator)
        chosen = calculator.breakdown(result.materialized).total
        assert chosen <= calculator.breakdown(()).total


class TestCentralizedAgreement:
    """With zero transfer cost the two calculators must agree exactly.

    The distributed calculator only relocates data — it inherits the
    traversal (including the stats-presence guards) from
    ``MVPPCostCalculator``, so free links collapse it to the
    centralized model for *every* materialization choice.
    """

    @pytest.fixture()
    def free_links(self, paper_mvpp):
        topology = Topology(["wh", "s1", "s2"], default_link_cost=0.0)
        placement = {
            "Product": "s1",
            "Division": "s1",
            "Order": "s2",
            "Customer": "s2",
            "Part": "s1",
        }
        return DistributedCostCalculator(
            paper_mvpp, topology, placement, warehouse_site="wh"
        )

    def test_empty_set_agrees(self, paper_mvpp, free_links):
        centralized = MVPPCostCalculator(paper_mvpp)
        assert free_links.query_processing_cost(
            frozenset()
        ) == centralized.query_processing_cost(frozenset())

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agrees_for_any_materialized_set(self, data, paper_mvpp):
        """Zero transfer ⇒ distributed == centralized, for *random*
        materialized sets (the property form of the _access-guard fix)."""
        topology = Topology(["wh", "s1"], default_link_cost=0.0)
        placement = {leaf.name: "s1" for leaf in paper_mvpp.leaves}
        distributed = DistributedCostCalculator(
            paper_mvpp, topology, placement, warehouse_site="wh"
        )
        centralized = MVPPCostCalculator(paper_mvpp)
        ids = [v.vertex_id for v in paper_mvpp.operations]
        materialized = frozenset(
            data.draw(st.sets(st.sampled_from(ids)))
        )
        assert distributed.query_processing_cost(
            materialized
        ) == pytest.approx(
            centralized.query_processing_cost(materialized)
        )
        assert distributed.maintenance_cost(
            materialized
        ) == pytest.approx(centralized.maintenance_cost(materialized))

    def test_agrees_for_sampled_materialized_sets(
        self, paper_mvpp, free_links
    ):
        centralized = MVPPCostCalculator(paper_mvpp)
        operations = list(paper_mvpp.operations)
        # Every singleton plus a few mixed sets: stats-less vertices
        # included, which is exactly where the _access guards must match.
        candidate_sets = [frozenset()]
        candidate_sets += [
            frozenset({v.vertex_id}) for v in operations
        ]
        candidate_sets += [
            frozenset(v.vertex_id for v in operations[::2]),
            frozenset(v.vertex_id for v in operations[1::2]),
            frozenset(v.vertex_id for v in operations),
        ]
        for materialized in candidate_sets:
            assert free_links.query_processing_cost(
                materialized
            ) == pytest.approx(
                centralized.query_processing_cost(materialized)
            )
            assert free_links.maintenance_cost(
                materialized
            ) == pytest.approx(
                centralized.maintenance_cost(materialized)
            )

    def test_weights_agree_with_free_links(self, paper_mvpp, free_links):
        centralized = MVPPCostCalculator(paper_mvpp)
        for vertex in paper_mvpp.operations:
            assert free_links.weight(vertex) == pytest.approx(
                centralized.weight(vertex)
            )


class TestPartitionAwareCosting:
    """Shard-level transfer and refresh accounting (the tentpole)."""

    PLACEMENT = {
        "Product": "s1",
        "Division": "s1",
        "Order": "s2",
        "Customer": "s2",
        "Part": "s1",
    }

    def catalog(self, shards, sites=("s1", "s2"), replication=1):
        schemes = [
            PartitionScheme(
                relation="Order", key="Order.quantity", shards=shards
            )
        ]
        return ShardCatalog.build(
            schemes, sites=tuple(sites), replication=replication
        )

    def build(self, paper_mvpp, shards, link_cost=2.0):
        topology = Topology(["wh", "s1", "s2"], default_link_cost=link_cost)
        return DistributedCostCalculator(
            paper_mvpp,
            topology,
            self.PLACEMENT,
            warehouse_site="wh",
            sharding=self.catalog(shards),
        )

    def test_single_partition_reproduces_whole_object(self, paper_mvpp):
        """One shard holding the full fraction is the whole relation:
        the partition-aware calculator must agree with the unsharded one
        everywhere (acceptance criterion)."""
        topology = Topology(["wh", "s1", "s2"], default_link_cost=2.0)
        whole = DistributedCostCalculator(
            paper_mvpp, topology, self.PLACEMENT, warehouse_site="wh"
        )
        sharded = self.build(paper_mvpp, shards=1)
        ids = [v.vertex_id for v in paper_mvpp.operations]
        for materialized in (
            frozenset(),
            frozenset(ids[:1]),
            frozenset(ids[::2]),
            frozenset(ids),
        ):
            assert sharded.query_processing_cost(
                materialized
            ) == pytest.approx(whole.query_processing_cost(materialized))
            assert sharded.maintenance_cost(
                materialized
            ) == pytest.approx(whole.maintenance_cost(materialized))
        for vertex in paper_mvpp.operations:
            assert sharded.weight(vertex) == pytest.approx(
                whole.weight(vertex)
            )

    def test_single_partition_zero_transfer_is_centralized(self, paper_mvpp):
        """Single partition + free links ⇒ exactly the centralized
        MVPPCostCalculator (acceptance criterion)."""
        sharded = self.build(paper_mvpp, shards=1, link_cost=0.0)
        centralized = MVPPCostCalculator(paper_mvpp)
        ids = [v.vertex_id for v in paper_mvpp.operations]
        for materialized in (frozenset(), frozenset(ids)):
            assert sharded.query_processing_cost(
                materialized
            ) == pytest.approx(
                centralized.query_processing_cost(materialized)
            )
            assert sharded.maintenance_cost(
                materialized
            ) == pytest.approx(
                centralized.maintenance_cost(materialized)
            )

    def test_sharding_preserves_total_leaf_transfer(self, paper_mvpp):
        """Unpruned access sums shard fractions back to the whole
        relation's blocks — splitting costs nothing by itself."""
        whole = self.build(paper_mvpp, shards=1)
        sharded = self.build(paper_mvpp, shards=4)
        order = paper_mvpp.vertex_by_name("Order")
        assert sharded.leaf_transfer_cost(order) == pytest.approx(
            whole.leaf_transfer_cost(order)
        )

    def test_pruned_access_reads_fewer_shards(self, paper_mvpp):
        sharded = self.build(paper_mvpp, shards=4)
        order = paper_mvpp.vertex_by_name("Order")
        full = sharded.leaf_transfer_cost(order)
        pruned = sharded.leaf_transfer_cost(order, surviving=(0,))
        assert pruned == pytest.approx(full / 4)
        assert sharded.leaf_transfer_cost(order, surviving=()) == 0.0

    def test_lineage_transfer_accepts_pruned_map(self, paper_mvpp):
        sharded = self.build(paper_mvpp, shards=4)
        vertex = next(
            v
            for v in paper_mvpp.operations
            if "Order"
            in {leaf.name for leaf in paper_mvpp.base_relations_of(v)}
        )
        full = sharded.lineage_transfer_cost(vertex)
        pruned = sharded.lineage_transfer_cost(
            vertex, pruned={"Order": (0,)}
        )
        assert pruned < full
