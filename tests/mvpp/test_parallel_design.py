"""Serial-vs-parallel equivalence: determinism is the contract.

``design()`` must pick the same views and report the same costs (bit
identical, not approximately) for every worker count and backend; the
same holds for ``generate_mvpps``, ``strategies.compare`` and the
chunked exhaustive sweep.
"""

import sys

import pytest

from repro.mvpp import (
    DesignConfig,
    MVPPCostCalculator,
    design,
    exhaustive_optimal,
    generate_mvpps,
    strategies,
)
from repro.mvpp.cost import PER_PERIOD
from repro.parallel import ThreadExecutor, resolve_executor
from repro.workload import GeneratorConfig, generate_workload, paper_workload

WORKERS = [1, 2, 4]


@pytest.fixture(scope="module")
def synthetic_workload():
    """A synthetic sweep-sized workload (8 queries)."""
    return generate_workload(
        GeneratorConfig(num_relations=6, num_queries=8, seed=3)
    ).workload


def _design_key(result):
    """Everything that must be bit-identical across backends."""
    return (
        result.mvpp.name,
        result.views,
        result.breakdown.query_processing,
        result.breakdown.maintenance,
        [m.name for m in result.candidates],
    )


class TestDesignEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", WORKERS)
    def test_paper_workload(self, workers, backend):
        serial = design(paper_workload(), DesignConfig(workers=1))
        parallel = design(
            paper_workload(),
            DesignConfig(workers=workers, executor=backend),
        )
        assert _design_key(parallel) == _design_key(serial)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_synthetic_workload(self, synthetic_workload, workers):
        serial = design(
            synthetic_workload, DesignConfig(rotations=4, workers=1)
        )
        parallel = design(
            synthetic_workload,
            DesignConfig(rotations=4, workers=workers, executor="thread"),
        )
        assert _design_key(parallel) == _design_key(serial)

    def test_cache_on_off_equivalent_in_parallel(self, synthetic_workload):
        """The memo the threads share prices the chosen design exactly
        like a memo-less calculator."""
        cached = design(
            synthetic_workload,
            DesignConfig(rotations=4, workers=4, executor="thread"),
        )
        uncached = MVPPCostCalculator(cached.mvpp, PER_PERIOD)
        assert uncached.breakdown(cached.materialized) == cached.breakdown

    @pytest.mark.parametrize("strategy", ["greedy", "figure9", "annealing"])
    def test_alternate_strategies_equivalent(self, strategy):
        serial = design(paper_workload(), DesignConfig(strategy=strategy))
        parallel = design(
            paper_workload(),
            DesignConfig(strategy=strategy, workers=4, executor="thread"),
        )
        assert _design_key(parallel) == _design_key(serial)


class TestGenerationEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_rotations_identical(self, workload, workers):
        serial = generate_mvpps(workload)
        parallel = generate_mvpps(
            workload, config=DesignConfig(workers=workers, executor="thread")
        )
        assert [m.name for m in parallel] == [m.name for m in serial]
        assert [len(m) for m in parallel] == [len(m) for m in serial]
        for a, b in zip(serial, parallel):
            assert [v.signature for v in a.operations] == [
                v.signature for v in b.operations
            ]

    def test_threads_share_one_node_per_key(self):
        """Racing rotations still hand out one plan node per interner key.

        Eight threads on a shortened switch interval build the 24
        rotations through one shared interner.  A lost update would let
        two structurally identical nodes escape into the candidates.
        """
        workload = generate_workload(
            GeneratorConfig(num_relations=8, num_queries=24, seed=0)
        ).workload
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = generate_mvpps(
                workload, config=DesignConfig(workers=8, executor="thread")
            )
        finally:
            sys.setswitchinterval(interval)
        serial = generate_mvpps(workload)
        assert [m.describe() for m in parallel] == [m.describe() for m in serial]
        nodes = {}
        for mvpp in parallel:
            for vertex in mvpp:
                for node in vertex.operator.walk():
                    key = (type(node), node.parameters, *map(id, node.children))
                    assert nodes.setdefault(key, node) is node


class TestCompareEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_table2_rows_identical(self, paper_mvpp, workers):
        serial_rows = strategies.compare(
            paper_mvpp, MVPPCostCalculator(paper_mvpp)
        )
        parallel_rows = strategies.compare(
            paper_mvpp,
            MVPPCostCalculator(paper_mvpp),
            config=DesignConfig(workers=workers, executor="thread"),
        )
        assert [
            (r.name, r.materialized, r.total_cost) for r in parallel_rows
        ] == [(r.name, r.materialized, r.total_cost) for r in serial_rows]


class TestExhaustiveEquivalence:
    def test_chunked_sweep_matches_serial(self, paper_mvpp):
        calculator = MVPPCostCalculator(paper_mvpp)
        pool = paper_mvpp.operations[:8]
        serial_set, serial_best = exhaustive_optimal(
            paper_mvpp, calculator, candidates=pool
        )
        for workers in (2, 4):
            chosen, best = exhaustive_optimal(
                paper_mvpp,
                calculator,
                candidates=pool,
                executor=ThreadExecutor(workers),
            )
            assert [v.name for v in chosen] == [v.name for v in serial_set]
            assert best.total == serial_best.total


class TestSelectionFanout:
    def test_select_views_with_executor(self, paper_mvpp):
        from repro.mvpp import select_views

        serial = select_views(paper_mvpp, MVPPCostCalculator(paper_mvpp))
        parallel = select_views(
            paper_mvpp,
            MVPPCostCalculator(paper_mvpp),
            executor=resolve_executor("thread", 4, closures=True),
        )
        assert parallel.names == serial.names
