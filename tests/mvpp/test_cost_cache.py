"""Tests for the per-design cost memo (``CostCache``).

Covers key exactness (memoized costs equal memo-less costs bit for bit,
across materialization sets, candidates and executors, including a
hypothesis property on random synthetic workloads), join orientation
(``A ⋈ B`` and ``B ⋈ A`` never share an entry), the hit/miss accounting
(no key misses twice) and the ``repro.obs`` export.
"""

import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.algebra.operators import Join
from repro.mvpp import (
    CostCache,
    DesignConfig,
    MVPPCostCalculator,
    design,
    generate_mvpps,
)
from repro.mvpp.cost import PER_PERIOD
from repro.mvpp.generation import _evaluate_candidate
from repro.mvpp.graph import MVPP
from repro.mvpp.strategies import get_strategy
from repro.optimizer import CardinalityEstimator
from repro.parallel.executor import resolve_executor
from repro.sql.translator import parse_query
from repro.workload import GeneratorConfig, generate_workload

EXECUTORS = {
    "serial": DesignConfig(),
    "thread": DesignConfig(workers=2, executor="thread"),
    "process": DesignConfig(workers=2, executor="process"),
}


def _memo_less(mvpp, trigger, config):
    """One candidate's Figure-9 choice and breakdown, priced without a memo."""
    calculator = MVPPCostCalculator(mvpp, trigger)
    chosen = get_strategy(config.strategy)(mvpp, calculator, config)
    return tuple(v.name for v in chosen), calculator.breakdown(chosen)


def _join_mvpp(workload, swap):
    """One query over ``Order ⋈ Customer``, joined in the given order."""
    plan = parse_query(
        "SELECT * FROM Order, Customer WHERE Order.Cid = Customer.Cid",
        workload.catalog,
    )
    if swap:
        plan = Join(plan.right, plan.left, plan.condition)
    mvpp = MVPP(name="swapped" if swap else "plain")
    mvpp.add_query("Q", plan, 1.0)
    mvpp.annotate(CardinalityEstimator(workload.statistics))
    return mvpp


class TestCacheMechanics:
    def test_empty_cache_stats(self):
        cache = CostCache()
        assert len(cache) == 0
        assert cache.hit_ratio == 0.0
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "hit_ratio": 0.0,
            "size": 0,
        }

    def test_lookup_store_counts(self):
        cache = CostCache()
        key = (0, frozenset())
        assert cache.lookup(key) is None
        cache.store(key, 42.0)
        assert cache.lookup(key) == 42.0
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_structural_ids_are_small_and_exact(self):
        cache = CostCache()
        leaf = (object, ("a",), ())
        assert cache.structural_id(leaf) == 0
        assert cache.structural_id((object, ("b",), ())) == 1
        assert cache.structural_id((Join, (None,), (0, 1))) == 2
        assert cache.structural_id((Join, (None,), (1, 0))) == 3
        assert cache.structural_id(leaf) == 0

    def test_pickles_as_an_empty_memo(self):
        """Process executors pickle the memo into every payload: that must
        not warn (an ``itertools.count`` does on Python 3.12+) and the
        worker's copy starts empty."""
        cache = CostCache()
        cache.structural_id((object, ("a",), ()))
        cache.store((0, frozenset()), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copy = pickle.loads(pickle.dumps(cache))
        assert len(copy) == 0 and copy.hits == 0 and copy.misses == 0
        assert copy.structural_id((object, ("b",), ())) == 0

    def test_structural_ids_stay_unique_under_threads(self):
        """Racing threads agree on every id and never give two
        structures one id (ten rounds, each on a fresh memo)."""
        structures = [(object, (i,), ()) for i in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cache = CostCache()
                start = threading.Barrier(8)

                def assign(offset):
                    start.wait(timeout=60)
                    order = structures[offset:] + structures[:offset]
                    return {s: cache.structural_id(s) for s in order}

                with ThreadPoolExecutor(max_workers=8) as pool:
                    views = list(
                        pool.map(assign, range(0, 2000, 250), timeout=60)
                    )
                assert all(view == views[0] for view in views)
                assert len(set(views[0].values())) == len(structures)
        finally:
            sys.setswitchinterval(interval)


class TestCacheCorrectness:
    def test_cached_costs_match_uncached(self, paper_mvpp):
        plain = MVPPCostCalculator(paper_mvpp)
        cached = MVPPCostCalculator(paper_mvpp, memo=CostCache())
        operations = paper_mvpp.operations
        subsets = [
            (),
            operations[:1],
            operations[:3],
            operations,
        ]
        for subset in subsets:
            expected = plain.breakdown(subset)
            actual = cached.breakdown(subset)
            assert actual.query_processing == expected.query_processing
            assert actual.maintenance == expected.maintenance

    def test_cache_shared_across_candidates(self, workload):
        """One memo serves every candidate of one generation run."""
        cache = CostCache()
        for mvpp in generate_mvpps(workload):
            calculator = MVPPCostCalculator(mvpp, memo=cache)
            plain = MVPPCostCalculator(mvpp)
            for subset in ((), mvpp.operations[:2]):
                assert calculator.breakdown(subset) == plain.breakdown(subset)
        assert cache.hits > 0  # rotations share subtrees
        assert cache.misses == len(cache)  # no key misses twice

    def test_join_orientation_is_part_of_the_key(self, workload):
        """``Order ⋈ Customer`` and ``Customer ⋈ Order`` share a signature
        but not a nested-loop cost, so they must not share an entry."""
        cache = CostCache()
        totals = []
        for swap in (False, True):
            mvpp = _join_mvpp(workload, swap)
            shared = MVPPCostCalculator(mvpp, memo=cache).breakdown(())
            assert shared == MVPPCostCalculator(mvpp).breakdown(())
            totals.append(shared.total)
        assert totals[0] != totals[1]
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 2)

    def test_design_results_identical_with_and_without_cache(self, workload):
        result = design(workload, DesignConfig())
        trigger = result.config.resolved_trigger(PER_PERIOD)
        names, breakdown = _memo_less(result.mvpp, trigger, result.config)
        assert result.views == names
        assert result.breakdown == breakdown
        stats = result.cache_stats
        assert stats["misses"] == stats["size"]  # roots are never looked up

    def test_design_cache_hit_ratio_documented_floor(self, workload):
        """The acceptance floor: >= 50% hits on the full paper sweep."""
        result = design(workload, DesignConfig())
        assert result.cache_stats["hit_ratio"] >= 0.5

    def test_roadmap_orientation_case_costs_memo_less(self):
        """8 relations, 24 queries, seed 1: a signature-keyed cache priced
        this design at 598,121,978.7 blocks; the exact memo must give the
        memo-less 598,125,371.6."""
        workload = generate_workload(
            GeneratorConfig(num_relations=8, num_queries=24, seed=1)
        ).workload
        result = design(workload, DesignConfig())
        calculator = MVPPCostCalculator(result.mvpp, PER_PERIOD)
        assert result.breakdown == calculator.breakdown(result.materialized)
        assert repr(result.total_cost) == "598125371.646"
        assert result.cache_stats["misses"] == result.cache_stats["size"]


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@settings(max_examples=8, deadline=None)
@given(
    relations=st.integers(min_value=3, max_value=6),
    queries=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_memo_is_exact_on_random_workloads(executor, relations, queries, seed):
    """Every candidate ``design()`` evaluates with the shared memo, on
    every executor, matches a fresh memo-less calculator bit for bit."""
    workload = generate_workload(
        GeneratorConfig(num_relations=relations, num_queries=queries, seed=seed)
    ).workload
    config = EXECUTORS[executor]
    result = design(workload, config)
    trigger = config.resolved_trigger(PER_PERIOD)
    memo = CostCache()
    shared = resolve_executor(config.executor, config.workers).map(
        _evaluate_candidate,
        [(mvpp, trigger, config, memo) for mvpp in result.candidates],
    )
    plain = [_memo_less(mvpp, trigger, config) for mvpp in result.candidates]
    assert shared == plain
    best = min(plain, key=lambda evaluation: evaluation[1].total)
    assert (result.views, result.breakdown) == best
    if executor == "serial":
        assert memo.misses == len(memo)


class TestObsExport:
    def test_publish_exports_counters_and_gauges(self):
        was_enabled = obs.enabled()
        obs.enable(reset=True)
        try:
            cache = CostCache()
            key = (0, frozenset())
            cache.lookup(key)
            cache.store(key, 1.0)
            cache.lookup(key)
            cache.publish()
            metrics = obs.snapshot()["metrics"]
            assert metrics["counters"]["cost_cache.hits"] == 1
            assert metrics["counters"]["cost_cache.misses"] == 1
            assert metrics["gauges"]["cost_cache.size"] == 1
            assert metrics["gauges"]["cost_cache.hit_ratio"] == 0.5
        finally:
            if not was_enabled:
                obs.disable()

    def test_design_publishes_cache_metrics(self, workload):
        was_enabled = obs.enabled()
        obs.enable(reset=True)
        try:
            design(workload, DesignConfig(rotations=2))
            metrics = obs.snapshot()["metrics"]
            assert metrics["counters"]["cost_cache.hits"] > 0
            assert metrics["gauges"]["cost_cache.size"] > 0
        finally:
            if not was_enabled:
                obs.disable()
