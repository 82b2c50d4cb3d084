"""Golden design outputs: plan-node caching must not change any result.

The pinned values were captured before derived plan properties
(``leaves``, ``leaf_names``, ``join_conjuncts``, expression column sets,
schema attribute names) were cached on the nodes; the design must stay
bit-identical — same views, same ``repr`` of the total cost, same cost
cache traffic, same candidate MVPPs — under the serial and the process
executor.  Process workers receive pickled copies of the design's cost
memo, so their hits and misses never reach the parent's counters.
"""

import hashlib

import pytest

from repro.algebra.operators import Join, Operator
from repro.catalog.schema import RelationSchema
from repro.mvpp import DesignConfig, design
from repro.mvpp.cost import PER_PERIOD, MVPPCostCalculator
from repro.mvpp.strategies import get_strategy
from repro.workload import GeneratorConfig, generate_workload, paper_workload


def _synthetic():
    return generate_workload(
        GeneratorConfig(num_relations=8, num_queries=24, seed=0)
    ).workload


WORKLOADS = {"synthetic": _synthetic, "paper": paper_workload}

GOLDEN = {
    "synthetic": {
        "chosen": "synthetic-0-mvpp3",
        "views": (
            "tmp1", "tmp2", "tmp6", "tmp7", "tmp13",
            "tmp17", "tmp19", "tmp32", "tmp47", "tmp63",
        ),
        "total_cost": "753870294.3889999",
        "cache": {"serial": (2171, 543), "process": (0, 0)},
        "candidates": 24,
        "vertices": 2311,
    },
    "paper": {
        "chosen": "paper-example-mvpp2",
        "views": ("tmp3", "tmp15"),
        "total_cost": "10031605.4",
        "cache": {"serial": (60, 42), "process": (0, 0)},
        "candidates": 4,
        "vertices": 94,
    },
}

EXECUTORS = {
    "serial": DesignConfig(),
    "process": DesignConfig(workers=4, executor="process"),
}

#: ``Operator.walk`` calls (recursive calls included) made by one serial
#: design of the synthetic golden workload before plan-node caching.
WALKS_BEFORE_CACHING = 95931

#: SHA-256 over every candidate MVPP of the synthetic golden design:
#: its ``describe()`` (child order, labels, ``Ca``) and the ``repr`` of
#: its Figure-9 breakdown.  Captured before plan nodes were hash-consed
#: across rotations; a join whose sides flip in any candidate changes it.
CANDIDATES_DIGEST = "349dd83565763008787495b91df004b36c1525be6903c85b280e8cdf39a66349"

CANDIDATE_EXECUTORS = dict(
    EXECUTORS, thread=DesignConfig(workers=4, executor="thread")
)

#: ``Join`` and ``RelationSchema`` constructions made by one serial
#: design of the synthetic golden workload (workload generation
#: included) before plan nodes were hash-consed across rotations.
JOINS_BEFORE_INTERNING = 2167
SCHEMAS_BEFORE_INTERNING = 2870


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_design_matches_golden(name, executor):
    result = design(WORKLOADS[name](), EXECUTORS[executor])
    golden = GOLDEN[name]
    assert result.mvpp.name == golden["chosen"]
    assert result.views == golden["views"]
    assert repr(result.total_cost) == golden["total_cost"]
    stats = result.cache_stats
    assert (stats["hits"], stats["misses"]) == golden["cache"][executor]
    assert len(result.candidates) == golden["candidates"]
    assert sum(len(mvpp) for mvpp in result.candidates) == golden["vertices"]


def test_design_walk_count_stays_memoized(monkeypatch):
    """Deterministic work-count guard for the plan-node caches.

    Before caching, designing the synthetic golden workload made
    95931 ``Operator.walk`` calls (``WALKS_BEFORE_CACHING``); with the
    caches it makes about 4k.  The count does not depend on the
    machine, so a memoization regression fails here even when wall
    time is too noisy to show it.  The bound is a quarter of the
    uncached count.
    """
    calls = 0
    walk = Operator.walk

    def counting_walk(self):
        nonlocal calls
        calls += 1
        return walk(self)

    monkeypatch.setattr(Operator, "walk", counting_walk)
    result = design(_synthetic(), DesignConfig())
    assert result.views == GOLDEN["synthetic"]["views"]
    assert 0 < calls <= WALKS_BEFORE_CACHING // 4


def _candidates_digest(result):
    """Digest of every candidate's structure and its own Figure-9 choice.

    Each candidate is costed by a fresh calculator without the shared
    cost cache, so the breakdown depends on that candidate alone.
    """
    config = result.config
    trigger = config.resolved_trigger(PER_PERIOD)
    strategy = get_strategy(config.strategy)
    digest = hashlib.sha256()
    for mvpp in result.candidates:
        calculator = MVPPCostCalculator(mvpp, trigger)
        breakdown = calculator.breakdown(strategy(mvpp, calculator, config))
        digest.update(mvpp.describe().encode())
        digest.update(repr(breakdown).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("executor", sorted(CANDIDATE_EXECUTORS))
def test_every_candidate_matches_golden(executor):
    result = design(_synthetic(), CANDIDATE_EXECUTORS[executor])
    assert len(result.candidates) == GOLDEN["synthetic"]["candidates"]
    assert _candidates_digest(result) == CANDIDATES_DIGEST


def test_design_builds_each_plan_node_once(monkeypatch):
    """Deterministic work-count guard for plan-node hash-consing.

    Before the Figure-4 rotations shared their plan nodes, one serial
    design of the synthetic golden workload built 2167 ``Join`` nodes
    and 2870 ``RelationSchema`` objects, whatever ``PYTHONHASHSEED``.
    Each count must now be at most half of that.
    """
    counts = {Join: 0, RelationSchema: 0}

    def counting(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            counts[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    counting(Join)
    counting(RelationSchema)
    result = design(_synthetic(), DesignConfig())
    assert result.views == GOLDEN["synthetic"]["views"]
    assert 0 < counts[Join] <= JOINS_BEFORE_INTERNING // 2
    assert 0 < counts[RelationSchema] <= SCHEMAS_BEFORE_INTERNING // 2
