"""Golden design outputs: plan-node caching must not change any result.

The pinned values were captured before derived plan properties
(``leaves``, ``leaf_names``, ``join_conjuncts``, expression column sets,
schema attribute names) were cached on the nodes; the design must stay
bit-identical — same views, same ``repr`` of the total cost, same cost
cache traffic, same candidate MVPPs — under the serial and the process
executor.  Process workers receive pickled copies of the shared cost
cache, so their hits and misses never reach the parent's counters.
"""

import pytest

from repro.algebra.operators import Operator
from repro.mvpp import DesignConfig, design
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
        "cache": {"serial": (2208, 440), "process": (0, 0)},
        "candidates": 24,
        "vertices": 2311,
    },
    "paper": {
        "chosen": "paper-example-mvpp2",
        "views": ("tmp3", "tmp15"),
        "total_cost": "10031605.4",
        "cache": {"serial": (60, 56), "process": (0, 0)},
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
