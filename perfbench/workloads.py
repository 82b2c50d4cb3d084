"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs and exposes:

* ``setup()`` — the state a run starts from (timed as ``setup_s``);
* ``ops(state, ...)`` — an endless, seed-determined stream of
  :class:`Op`; the first ``warmup`` ops are untimed, the next ``window``
  ops are the fixed count window every exact count is taken over;
* ``counters(state)`` — the program's own counters (block I/O, cache
  and change-log totals), read before and after the window;
* ``summary(state, window)`` — the count metrics of one window;
* ``final_problems(state)`` and ``replays`` — the output checks.

The workload shapes (query sets, schema, base data, design pool) are
fixed; the seed draws the order of operations and the rows written, so
two seeds ask for the same work and their numbers are comparable.  (A
seeded base data set would not: at 10% scale the paper's ``city = 'LA'``
selects about ten divisions, and which ten moves view sizes by a third.)
"""

from __future__ import annotations

import collections
import datetime
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import DataWarehouse, DesignConfig, paper_workload
from repro.cdc import StreamingPolicy
from repro.executor.engine import HASH, REFERENCE, VECTORIZED, ExecutionEngine
from repro.workload.datagen import CITIES, paper_rows, star_rows
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.star_schema import StarConfig, star_workload


#: Seed of the base data every data workload loads.
DATA_SEED = 0
#: Timed operations a data workload runs at least, so that ten samples
#: lie beyond the p99 even when the machine runs slow.
MIN_TIMED = 1000


@dataclass
class Op:
    """One client call: ``run`` is timed, ``check`` (untimed) judges it."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool] = lambda result: True


def multiset(rows) -> List[tuple]:
    return sorted(tuple(sorted(row.items())) for row in rows)


def digest(rows) -> str:
    return hashlib.sha256(repr(multiset(rows)).encode()).hexdigest()


def _proportional_block(weights: Dict[str, float], size: int) -> List[str]:
    """``size``-ish names in proportion to ``weights``, each at least once."""
    total = sum(weights.values())
    return [
        name
        for name, weight in weights.items()
        for _ in range(max(1, round(size * weight / total)))
    ]


def _shuffled_blocks(block: List, rng: random.Random) -> Iterator:
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


def _side_engine(warehouse: DataWarehouse, engine: str = VECTORIZED):
    """An engine over the warehouse's data whose I/O the caller discards.

    Checks run through it, so they neither warm the warehouse's own
    caches nor add to the block counts the benchmark reports.
    """
    return ExecutionEngine(warehouse.database, HASH, engine=engine)


def _unmetered(warehouse: DataWarehouse, fn: Callable[[], Any]) -> Any:
    io = warehouse.database.io
    reads, writes = io.reads, io.writes
    try:
        return fn()
    finally:
        io.reads, io.writes = reads, writes


def _space_ratio(warehouse: DataWarehouse) -> float:
    database = warehouse.database
    views = sum(database.table(v.name).num_blocks for v in warehouse.views)
    base = sum(
        database.table(name).num_blocks
        for name in warehouse.catalog.relation_names
    )
    return views / base


# --------------------------------------------------------------- design-synth
class DesignSynth:
    """Back-to-back designs of synthetic SPJ workloads, no data."""

    name = "design-synth"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.relations, self.queries, self.pool = (5, 6, 2) if quick else (8, 56, 10)
        self.warmup = 1
        self.min_timed = 0

    def window(self, paired: bool) -> int:
        return 2 if paired else self.pool

    def setup(self):
        workloads = [
            generate_workload(
                GeneratorConfig(
                    num_relations=self.relations, num_queries=self.queries, seed=i
                )
            ).workload
            for i in range(self.pool)
        ]
        order = list(range(self.pool))
        random.Random(self.seed).shuffle(order)
        return {"workloads": workloads, "order": order, "seen": {}}

    def _design(self, workload) -> Op:
        warehouse = DataWarehouse.from_workload(workload)
        return Op("design", lambda: warehouse.design(DesignConfig(seed=self.seed)))

    def ops(self, state, paired: bool = False, replay: bool = False) -> Iterator[Op]:
        yield self._design(
            generate_workload(
                GeneratorConfig(num_relations=self.relations, num_queries=4, seed=self.pool)
            ).workload
        )
        for index in itertools.cycle(state["order"]):
            workload = state["workloads"][index]
            for _ in range(2 if paired else 1):
                op = self._design(workload)
                op.check = lambda result, i=index: self._check(state, i, result)
                yield op

    def _check(self, state, index: int, result) -> bool:
        """Designing a workload again gives the same views and cost."""
        summary = self._summary(state["workloads"][index], result)
        state.setdefault("results", []).append(summary)
        first = state["seen"].setdefault(index, summary)
        return summary == first and summary["views"] and summary["cost"] > 0

    @staticmethod
    def _summary(workload, result) -> Dict[str, Any]:
        statistics = workload.statistics
        base_blocks = sum(
            statistics.relation(name).blocks
            for name in workload.catalog.relation_names
        )
        frequencies = sum(q.frequency for q in workload.queries) + sum(
            workload.update_frequencies.values()
        )
        return {
            "views": result.materialized_names,
            "cost": result.total_cost,
            "per_op": result.total_cost / frequencies,
            "space": sum(v.stats.blocks for v in result.materialized) / base_blocks,
            "cache_hits": result.cache_stats["hits"],
            "cache_misses": result.cache_stats["misses"],
            "candidates": len(result.candidates),
            "vertices": sum(len(mvpp) for mvpp in result.candidates),
        }

    def counters(self, state) -> Dict[str, int]:
        return {"designs": len(state.get("results", []))}

    def summary(self, state, before, after, span_counts, ops: int) -> Dict[str, float]:
        results = state["results"][before["designs"]:after["designs"]]
        n = len(results)
        hits = sum(r["cache_hits"] for r in results)
        lookups = hits + sum(r["cache_misses"] for r in results)
        return {
            "design_cost_blocks": sum(r["cost"] for r in results) / n,
            "io_blocks_per_op": sum(r["per_op"] for r in results) / n,
            "view_space_ratio": sum(r["space"] for r in results) / n,
            "mvpp.cost_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "mvpp.candidates": sum(r["candidates"] for r in results) / n,
            "mvpp.vertices": sum(r["vertices"] for r in results) / n,
        }

    def final_problems(self, state) -> List[str]:
        index = state["order"][0]
        result = self._design(state["workloads"][index]).run()
        if not self._check(state, index, result):
            return [f"design of pool workload {index} did not repeat exactly"]
        return []

    replays = ()


# ----------------------------------------------------------------- serve-star
class ServeStar:
    """Read-only serving over an installed, materialized star design."""

    name = "serve-star"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.config = StarConfig(include_aggregates=True, num_queries=6, seed=8)
        self.scale = 0.01 if quick else 0.1
        self.block = 40 if quick else 200
        self.queries = [q.name for q in star_workload(self.config).queries]
        self.warmup = len(self.queries)
        # Its reads are the slowest: more samples steady its percentiles.
        self.min_timed = 3 * MIN_TIMED // 2

    def window(self, paired: bool) -> int:
        return len(self._block(star_workload(self.config)))

    def _block(self, workload) -> List[str]:
        return _proportional_block(
            {q.name: q.frequency for q in workload.queries}, self.block
        )

    def setup(self):
        workload = star_workload(self.config)
        warehouse = DataWarehouse.from_workload(workload, join_method=HASH)
        warehouse.design(DesignConfig())
        for relation, rows in sorted(star_rows(self.config, self.scale, DATA_SEED).items()):
            warehouse.load(relation, rows)
        warehouse.materialize()
        return {"warehouse": warehouse, "workload": workload, "answers": {}}

    def ops(self, state, paired: bool = False, replay: bool = False) -> Iterator[Op]:
        warehouse = state["warehouse"]
        verify = not replay  # the REFERENCE oracle is slow: once per run
        for name in self.queries:
            yield Op(
                "read",
                lambda n=name: warehouse.serve(n),
                lambda served, n=name: self._first_answer(state, n, served, verify),
            )
        rng = random.Random(self.seed)
        for name in _shuffled_blocks(self._block(state["workload"]), rng):
            yield Op(
                "read",
                lambda n=name: warehouse.serve(n),
                lambda served, n=name: served.table.cardinality == state["answers"][n],
            )

    def _first_answer(self, state, name: str, served, verify: bool) -> bool:
        """The first answer equals the unrewritten plan on REFERENCE."""
        state["answers"][name] = served.table.cardinality
        if not verify:
            return True
        warehouse = state["warehouse"]
        expected = _unmetered(
            warehouse,
            lambda: _side_engine(warehouse, REFERENCE).execute(
                warehouse.query_plan(name, use_views=False)
            ),
        )
        return multiset(served.table.rows()) == multiset(expected.rows())

    def counters(self, state) -> Dict[str, int]:
        return _data_counters(state["warehouse"])

    def summary(self, state, before, after, span_counts, ops: int) -> Dict[str, float]:
        return _data_summary(state, before, after, span_counts, ops)

    def final_problems(self, state) -> List[str]:
        return []

    replays = ("own",)


# ------------------------------------------------------------ maintain-*
#: Rows per inserted (and later deleted) batch.
BATCH = 4
#: A batch is deleted once this many newer batches of its relation exist.
DEPTH = 2
#: Records of lag a bounded-staleness read tolerates before it drains.
STALENESS_BOUND = 24
#: Reads drain before ingest would (the lag bound sits above
#: STALENESS_BOUND), and the change-log ring is full after one block:
#: every bounded-staleness read scans the retained records, so with the
#: default 4096-record ring read cost would climb for the whole run.
STREAM_POLICY = StreamingPolicy(
    max_lag_records=2 * STALENESS_BOUND, max_lag_ticks=float("inf"), retention=64
)
_KEYS = {"Product": "Pid", "Division": "Did", "Customer": "Cid", "Part": "Tid"}


class Maintain:
    """The paper workload under a mixed read/write trajectory."""

    def __init__(self, seed: int, quick: bool, policy: str):
        self.seed = seed
        self.policy = policy
        self.name = f"maintain-{policy}"
        self.scale = 0.02 if quick else 0.1
        self.per_unit = 2 if quick else 10
        workload = paper_workload()
        self.reads = {q.name: q.frequency for q in workload.queries}
        self.writes = dict(workload.update_frequencies)
        self.block = [("read", name) for name in _proportional_block(
            self.reads, round(self.per_unit * sum(self.reads.values()))
        )] + [("write", name) for name in _proportional_block(
            self.writes, round(self.per_unit * sum(self.writes.values()))
        )]
        # One block fills every relation's delete queue (untimed); the
        # count window is three blocks, enough to average the drains.
        self.warmup = len(self.block)
        self.min_timed = MIN_TIMED

    def window(self, paired: bool) -> int:
        return 3 * len(self.block)

    def setup(self):
        workload = paper_workload()
        rows = paper_rows(scale=self.scale, seed=DATA_SEED)
        warehouse = DataWarehouse.from_workload(workload, join_method=HASH)
        warehouse.design(DesignConfig())
        for relation, relation_rows in sorted(rows.items()):
            warehouse.load(relation, relation_rows)
        warehouse.materialize()
        return {
            "warehouse": warehouse,
            "rows": rows,
            "sizes": {r: len(rs) for r, rs in rows.items()},
        }

    def _new_rows(self, relation: str, state, rng: random.Random, serial) -> List[dict]:
        pool = state["rows"][relation]
        batch = []
        for _ in range(BATCH):
            row = dict(pool[rng.randrange(len(pool))])
            key = _KEYS.get(relation)
            if key is None:
                row["quantity"] = rng.randint(1, 200)
                row["date"] = datetime.date(1996, 1, 1) + datetime.timedelta(
                    days=rng.randrange(366)
                )
            else:
                row[key] = next(serial)
                if "name" in row:
                    row["name"] = f"New{row[key]}"
                if "city" in row:
                    row["city"] = rng.choice(CITIES)
            batch.append(row)
        return batch

    def ops(
        self, state, paired: bool = False, replay: bool = False,
        policy: Optional[str] = None,
    ) -> Iterator[Op]:
        policy = policy or self.policy
        warehouse = state["warehouse"]
        if policy == "stream":
            warehouse.enable_streaming(STREAM_POLICY)
            read_kwargs = {"max_staleness": STALENESS_BOUND}
            insert_policy = delete_policy = "stream"
        else:
            read_kwargs = {}
            insert_policy, delete_policy = "incremental", "recompute"
        rng = random.Random(self.seed)
        serial = itertools.count(10_000_000)
        queues = collections.defaultdict(collections.deque)
        for count, (kind, name) in enumerate(_shuffled_blocks(self.block, rng)):
            if kind == "read":
                # The oracle is slow: only warm-up reads of the main run use it.
                verify = not replay and count < self.warmup
                yield Op(
                    "read",
                    lambda n=name: warehouse.serve(n, **read_kwargs),
                    lambda served, n=name, v=verify: self._check_read(
                        state, n, served, policy, v
                    ),
                )
                continue
            queue = queues[name]
            queue.append(self._new_rows(name, state, rng, serial))
            batches = (queue[-1], queue.popleft() if len(queue) > DEPTH else None)
            yield Op(
                "write",
                lambda n=name, b=batches: self._write(
                    warehouse, n, *b, insert_policy, delete_policy
                ),
                lambda reports, n=name, q=queue: (
                    warehouse.database.table(n).cardinality
                    == state["sizes"][n] + BATCH * len(q)
                ),
            )

    @staticmethod
    def _write(warehouse, relation, new, old, insert_policy, delete_policy):
        """Insert a new batch and delete the oldest one still inserted."""
        reports = warehouse.apply_update(relation, new, policy=insert_policy)
        if old is not None:
            reports += warehouse.apply_delete(relation, old, policy=delete_policy)
        return reports

    def _check_read(self, state, name: str, served, policy: str, verify: bool) -> bool:
        if served.degraded:
            return False
        if policy == "stream":
            return served.max_staleness <= STALENESS_BOUND
        if served.max_staleness != 0:
            return False
        if not verify:
            return True
        warehouse = state["warehouse"]
        expected = _unmetered(
            warehouse,
            lambda: _side_engine(warehouse).execute(
                warehouse.query_plan(name, use_views=False)
            ),
        )
        return multiset(served.table.rows()) == multiset(expected.rows())

    def counters(self, state) -> Dict[str, int]:
        return _data_counters(state["warehouse"])

    def summary(self, state, before, after, span_counts, ops: int) -> Dict[str, float]:
        return _data_summary(state, before, after, span_counts, ops)

    def view_digests(self, state) -> Dict[str, str]:
        """Catch up, then fingerprint every view's contents."""
        warehouse = state["warehouse"]
        if warehouse.streaming is not None:
            warehouse.drain_changes()
        return {
            view.name: digest(warehouse.database.table(view.name).rows())
            for view in warehouse.views
        }

    def final_problems(self, state) -> List[str]:
        """Every view equals a full recompute once caught up."""
        warehouse = state["warehouse"]
        digests = self.view_digests(state)
        engine = _side_engine(warehouse)
        return [
            f"{view.name} differs from a full recompute"
            for view in warehouse.views
            if digests[view.name] != digest(engine.execute(view.plan).rows())
        ]

    @property
    def replays(self):
        return ("own", "immediate" if self.policy == "stream" else "stream")


def _data_counters(warehouse: DataWarehouse) -> Dict[str, int]:
    cache = warehouse.engine.build_cache.stats()
    streaming = warehouse.streaming
    return {
        "reads": warehouse.database.io.reads,
        "writes": warehouse.database.io.writes,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cdc_records": streaming.changes.head_seq if streaming else 0,
        "cdc_drains": streaming.drains if streaming else 0,
        "cdc_coalesced": streaming.coalesced_total if streaming else 0,
    }


def _data_summary(state, before, after, span_counts, ops: int) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    rows_written = sum(
        span_counts.get(name, (0, 0))[1] for name in ("storage.insert", "storage.delete")
    )
    warehouse = state["warehouse"]
    return {
        "design_cost_blocks": warehouse.design_result.total_cost,
        "io_blocks_per_op": (delta["reads"] + delta["writes"]) / ops,
        "view_space_ratio": _space_ratio(warehouse),
        "executor.blocks_read": delta["reads"] / ops,
        "executor.blocks_written": delta["writes"] / ops,
        "executor.build_cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "storage.rows_written": rows_written / ops,
        "maintenance.recomputes": span_counts.get("maintenance.recompute", (0, 0))[0],
        "cdc.records": delta["cdc_records"],
        "cdc.drains": delta["cdc_drains"],
        "cdc.coalesced": delta["cdc_coalesced"],
    }


def make(name: str, seed: int, quick: bool):
    if name == "design-synth":
        return DesignSynth(seed, quick)
    if name == "serve-star":
        return ServeStar(seed, quick)
    return Maintain(seed, quick, name.split("-", 1)[1])

