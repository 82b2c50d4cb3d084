"""One seeded lifecycle harness: build, drive, check, report.

The paper's future work asks for a way to "simulate various environments
with different view mixes".  Every simulation is one lifecycle, owned
here once: :func:`build` a warehouse, :func:`drive` rounds of
write → serve → settle, check every stored view against a recompute
(:func:`check_views`), and return one :class:`Report`.  Each scenario —
:func:`faults`, :func:`stream`, :func:`shards`, :func:`drift`,
:func:`periods` — is a small plug-in owning only its knobs.  Runs are
seeded and use the logical tick clock, so a fixed seed reproduces its
report bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.mvpp.config import DesignConfig
from repro.storage.table import row_multiset

__all__ = [
    "Report",
    "ViewCheck",
    "build",
    "check_views",
    "consistent",
    "delta_slice",
    "drift",
    "drive",
    "fault_scheduler",
    "faults",
    "hot_relations",
    "inverted_profile",
    "load",
    "periods",
    "replay_inversion",
    "replay_window",
    "shards",
    "stream",
    "workload_rows",
]

Rows = Mapping[str, Sequence[Mapping[str, Any]]]


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def workload_rows(
    name: str,
    scale: float,
    seed: int,
    queries: Optional[int] = None,
    relations: Optional[int] = None,
):
    """A built-in workload by name plus synthetic rows matching its
    statistics at ``scale``; ``queries`` / ``relations`` size the
    generated workloads (their configs' defaults when None)."""
    from repro.workload import (
        GeneratorConfig,
        StarConfig,
        generate_workload,
        paper_workload,
        paper_workload_fig7,
        star_workload,
    )
    from repro.workload.datagen import paper_rows, star_rows, synthetic_rows

    if name in ("paper", "paper-fig7"):
        workload = paper_workload() if name == "paper" else paper_workload_fig7()
        return workload, paper_rows(scale=scale, seed=seed)
    if name == "star":
        config = (
            StarConfig(seed=seed)
            if queries is None
            else StarConfig(num_queries=queries, seed=seed)
        )
        return star_workload(config), star_rows(config, scale=scale, seed=seed)
    if name == "synthetic":
        sizes = {
            key: value
            for key, value in (("num_queries", queries), ("num_relations", relations))
            if value is not None
        }
        generated = generate_workload(GeneratorConfig(seed=seed, **sizes))
        return generated.workload, synthetic_rows(generated, scale=scale, seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def load(warehouse, rows: Rows, materialize: bool = True):
    """Load every relation's rows, then materialize the installed views."""
    for relation, relation_rows in rows.items():
        warehouse.load(relation, relation_rows)
    if materialize:
        warehouse.materialize()
    return warehouse


def build(workload, rows: Rows, config: DesignConfig, materialize: bool = True):
    """A warehouse for ``workload``: designed under ``config``, then
    loaded with ``rows`` and (unless ``materialize=False``) materialized."""
    from repro.warehouse import DataWarehouse

    warehouse = DataWarehouse.from_workload(workload)
    warehouse.design(config)
    return load(warehouse, rows, materialize)


def hot_relations(workload, rows: Rows, count: int = 1) -> List[str]:
    """The ``count`` most-updated loaded relations, hottest first.

    Update-frequency ties break by name: a single pick takes the last
    name, a wider pick the first names.  Both orders predate this
    harness and every recorded trajectory depends on them.
    """
    if count == 1:
        return [max(rows, key=lambda name: (workload.update_frequency(name), name))]
    return sorted(rows, key=lambda name: (-workload.update_frequency(name), name))[
        :count
    ]


def delta_slice(
    rows: Rows, relation: str, divisor: int, round_index: int = 0
) -> List[Mapping[str, Any]]:
    """One round's update batch: ``1/divisor`` of ``relation``'s rows,
    a window that slides (wrapping) by its own width each round."""
    pool = rows[relation]
    width = max(1, len(pool) // divisor)
    start = (round_index * width) % len(pool)
    return [pool[(start + k) % len(pool)] for k in range(width)]


# ---------------------------------------------------------------------------
# Drive
# ---------------------------------------------------------------------------

def drive(
    rounds: int,
    warehouse,
    write: Callable[[int], None],
    check: Callable[[str, Any], None],
    settle: Callable[[int], None],
    queries: Optional[Callable[[int], Sequence[str]]] = None,
    **serve_options: Any,
) -> None:
    """Run ``rounds`` rounds of write → serve → settle.

    Each round calls ``write(round)``; serves the queries ``queries(round)``
    names (default: every registered query once) through
    ``warehouse.serve(name, **serve_options)`` and hands each answer to
    ``check(name, served)``; then calls ``settle(round)``.
    """
    for index in range(rounds):
        write(index)
        names = (
            queries(index)
            if queries is not None
            else [spec.name for spec in warehouse.workload.queries]
        )
        for name in names:
            check(name, warehouse.serve(name, **serve_options))
        settle(index)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

@dataclass
class ViewCheck:
    """What :func:`check_views` found, plus the stored contents it read."""

    mismatched: int = 0  # stored rows differ from a recompute
    partial_writes: int = 0  # stored cardinality differs from the committed one
    contents: Dict[str, List[Any]] = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return self.mismatched + self.partial_writes


def _stored_views(warehouse):
    """Every stored view: installed views, then co-partitioned shard views."""
    for view in warehouse.views:
        if view.name in warehouse.database:
            yield view
    sharding = warehouse.sharding
    if sharding is None:
        return
    for view in sharding.shardable_views():
        scheme = sharding.schemes[sharding.copartition_base(view)]
        for shard in scheme.all_shards:
            shard_view = sharding.shard_view(view, shard)
            if shard_view.name in warehouse.database:
                yield shard_view


def check_views(warehouse) -> ViewCheck:
    """The end-of-run oracle over every stored view.

    A fresh view's stored rows must equal a recompute of its plan on
    ``warehouse.engine`` over the current base data; a stale view may lag
    (it holds a committed snapshot), so it is not compared.  Every stored
    view's cardinality must equal the one recorded at its last committed
    swap (the maintainer only swaps complete shadow tables).
    """
    verdict = ViewCheck()
    stale = {view.name for view in warehouse.stale_views()}
    for view in _stored_views(warehouse):
        contents = row_multiset(warehouse.database.table(view.name).rows())
        if view.name not in stale and contents != row_multiset(
            warehouse.engine.execute(view.plan).rows()
        ):
            verdict.mismatched += 1
        if _torn(warehouse, view.name):
            verdict.partial_writes += 1
        verdict.contents[view.name] = contents
    return verdict


def _torn(warehouse, name: str) -> bool:
    """Whether a stored view's cardinality differs from the one recorded
    at its last committed swap (views are only ever swapped whole)."""
    committed = warehouse.committed_cardinality(name)
    stored = warehouse.database.table(name).cardinality
    return committed is not None and committed != stored


def consistent(warehouse, query_name: str, served) -> bool:
    """A served answer must be the fresh answer or a committed snapshot's.

    A fresh or degraded answer (degraded answers read base relations)
    must equal a view-free execution over the current base data.  A
    stale answer may differ from it, but every view it read must be a
    complete, previously committed snapshot: its stored cardinality
    equals the one recorded at its last successful swap.
    """
    if served.degraded or not served.views_used or served.max_staleness == 0:
        fresh, _ = warehouse.execute(query_name, use_views=False)
        return row_multiset(served.table.rows()) == row_multiset(fresh.rows())
    return all(
        name in warehouse.database and not _torn(warehouse, name)
        for name in served.views_used
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """One scenario's outcome: a nested JSON-safe document and a verdict."""

    scenario: str
    document: Dict[str, Any]
    ok: bool

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2)

    def render_text(self) -> str:
        lines = [f"{self.scenario} simulation: {'ok' if self.ok else 'FAILED'}"]

        def walk(key: str, value: Any, depth: int) -> None:
            pad = "  " * depth
            if isinstance(value, Mapping) and value:
                lines.append(f"{pad}{key}:")
                for child_key, child in value.items():
                    walk(str(child_key), child, depth + 1)
            elif isinstance(value, list) and any(
                isinstance(item, Mapping) for item in value
            ):
                lines.append(f"{pad}{key}:")
                for index, item in enumerate(value):
                    walk(f"[{index}]", item, depth + 1)
            else:
                text = json.dumps(value) if isinstance(value, (list, dict)) else value
                lines.append(f"{pad}{key}: {text}")

        for key, value in self.document.items():
            walk(key, value, 1)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario: faults
# ---------------------------------------------------------------------------

def fault_scheduler(warehouse, seed: int, failure_rate=None, resilience=None):
    """``(injector, scheduler)``: a refresh scheduler, under seeded
    storage faults unless ``failure_rate`` is None (then no injector)."""
    from repro.resilience.config import ResilienceConfig
    from repro.resilience.faults import FaultPolicy

    injector = None
    if failure_rate is not None:
        injector = warehouse.attach_faults(
            FaultPolicy(storage_failure_rate=failure_rate, seed=seed)
        )
    scheduler = warehouse.scheduler(
        resilience or ResilienceConfig(seed=seed), injector=injector
    )
    return injector, scheduler


def faults(
    workload,
    rows: Rows,
    config: DesignConfig,
    rounds: int = 3,
    failure_rate: float = 0.3,
    resilience=None,
) -> Report:
    """Seeded storage faults during maintenance; queries must stay consistent.

    Each round appends a delta to the most-updated relation (staling its
    views), serves every query while the failure window is open — each
    answer fresh, stale-but-consistent or degraded to base relations —
    then runs scheduler passes until the views converge.
    ``failure_rate`` applies to every stored relation during maintenance
    only, so foreground queries exercise degradation, not failure.
    """
    seed = config.seed
    warehouse = build(workload, rows, config)
    injector, scheduler = fault_scheduler(warehouse, seed, failure_rate, resilience)
    target = hot_relations(workload, rows)[0]
    delta = delta_slice(rows, target, 50)
    refreshes = dict.fromkeys(
        ("attempted", "succeeded", "failed", "skipped", "retries"), 0
    )
    queries = dict.fromkeys(
        ("run", "fresh", "stale", "degraded", "consistency_violations"), 0
    )

    def write(_round: int) -> None:
        warehouse.apply_update(target, delta, policy="defer")

    def check(name: str, served) -> None:
        queries["run"] += 1
        if served.degraded:
            queries["degraded"] += 1
        elif served.max_staleness > 0:
            queries["stale"] += 1
        else:
            queries["fresh"] += 1
        if not consistent(warehouse, name, served):
            queries["consistency_violations"] += 1

    def settle(_round: int) -> None:
        for outcome in scheduler.refresh_until_converged():
            refreshes["attempted"] += outcome.attempts
            if outcome.status in ("refreshed", "failed"):
                key = "succeeded" if outcome.status == "refreshed" else "failed"
                refreshes[key] += 1
                refreshes["retries"] += outcome.attempts - 1
            else:
                refreshes["skipped"] += 1

    drive(rounds, warehouse, write, check, settle)
    converged = not warehouse.stale_views()
    document = {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "refreshes": refreshes,
        "faults_injected": injector.stats(),
        "queries": queries,
        "converged": converged,
        "final_epochs": {
            view.name: scheduler.epoch(view.name) for view in warehouse.views
        },
        "final_ticks": scheduler.clock.now,
    }
    # The oracle runs after the trajectory is recorded, so its reads
    # cannot perturb it; what it finds counts as a consistency violation.
    queries["consistency_violations"] += check_views(warehouse).violations
    ok = converged and queries["consistency_violations"] == 0
    return Report("faults", document, ok)


# ---------------------------------------------------------------------------
# Scenario: stream
# ---------------------------------------------------------------------------

def stream(
    workload,
    rows: Rows,
    config: DesignConfig,
    rounds: int = 3,
    failure_rate: float = 0.0,
    policy=None,
) -> Report:
    """CDC streaming maintenance: ingest, coalesce, drain, verify.

    Each round streams a slice of inserts into the two most-updated
    relations, deletes one row inserted the same round (the coalescer
    must cancel the pair) and one previously loaded row, samples per-view
    staleness, serves every query under the policy's lag bound, and
    drains.  With ``failure_rate > 0`` seeded storage faults make delta
    commits fail, degrading views to breaker-guarded batch refresh; the
    scheduler then drives them to convergence.  The ``digest`` hashes the
    final view contents and drain counters.
    """
    from repro.cdc.policy import DEFAULT_STREAMING_POLICY
    from repro.errors import StreamingError

    if not 0.0 <= failure_rate <= 1.0:
        raise StreamingError(f"failure_rate must be in [0, 1]: {failure_rate}")
    if rounds < 1:
        raise StreamingError(f"rounds must be >= 1: {rounds}")
    seed = config.seed
    resolved = policy or DEFAULT_STREAMING_POLICY
    warehouse = build(workload, rows, config.replace(streaming=resolved))
    injector, scheduler = fault_scheduler(warehouse, seed, failure_rate or None)
    streaming = warehouse.enable_streaming(resolved)

    hot = hot_relations(workload, rows, 2)
    deletable = {name: list(rows[name]) for name in hot}
    changes = {"inserts": 0, "deletes": 0, "backpressure": 0}
    samples: List[int] = []
    queries = {"run": 0, "fresh": 0}
    reports = []

    def write(round_index: int) -> None:
        for relation in hot:
            delta = [dict(row) for row in delta_slice(rows, relation, 50, round_index)]
            drains_before = streaming.drains
            warehouse.apply_update(relation, delta, policy="stream")
            changes["inserts"] += len(delta)
            warehouse.apply_delete(relation, [delta[0]], policy="stream")
            changes["deletes"] += 1
            if deletable[relation]:
                victim = deletable[relation].pop(0)
                warehouse.apply_delete(relation, [victim], policy="stream")
                changes["deletes"] += 1
            changes["backpressure"] += streaming.drains - drains_before
        staleness = streaming.staleness()
        if staleness:
            samples.append(max(staleness.values()))

    def check(_name: str, served) -> None:
        queries["run"] += 1
        if served.max_staleness == 0:
            queries["fresh"] += 1

    def settle(_round: int) -> None:
        reports.append(streaming.drain())
        if injector is not None:
            scheduler.refresh_until_converged()

    drive(
        rounds, warehouse, write, check, settle,
        max_staleness=resolved.max_lag_records,
    )
    settle(rounds)  # final catch-up: the oracle compares head with head
    final = reports[-1]
    final_ticks = scheduler.clock.now
    verdict = check_views(warehouse)
    converged = (
        final.converged and not warehouse.stale_views() and streaming.max_lag() == 0
    )
    appended = streaming.changes.head_seq
    digest = hashlib.sha256()
    for name, contents in verdict.contents.items():
        digest.update(name.encode())
        digest.update(repr(contents).encode())
    digest.update(
        repr(
            (
                appended,
                streaming.coalesced_total,
                streaming.drains,
                sorted(streaming.staleness().items()),
            )
        ).encode()
    )
    ok = converged and verdict.violations == 0
    document = {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "changes": {
            "appended": appended,
            "dropped": streaming.changes.dropped_total(),
            "inserts": changes["inserts"],
            "deletes": changes["deletes"],
        },
        "drains": {
            "total": streaming.drains,
            "backpressure": changes["backpressure"],
            "coalesced": streaming.coalesced_total,
            "views_updated": len({n for r in reports for n in r.views_updated}),
            "views_recomputed": len(
                {n for r in reports for n in r.views_recomputed}
            ),
            "views_failed": len(final.views_failed),
        },
        "staleness": {"max": max(samples, default=0), "samples": samples},
        "queries": queries,
        "consistency_violations": verdict.mismatched,
        "partial_writes": verdict.partial_writes,
        "faults_injected": injector.stats() if injector is not None else {},
        "converged": converged,
        "final_ticks": final_ticks,
        "digest": digest.hexdigest()[:12],
        "ok": ok,
    }
    return Report("stream", document, ok)


# ---------------------------------------------------------------------------
# Scenario: shards
# ---------------------------------------------------------------------------

def _shard_local_batch(rows: Rows, schemes) -> Tuple[str, List[Mapping[str, Any]]]:
    """A deterministic delta that lands on a strict subset of shards: the
    first non-empty shard bucket (capped) of the largest partitioned
    relation, so the affected shard set is known in advance."""
    from repro.errors import DistributedError

    scheme = max(schemes, key=lambda s: (len(rows.get(s.relation, ())), s.relation))
    buckets = scheme.split_rows(rows.get(scheme.relation, ()))
    for shard in scheme.all_shards:
        if buckets[shard]:
            return scheme.relation, list(buckets[shard][:5])
    raise DistributedError(f"no rows to update in {scheme.relation!r}")


def shards(
    workload,
    rows: Rows,
    config: DesignConfig,
    shards: int = 8,
    replication: int = 2,
    workers: Sequence[int] = (1, 2, 4),
) -> Report:
    """Horizontal partitions: sound pruning that pays, partition-wise refresh.

    Serves every query through the pruned and unpruned paths (rows must
    match; queries with a selective predicate on a partition key must
    read strictly fewer blocks), then on one independently built
    warehouse per worker count applies a shard-local update batch (only
    the shards it lands on may go stale) and refreshes partition-wise
    (contents, I/O and stale sets must be bit-identical across counts).
    """
    from repro import obs
    from repro.distributed.simulate import choose_schemes

    schemes = choose_schemes(workload, rows, shards)
    sites = tuple(f"site{i}" for i in range(max(2, replication)))

    def sharded():
        warehouse = build(workload, rows, config, materialize=False)
        warehouse.enable_sharding(schemes, sites=sites, replication=replication)
        return warehouse

    warehouse = sharded()
    queries: List[Dict[str, Any]] = []
    for spec in workload.queries:
        pruned = warehouse.serve(spec.name, prune=True)
        unpruned = warehouse.serve(spec.name, prune=False)
        queries.append(
            {
                "query": spec.name,
                "rows": pruned.table.cardinality,
                "io_pruned": pruned.io.total,
                "io_unpruned": unpruned.io.total,
                "partitions_read": {
                    view: list(read) for view, read in pruned.partitions_read.items()
                },
                "partitions_pruned": pruned.partitions_pruned,
                "rows_identical": row_multiset(pruned.table.rows())
                == row_multiset(unpruned.table.rows()),
            }
        )

    relation, delta = _shard_local_batch(rows, schemes)
    scheme = next(s for s in schemes if s.relation == relation)
    affected = {scheme.shard_of(scheme.key_value(row)) for row in delta}
    worker_counts = tuple(sorted(dict.fromkeys(int(w) for w in workers))) or (1,)
    runs: List[Tuple[Any, ...]] = []  # (stale, refreshed, verdict, io) per count
    for worker_count in worker_counts:
        wh = sharded()
        wh.refresh_partitions(workers=worker_count)  # baseline: all fresh
        wh.apply_update(relation, delta, policy="defer")
        stale = {
            view.name: tuple(wh.sharding.stale_shards(view))
            for view in wh.sharding.shardable_views()
        }
        outcomes = wh.refresh_partitions(workers=worker_count)
        refreshed = tuple(sorted(o.view for o in outcomes if o.status == "refreshed"))
        io = wh.database.io.snapshot()
        runs.append((stale, refreshed, check_views(wh), (io.reads, io.writes)))

    selective = [q for q in queries if q["partitions_pruned"] > 0]
    rows_identical = all(q["rows_identical"] for q in queries)
    pruning_wins = all(q["io_pruned"] < q["io_unpruned"] for q in selective)
    # Co-partitioned views may only go stale on the update's landing
    # shards, and a refresh touches exactly the stale ones.
    affected_only = all(
        refreshed
        == tuple(sorted(f"{v}#{s}" for v, shards_ in stale.items() for s in shards_))
        and all(set(shards_) <= affected for shards_ in stale.values())
        for stale, refreshed, _, _ in runs
    )
    first_stale, first_refreshed, first_verdict, first_io = runs[0]
    identical = all(
        (stale, verdict.contents, io)
        == (first_stale, first_verdict.contents, first_io)
        for stale, _, verdict, io in runs
    )
    replica_reads: Dict[str, int] = {}
    if obs.enabled():
        for metric in obs.metrics().snapshot().get("counters", ()):
            if metric.get("name") == "distributed.replica_reads":
                site = metric.get("labels", {}).get("site", "?")
                replica_reads[site] = replica_reads.get(site, 0) + int(
                    metric.get("value", 0)
                )
    ok = (
        rows_identical
        and pruning_wins
        and len(selective) > 0
        and affected_only
        and identical
        and not any(verdict.violations for _, _, verdict, _ in runs)
    )
    document = {
        "workload": workload.name,
        "seed": config.seed,
        "shards": shards,
        "replication": replication,
        "schemes": [
            {"relation": s.relation, "key": s.key, "kind": s.kind, "shards": s.shards}
            for s in schemes
        ],
        "queries": queries,
        "rows_identical": rows_identical,
        "pruning_wins": pruning_wins,
        "selective_queries": len(selective),
        "refresh": {
            "affected_only": affected_only,
            "identical_across_workers": identical,
            "workers": list(worker_counts),
            "refreshed_shards": list(first_refreshed),
            "stale_after_update": {
                view: list(shards_) for view, shards_ in first_stale.items()
            },
        },
        "replica_reads": replica_reads,
        "ok": ok,
    }
    return Report("shards", document, ok)


# ---------------------------------------------------------------------------
# Scenario: drift (and the window replay shared with `repro adapt`)
# ---------------------------------------------------------------------------

def replay_window(
    controller, counts: Mapping[str, int], updates: Sequence[str]
) -> None:
    """Feed one window's events to ``controller``, one logical tick each:
    every query ``counts[name]`` times (in name order), then one update
    per relation in ``updates``."""
    for name in sorted(counts):
        for _ in range(counts[name]):
            controller.note_query(name, 1.0)
    for relation in updates:
        controller.note_update(relation, 1.0)


def inverted_profile(workload):
    """The hot-set inversion replay's inputs for ``workload``.

    One event per unit of design-time frequency (at least one), so the
    opening windows replay exactly what the designer expected; the
    drifted profile swaps the hot set end for end (the busiest query
    inherits the rarest query's rate and vice versa).  Returns
    ``(base_counts, drifted_counts, update_relations, policy)`` with the
    replay's tuned :func:`~repro.adaptive.simulate.simulation_policy`.
    """
    from repro.adaptive.simulate import simulation_policy

    base = {
        spec.name: max(1, int(round(spec.frequency))) for spec in workload.queries
    }
    ranked = sorted(base, key=lambda name: (base[name], name))
    drifted = {name: base[other] for name, other in zip(ranked, reversed(ranked))}
    updates = sorted(workload.update_frequencies)
    policy = simulation_policy(float(sum(base.values()) + len(updates)))
    return base, drifted, updates, policy


def replay_inversion(controller, profile, windows: int, stationary: bool = False):
    """Replay ``windows`` windows of :func:`inverted_profile`'s events —
    the hot set inverts halfway unless ``stationary`` — deciding at each
    window's end; returns the decisions."""
    base, drifted, updates, _ = profile
    decisions = []
    for window in range(windows):
        inverted = not stationary and window >= windows // 2
        replay_window(controller, drifted if inverted else base, updates)
        decisions.append(controller.evaluate())
    return decisions


def drift(
    workload,
    config: DesignConfig,
    windows_per_phase: int = 4,
    stationary: bool = False,
    policy=None,
) -> Report:
    """Replay a phased workload against static, adaptive and eager redesign.

    *static* designs once for the opening phase; *adaptive* is the
    drift-triggered, cost-gated controller; *eager* redesigns every
    window from that window's raw counts and pays each migration.  Phase
    A is the design-time profile, phase B inverts it, phase C alternates
    the two every window; ``stationary`` replays phase A throughout as
    the control (the controller must accept nothing).  Every variant sees
    the same seeded events; a window costs the design framework's
    per-period total under that window's counts.  A pure cost-model
    replay on the logical tick clock: it stores no tables, so there is
    nothing for the view oracle to check.
    """
    from repro.adaptive.simulate import (
        PHASE_A_PROFILE,
        phase_profile,
        simulation_policy,
        window_counts,
    )
    from repro.errors import AdaptiveError
    from repro.mvpp.cost import CostCache
    from repro.mvpp.generation import design as run_design
    from repro.warehouse.evolution import cost_migration, plan_migration
    from repro.warehouse.view import MaterializedView
    from repro.workload.query_log import FrequencyEstimate, apply_to_workload
    from repro.workload.spec import QuerySpec, Workload

    if windows_per_phase < 1:
        raise AdaptiveError(f"windows_per_phase must be >= 1: {windows_per_phase}")
    # Design-time frequencies are the phase-A profile (one window = one
    # period), so phase A really is "what the designer expected".
    initial = Workload(
        name=f"{workload.name}-drift",
        catalog=workload.catalog,
        statistics=workload.statistics,
        queries=tuple(
            QuerySpec(q.name, q.sql, float(PHASE_A_PROFILE.get(q.name, 1)))
            for q in workload.queries
        ),
        update_frequencies=dict(workload.update_frequencies),
    )
    updates = sorted(initial.update_frequencies)
    events = sum(PHASE_A_PROFILE.get(q.name, 1) for q in initial.queries)
    policy = policy or simulation_policy(float(events + len(updates)))
    cache = CostCache()
    windows = windows_per_phase * 3

    def installed(result) -> List[MaterializedView]:
        return [
            MaterializedView(name=f"mv_{v.name}", plan=v.operator)
            for v in result.materialized
        ]

    def stored_blocks(result) -> Dict[str, float]:
        return {
            f"mv_{v.name}": float(v.stats.blocks)
            for v in result.materialized
            if v.stats is not None
        }

    static = run_design(initial, config, cache=cache)
    controller = build(
        initial, {}, config.replace(adaptive=policy), materialize=False
    ).controller(policy=policy)
    eager_result = run_design(initial, config, cache=cache)
    eager_views = installed(eager_result)
    eager_blocks = stored_blocks(eager_result)
    variants = {
        name: {
            "serving_cost": 0.0,
            "migration_cost": 0.0,
            "total_cost": 0.0,  # set at the end, like final_views
            "migrations": 0,
            "window_costs": [],
            "final_views": [],
        }
        for name in ("adaptive", "eager", "static")
    }
    document = {
        "workload": initial.name,
        "seed": config.seed,
        "windows": windows,
        "stationary": stationary,
        "phases": [],
        "variants": variants,
        "decisions": [],
        "drift_events": 0,
        "accepted": 0,
        "final_ticks": 0.0,
    }
    rng = random.Random(config.seed)
    update_counts = {name: 1.0 for name in updates}
    for window in range(windows):
        phase, profile = phase_profile(window, windows_per_phase, stationary)
        document["phases"].append(phase)
        counts = window_counts(profile, rng)
        replay_window(controller, counts, updates)
        query_counts = {name: float(count) for name, count in counts.items()}
        # Each variant's serving cost under this window's true counts.
        for name, result in (
            ("static", static),
            ("adaptive", controller.installed_result),
            ("eager", eager_result),
        ):
            cost = result.calculator.breakdown_with_frequencies(
                result.materialized, query_counts, update_counts
            ).total
            variants[name]["serving_cost"] += cost
            variants[name]["window_costs"].append(cost)
        # Window end: adaptive decides; eager redesigns unconditionally.
        decision = controller.evaluate()
        document["decisions"].append(decision.action)
        if decision.drift is not None:
            document["drift_events"] += 1
        if decision.accepted:
            document["accepted"] += 1
            variants["adaptive"]["migrations"] += 1
            variants["adaptive"]["migration_cost"] += decision.migration_cost or 0.0
        observed = apply_to_workload(
            initial,
            FrequencyEstimate(
                query_frequencies=query_counts,
                update_frequencies=update_counts,
                periods=1.0,
            ),
        )
        new_result = run_design(observed, config, cache=cache)
        plan = cost_migration(
            plan_migration(eager_views, installed(new_result)),
            access_costs={
                v.operator.signature: v.access_cost for v in new_result.materialized
            },
            stored_blocks=eager_blocks,
            drop_cost_per_block=policy.drop_cost_per_block,
        )
        if not plan.is_noop:
            variants["eager"]["migrations"] += 1
            variants["eager"]["migration_cost"] += plan.migration_cost
            for view in plan.drop:
                eager_blocks.pop(view.name, None)
            eager_blocks.update(stored_blocks(new_result))
        eager_views = list(plan.keep) + list(plan.create)
        eager_result = new_result
    variants["static"]["final_views"] = list(static.materialized_names)
    variants["adaptive"]["final_views"] = list(
        controller.installed_result.materialized_names
    )
    variants["eager"]["final_views"] = sorted(v.name for v in eager_views)
    for variant in variants.values():
        variant["total_cost"] = variant["serving_cost"] + variant["migration_cost"]
    document["final_ticks"] = controller.clock.now
    adaptive_total = variants["adaptive"]["total_cost"]
    if stationary:
        ok = document["accepted"] == 0  # the control passes only if it stayed put
    else:
        ok = (
            adaptive_total < variants["static"]["total_cost"]
            and adaptive_total < variants["eager"]["total_cost"]
        )
    return Report("drift", document, ok)


# ---------------------------------------------------------------------------
# Scenario: periods
# ---------------------------------------------------------------------------

def periods(
    warehouse,
    periods: int = 5,
    seed: int = 0,
    update_batch_size: int = 10,
    maintenance_policy: str = "recompute",
    row_factory=None,
) -> Report:
    """Drive a loaded, materialized warehouse through maintenance periods.

    Measures the real block I/O of both sides of the paper's objective:
    each period serves each query ``⌊accumulated fq⌋`` times, then applies
    ``⌊accumulated fu⌋`` update batches of ``update_batch_size``
    synthesized rows per base relation under ``maintenance_policy``.
    Fractional frequencies carry over (``fq = 0.5`` runs every second
    period).  ``warehouse`` is caller-built, so any view mix can be
    compared (``benchmarks/bench_simulation.py``).
    """
    from repro.errors import WarehouseError
    from repro.warehouse.maintenance import INCREMENTAL, RECOMPUTE
    from repro.warehouse.rows import default_row_factory

    if periods < 1:
        raise WarehouseError("periods must be >= 1")
    if update_batch_size < 1:
        raise WarehouseError("update_batch_size must be >= 1")
    if maintenance_policy not in (RECOMPUTE, INCREMENTAL):
        raise WarehouseError(f"unsupported maintenance policy {maintenance_policy!r}")
    row_factory = row_factory or default_row_factory(warehouse)
    workload = warehouse.workload
    rng = random.Random(seed)
    query_credit = {spec.name: 0.0 for spec in workload.queries}
    update_credit = {name: 0.0 for name in workload.catalog.relation_names}
    io = {"query": 0, "maintenance": 0}
    executions: Dict[str, int] = {}
    batches: Dict[str, int] = {}

    def credited(_period: int) -> List[str]:
        names = []
        for spec in workload.queries:
            query_credit[spec.name] += spec.frequency
            while query_credit[spec.name] >= 1.0:
                query_credit[spec.name] -= 1.0
                names.append(spec.name)
        return names

    def check(name: str, served) -> None:
        io["query"] += served.io.total
        executions[name] = executions.get(name, 0) + 1

    def settle(_period: int) -> None:
        # The period's updates land after its queries, maintained inline.
        for relation in workload.catalog.relation_names:
            if relation not in warehouse.database:
                continue
            update_credit[relation] += workload.update_frequency(relation)
            while update_credit[relation] >= 1.0:
                update_credit[relation] -= 1.0
                batch = [row_factory(relation, rng) for _ in range(update_batch_size)]
                before = warehouse.database.io.snapshot()
                warehouse.apply_update(relation, batch, policy=maintenance_policy)
                io["maintenance"] += warehouse.database.io.since(before).total
                batches[relation] = batches.get(relation, 0) + 1

    drive(
        periods, warehouse, lambda _period: None, check, settle, queries=credited
    )
    verdict = check_views(warehouse)
    total = io["query"] + io["maintenance"]
    document = {
        "periods": periods,
        "seed": seed,
        "query_io": io["query"],
        "maintenance_io": io["maintenance"],
        "total_io": total,
        "per_period_io": total / periods,
        "query_executions": executions,
        "update_batches": batches,
        "consistency_violations": verdict.mismatched,
        "partial_writes": verdict.partial_writes,
    }
    return Report("periods", document, verdict.violations == 0)
