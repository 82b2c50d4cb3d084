"""Execution backends for fanning out independent pipeline stages.

The design pipeline has three embarrassingly parallel loops — the
Figure-4 seed rotations (one MVPP per rotation), the per-candidate
Figure-9 selection, and the Table-2 strategy comparison.  Each loop
hands its work to an *executor*: an object with an order-preserving
``map(fn, items)`` that may run tasks serially, on a thread pool, or on
a process pool.

Determinism is the contract: ``map`` always returns results in input
order and every backend produces bit-identical results for pure
functions, so a parallel design run picks the same views and reports
the same costs as a serial one.  Exceptions raised by a task propagate
to the caller (remaining tasks are cancelled by pool shutdown).

Backend selection:

* ``serial`` — plain loop; the default when ``workers <= 1``.
* ``thread`` — :class:`concurrent.futures.ThreadPoolExecutor`.  Safe
  for every task (closures, shared caches); CPU-bound pure-Python work
  is still GIL-serialized, but the one per-design
  :class:`~repro.mvpp.cost.CostCache` all candidates share makes the
  fan-out pay through memoization rather than raw parallelism.
* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`.  Real
  CPU parallelism; tasks and arguments must be picklable (module-level
  functions), and in-memory caches are per-task copies: each candidate
  gets its own copy of the design's cost memo, so nothing is shared and
  the parent's memo counts stay zero.
* ``auto`` — ``serial`` when ``workers <= 1``, else ``thread``.

Per-``map`` task counts are exported through :mod:`repro.obs` as the
``parallel.tasks{backend=...}`` counter.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Sequence, TypeVar

from repro import obs
from repro.errors import ReproError

__all__ = [
    "AUTO",
    "PROCESS",
    "SERIAL",
    "THREAD",
    "EXECUTOR_KINDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_workers",
    "resolve_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: Backend names accepted by :func:`resolve_executor` (and the CLI's
#: ``--parallel`` flag / ``DesignConfig.executor``).
SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"
AUTO = "auto"
EXECUTOR_KINDS = (AUTO, SERIAL, THREAD, PROCESS)

#: Cap for ``workers=0`` (auto-sized) pools; beyond this the pipeline's
#: fan-out width (one task per MVPP candidate) rarely keeps pools busy.
MAX_AUTO_WORKERS = 8


def default_workers() -> int:
    """Pool width used for ``workers=0``: CPU count, capped."""
    return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))


class Executor:
    """Order-preserving ``map`` over independent tasks (base/serial)."""

    kind = SERIAL
    #: Whether tasks may be closures / bound methods (False means tasks
    #: must be picklable module-level callables).
    supports_closures = True

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ReproError(f"executor workers must be >= 1: {workers}")
        self.workers = workers

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""
        tasks = list(items)
        self._count(tasks)
        return self._run(fn, tasks)

    # ------------------------------------------------------------- internals
    def _run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        return [fn(item) for item in tasks]

    def _count(self, tasks: Sequence[Any]) -> None:
        if tasks:
            obs.metrics().counter("parallel.tasks", backend=self.kind).inc(
                len(tasks)
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Plain in-order loop — the reference backend."""

    def __init__(self, workers: int = 1):
        super().__init__(1)


class ThreadExecutor(Executor):
    """Thread-pool backend; safe for closures and shared caches."""

    kind = THREAD

    def _run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        if len(tasks) <= 1 or self.workers <= 1:
            return [fn(item) for item in tasks]
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(tasks))
        ) as pool:
            return list(pool.map(fn, tasks))


class ProcessExecutor(Executor):
    """Process-pool backend; tasks and arguments must be picklable."""

    kind = PROCESS
    supports_closures = False

    def _run(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        if len(tasks) <= 1 or self.workers <= 1:
            return [fn(item) for item in tasks]
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks))
        ) as pool:
            return list(pool.map(fn, tasks))


def resolve_executor(
    kind: str = AUTO, workers: int = 1, closures: bool = False
) -> Executor:
    """Pick a backend for the requested ``kind`` and worker count.

    ``workers=0`` auto-sizes the pool (:func:`default_workers`);
    ``workers=1`` always yields the serial backend.  With
    ``closures=True`` a ``process`` request degrades to ``thread``,
    since closures and bound methods cannot cross process boundaries.
    """
    if kind not in EXECUTOR_KINDS:
        raise ReproError(
            f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    if workers < 0:
        raise ReproError(f"workers must be >= 0: {workers}")
    if workers == 0:
        workers = default_workers()
    if workers <= 1:
        return SerialExecutor()
    if kind == PROCESS and closures:
        kind = THREAD
    if kind == PROCESS:
        return ProcessExecutor(workers)
    if kind in (THREAD, AUTO):
        return ThreadExecutor(workers)
    return SerialExecutor()
