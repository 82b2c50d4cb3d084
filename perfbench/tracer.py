"""Span tracer that wraps the library's layer entry points from outside.

No ``src/`` code changes: each entry point is patched where its caller
looks it up (a class attribute, or a module global that was imported by
name), only while a traced operation runs, and restored afterwards.  An
untraced operation therefore runs the unmodified program.

A span is ``[name, start, end, parent, count]``: ``parent`` is the index
of the enclosing span (``-1`` at the root) and ``count`` an optional
work count taken from the call's return value (rows written).  Spans
are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


def _rows_added(result) -> int:
    return int(result)


def _rows_removed(result) -> int:
    return len(result)


#: (module, owner attribute or None for a module global, attribute,
#: span name, work count taken from the return value).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    # design path: sql -> optimizer -> MVPP generation/merge -> selection
    ("repro.warehouse.warehouse", "DataWarehouse", "design", "warehouse.design", None),
    ("repro.mvpp.generation", None, "generate_mvpps", "mvpp.generate", None),
    ("repro.mvpp.generation", None, "prepare_queries", "mvpp.prepare", None),
    ("repro.mvpp.generation", None, "parse_query", "sql.parse", None),
    ("repro.mvpp.generation", None, "optimize_query", "optimizer.optimize", None),
    ("repro.mvpp.strategies", None, "select_views", "mvpp.select", None),
    # serving path: warehouse -> rewriter -> planner -> operators -> store
    ("repro.warehouse.warehouse", "DataWarehouse", "serve", "warehouse.serve", None),
    ("repro.warehouse.warehouse", None, "rewrite_with_views", "warehouse.rewrite", None),
    ("repro.executor.engine", "ExecutionEngine", "execute", "executor.run", None),
    ("repro.executor.physical", "PhysicalPlanner", "lower", "executor.lower", None),
    ("repro.executor.engine", None, "table_from_columns", "storage.store", None),
    ("repro.executor.physical", None, "table_from_columns", "storage.store", None),
    # write path: warehouse -> batch maintenance / cdc -> storage
    ("repro.warehouse.warehouse", "DataWarehouse", "apply_update", "warehouse.write", None),
    ("repro.warehouse.warehouse", "DataWarehouse", "apply_delete", "warehouse.write", None),
    ("repro.warehouse.maintenance", "ViewMaintainer", "materialize", "maintenance.recompute", None),
    ("repro.warehouse.maintenance", "ViewMaintainer", "incremental_refresh", "maintenance.incremental", None),
    ("repro.cdc.streaming", "StreamingMaintainer", "drain", "cdc.drain", None),
    ("repro.cdc.propagation", "DeltaPropagator", "propagate", "cdc.propagate", None),
    ("repro.storage.table", "Table", "insert_many", "storage.insert", _rows_added),
    ("repro.storage.table", "Table", "delete_many", "storage.delete", _rows_removed),
)


class Tracer:
    """Collects spans for the operations run inside :meth:`traced`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches = []
        for module_name, owner_name, attribute, span, count in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            self._patches.append(
                (owner, attribute, original, self._wrap(original, span, count))
            )

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if count is not None:
                record[4] = count(result)
            return result

        return wrapper

    def traced(self, name: str, fn: Callable):
        """Run ``fn`` under a root span ``name`` with every target patched."""
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)
        try:
            return self._wrap(fn, name, None)()
        finally:
            for owner, attribute, original, _ in self._patches:
                setattr(owner, attribute, original)

    def mark(self) -> int:
        return len(self.spans)

    def self_ms(self, scale: Callable[[float, float], float]) -> Dict[str, float]:
        """Total self time per span name (duration minus child spans),
        each span's time multiplied by ``scale(start, end)``."""
        child = [0.0] * len(self.spans)
        for name, begin, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - begin
        totals: Dict[str, float] = {}
        for index, (name, begin, end, _, _) in enumerate(self.spans):
            own = (end - begin - child[index]) * scale(begin, end)
            totals[name] = totals.get(name, 0.0) + own * 1e3
        return totals

    def counts(self, start: int, stop: int) -> Dict[str, Tuple[int, int]]:
        """``name -> (calls, work count)`` over spans ``[start, stop)``."""
        out: Dict[str, Tuple[int, int]] = {}
        for name, _, _, _, work in self.spans[start:stop]:
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + work)
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ms", "end_ms", "parent", "count"],
                    "spans": [
                        [n, round((b - origin) * 1e3, 6), round((e - origin) * 1e3, 6), p, c]
                        for n, b, e, p, c in self.spans
                    ],
                },
                handle,
            )
