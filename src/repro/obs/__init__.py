"""repro.obs — zero-cost-when-disabled observability for the pipeline.

The pipeline's hot paths are instrumented against this module's
*current* tracer and metrics registry::

    from repro import obs

    with obs.span("selection.figure9", mvpp=name) as span:
        span.event("decision", vertex="tmp2", decision="materialize")
    obs.metrics().counter("executor.blocks_read").inc(blocks)

By default both are no-op singletons: ``obs.span(...)`` returns a shared
inert context manager and every metric mutator does nothing, so the
disabled overhead is one function call per instrumentation point (the
tier-1 suite and production-path timings are unaffected; see
``tests/obs/test_noop_overhead.py``).

Enable collection explicitly::

    obs.enable()            # swap in a live Tracer + MetricsRegistry
    ...                     # run the pipeline
    snapshot = obs.snapshot()   # {"phases": ..., "spans": ..., "metrics": ...}
    obs.disable()

or set the ``REPRO_OBS`` environment variable (any non-empty value other
than ``0``/``false``/``off``) to enable it at import time.

The span taxonomy and metric names are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.obs.calibration import (
    CalibrationLog,
    CalibrationSample,
    NoopCalibrationLog,
)
from repro.obs.journal import EventJournal, JournalEvent, NoopJournal
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetricsRegistry,
)
from repro.obs.tracing import NOOP_SPAN, NoopSpan, NoopTracer, Span, Tracer
from repro.obs import export

__all__ = [
    "CalibrationLog",
    "CalibrationSample",
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "NoopCalibrationLog",
    "NoopJournal",
    "NoopMetricsRegistry",
    "NoopSpan",
    "NoopTracer",
    "Span",
    "Tracer",
    "calibration",
    "correlation",
    "enable",
    "disable",
    "enabled",
    "event",
    "export",
    "journal",
    "journal_event",
    "metrics",
    "recording",
    "reset",
    "snapshot",
    "span",
    "tracer",
]

#: Environment variable that enables collection at import time.
ENV_VAR = "REPRO_OBS"

_NOOP_TRACER = NoopTracer()
_NOOP_METRICS = NoopMetricsRegistry()
_NOOP_JOURNAL = NoopJournal()
_NOOP_CALIBRATION = NoopCalibrationLog()

_enabled = False
_tracer: Tracer = _NOOP_TRACER  # type: ignore[assignment]
_metrics: MetricsRegistry = _NOOP_METRICS
_journal: EventJournal = _NOOP_JOURNAL
_calibration: CalibrationLog = _NOOP_CALIBRATION


def enabled() -> bool:
    """Whether observability collection is currently on."""
    return _enabled


def enable(reset: bool = False) -> None:
    """Swap in a live tracer and metrics registry.

    Idempotent; with ``reset=True`` any previously collected spans and
    metrics are discarded first (also when already enabled).
    """
    global _enabled, _tracer, _metrics, _journal, _calibration
    if not _enabled:
        _tracer = Tracer()
        _metrics = MetricsRegistry()
        _journal = EventJournal()
        _calibration = CalibrationLog()
        _enabled = True
    elif reset:
        _tracer.reset()
        _metrics.reset()
        _journal.reset()
        _calibration.reset()


def disable() -> None:
    """Return to the zero-cost no-op mode (collected data is dropped)."""
    global _enabled, _tracer, _metrics, _journal, _calibration
    _enabled = False
    _tracer = _NOOP_TRACER  # type: ignore[assignment]
    _metrics = _NOOP_METRICS
    _journal = _NOOP_JOURNAL
    _calibration = _NOOP_CALIBRATION


@contextmanager
def recording() -> Iterator[None]:
    """Collect from a clean slate inside the block; observability that
    was off before it is switched off again afterwards."""
    was_enabled = _enabled
    enable(reset=True)
    try:
        yield
    finally:
        if not was_enabled:
            disable()


def reset() -> None:
    """Drop collected spans and metrics, keeping the current mode."""
    _tracer.reset()
    _metrics.reset()
    _journal.reset()
    _calibration.reset()


def tracer() -> Tracer:
    """The current tracer (a :class:`NoopTracer` while disabled)."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The current registry (a :class:`NoopMetricsRegistry` while disabled)."""
    return _metrics


def journal() -> EventJournal:
    """The current flight recorder (a :class:`NoopJournal` while disabled)."""
    return _journal


def calibration() -> CalibrationLog:
    """The current calibration log (no-op while disabled)."""
    return _calibration


def journal_event(
    kind: str,
    correlation_id: "str | None" = None,
    tick: "float | None" = None,
    **attributes: Any,
) -> None:
    """Record one flight-recorder event (no-op while disabled)."""
    if _enabled:
        _journal.record(
            kind, correlation_id=correlation_id, tick=tick, **attributes
        )


def correlation(scope: str = "corr", correlation_id: "str | None" = None):
    """Open a correlation scope on the current journal.

    Use as a context manager; the yielded id tags every
    :func:`journal_event` recorded inside, threading one logical
    operation (a refresh, a redesign, a served query) across
    subsystems.  While disabled this is a shared no-op scope yielding
    the empty id.
    """
    return _journal.correlation(scope, correlation_id)


def span(name: str, **attributes: Any):
    """Shorthand for ``tracer().span(...)`` against the current tracer."""
    if not _enabled:
        return NOOP_SPAN
    return _tracer.span(name, **attributes)


def event(name: str, **attributes: Any) -> None:
    """Record an event on the current span (no-op while disabled)."""
    if _enabled:
        _tracer.event(name, **attributes)


def snapshot(workload: str = "") -> Dict[str, Any]:
    """The full observability state as a JSON-safe profile document."""
    return export.profile_to_dict(
        _tracer, _metrics, workload=workload, journal=_journal
    )


if os.environ.get(ENV_VAR, "").lower() not in ("", "0", "false", "off"):
    enable()
