"""Lightweight span tracing for the detection pipeline.

A *span* measures one named unit of work — a pipeline stage, a
clustering pass, an online-window evaluation — recording wall-clock
and CPU time plus arbitrary attributes (host counts, thresholds).
Spans nest: a context-variable stack links each span to its parent,
so one ``find_plotters`` run produces a tree::

    find_plotters
      reduction        input_hosts=412 surviving_hosts=206 threshold=0.031
      theta_vol        input_hosts=206 surviving_hosts=104 ...
      theta_churn      ...
      theta_hm         input_hosts=129 surviving_hosts=18  ...
        cluster_hosts  hosts=97 pairs=4656 clusters=12 kept=4
          emd_matrix
          linkage

Usage::

    with span("theta_hm", hosts=len(union)) as s:
        result = ...
        s.set(surviving=len(result.selected))

Tracing obeys the same module-level switch as the metrics registry
(:func:`repro.obs.metrics.enable`): while disabled, :func:`span`
yields a shared no-op object and touches neither the clock nor the
context variable.  Finished spans are serialised to dicts and handed
to every registered sink (see :class:`repro.obs.export.JsonlSink`);
each span's wall time is additionally observed into the
``repro_span_seconds{span=...}`` histogram so stage durations appear
in the Prometheus exposition without a separate code path.

Exceptions propagate: a span whose body raises is finalised with
``status="error"`` and the exception's type/message, then re-raised.
The context-variable stack makes nesting correct across threads and
asyncio tasks alike.  Sinks must not raise; a sink that does is
reported through the ``repro.obs`` logger and otherwise ignored, so
telemetry failures never break detection.
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from . import metrics as _metrics

__all__ = [
    "Span",
    "span",
    "current_span",
    "add_sink",
    "remove_sink",
    "clear_sinks",
]

_STACK: contextvars.ContextVar[Tuple["Span", ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)
_NEXT_ID = itertools.count(1)
_SINKS: List[object] = []

#: Every finished span's wall time lands here, labelled by span name —
#: this is how stage durations reach the Prometheus exposition.
_SPAN_SECONDS = _metrics.histogram(
    "repro_span_seconds",
    "Wall-clock duration of traced spans",
    labels=("span",),
)


class Span:
    """One traced unit of work; mutable until its context exits."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "attrs",
        "start_wall",
        "wall_seconds",
        "cpu_seconds",
        "status",
        "error",
    )

    def __init__(
        self, name: str, span_id: int, parent: Optional["Span"], attrs: Dict
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        self.attrs = attrs
        self.start_wall = time.time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, object]:
        """The JSONL event form of the finished span."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start_wall,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Stands in for a :class:`Span` while observability is disabled."""

    __slots__ = ()
    name = None
    span_id = None
    parent_id = None
    depth = -1
    attrs: Dict[str, object] = {}
    status = "disabled"

    def set(self, **attrs: object) -> None:
        pass


_NOOP = _NoopSpan()


def current_span() -> Optional[Span]:
    """The innermost live span of this context, or ``None``."""
    stack = _STACK.get()
    return stack[-1] if stack else None


def add_sink(sink: object) -> None:
    """Register a sink; it receives ``on_span(dict)`` per finished span."""
    if sink not in _SINKS:
        _SINKS.append(sink)


def remove_sink(sink: object) -> None:
    """Unregister a sink (no error if absent)."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        pass


def clear_sinks() -> None:
    """Unregister every sink."""
    del _SINKS[:]


def _emit(finished: Span) -> None:
    _SPAN_SECONDS.observe(finished.wall_seconds or 0.0, span=finished.name)
    if not _SINKS:
        return
    record = finished.to_dict()
    for sink in list(_SINKS):
        try:
            sink.on_span(record)
        except Exception:  # telemetry must never break detection
            logging.getLogger("repro.obs").warning(
                "span sink %r failed", sink, exc_info=True
            )


@contextmanager
def span(name: str, **attrs: object):
    """Trace one unit of work; yields the live :class:`Span`.

    No-op (yields a shared inert object) while observability is
    disabled.  On exit the span is timed, pushed to every sink, and its
    wall time observed into ``repro_span_seconds``.
    """
    if not _metrics.is_enabled():
        yield _NOOP
        return
    parent = current_span()
    live = Span(name, next(_NEXT_ID), parent, dict(attrs))
    token = _STACK.set(_STACK.get() + (live,))
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield live
    except BaseException as exc:
        live.status = "error"
        live.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        live.wall_seconds = time.perf_counter() - wall0
        live.cpu_seconds = time.process_time() - cpu0
        _STACK.reset(token)
        _emit(live)
