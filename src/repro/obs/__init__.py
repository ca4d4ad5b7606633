"""repro.obs — the pipeline-wide observability layer.

One import point for the three concerns:

* **Metrics** (:mod:`repro.obs.metrics`) — process-local counters,
  gauges and histograms with labels, behind a module-level no-op
  switch (:func:`enable` / :func:`disable`).
* **Tracing** (:mod:`repro.obs.tracing`) — nested wall/CPU-timed spans
  (``with span("theta_hm", hosts=n):``) delivered to pluggable sinks.
* **Export** (:mod:`repro.obs.export`) — JSONL event files, Prometheus
  text exposition, and plain-dict summaries for tests.
* **Live endpoint** (:mod:`repro.obs.http`) — a background-thread HTTP
  server exposing ``/metrics``, ``/healthz`` and ``/summary`` mid-run.
* **Run ledger** (:mod:`repro.obs.ledger`) — one atomic directory per
  run (manifest, spans, final metrics); inspected with ``repro-obs``.
* **Session** (:mod:`repro.obs.session`) — :class:`ObsSession`, the
  crash-safe lifecycle behind the CLIs' shared telemetry flags.

Metrics are also *cross-process*: the registry is delta-serializable,
and the serve plane's detection workers ship their deltas home with
every reply (see :mod:`repro.serve.worker`), so the coordinator's
registry holds the whole service's totals.

Everything is off by default and costs one boolean check per
instrumented site; a typical opt-in looks like::

    from repro import obs

    with obs.ObsSession(
        metrics_out="metrics.jsonl",
        prom_out="metrics.prom",
        ledger_dir="runs/",
        kind="adhoc",
    ) as session:
        result = find_plotters(store, hosts)
        session.record_result(result)

See ``docs/observability.md`` for the metric and span inventory.
"""

from .export import (
    FUNNEL_STAGES,
    InMemorySink,
    JsonlSink,
    funnel_snapshot,
    metrics_event,
    parse_prom,
    render_prom,
    summary,
    write_prom,
)
from .http import MetricsServer
from .ledger import RunLedger, RunRecorder, diff_runs
from .logconf import configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    histogram,
    is_enabled,
)
from .session import ObsSession, add_observability_args
from .tracing import (
    Span,
    add_sink,
    clear_sinks,
    current_span,
    remove_sink,
    span,
)

__all__ = [
    # switch
    "enable",
    "disable",
    "is_enabled",
    # metrics
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    # tracing
    "Span",
    "span",
    "current_span",
    "add_sink",
    "remove_sink",
    "clear_sinks",
    # export
    "JsonlSink",
    "InMemorySink",
    "render_prom",
    "write_prom",
    "parse_prom",
    "summary",
    "metrics_event",
    "funnel_snapshot",
    "FUNNEL_STAGES",
    # live endpoint / ledger / session
    "MetricsServer",
    "RunLedger",
    "RunRecorder",
    "diff_runs",
    "ObsSession",
    "add_observability_args",
    # logging
    "configure_logging",
    "get_logger",
]
