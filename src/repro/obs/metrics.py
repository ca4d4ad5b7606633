"""Process-local metrics: counters, gauges and histograms with labels.

The observability layer is *opt-in*: a single module-level switch
(:func:`enable` / :func:`disable`) gates every mutation.  While
disabled — the default — each instrument method returns after one
boolean check, so instrumented hot paths cost essentially nothing
(the θ_hm kernel additionally hoists the check out of its block loop;
see :func:`repro.stats.emd._condensed_blocks`).

Instruments are Prometheus-shaped:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — a value that can go up and down (set/inc/dec);
* :class:`HistogramMetric` — cumulative-bucket observations with
  ``sum`` and ``count``.

Every instrument may declare label *names* at creation; each distinct
combination of label *values* gets its own independent child series,
addressed by keyword arguments on the mutation methods::

    pairs = counter("repro_emd_pairs_total", "EMD pairs", labels=("backend",))
    pairs.inc(1225, backend="vectorized")
    pairs.value(backend="vectorized")  # 1225.0

All mutations are thread-safe (one lock per instrument).  Metrics are
*recorded* process-locally, but the registry is **delta-serializable**:
:meth:`MetricsRegistry.state` snapshots every series into plain
picklable containers, :meth:`MetricsRegistry.delta_since` subtracts a
baseline snapshot from the current values, and
:meth:`MetricsRegistry.merge_delta` folds such a delta into another
process's registry.  The serve plane's detection workers
(:mod:`repro.serve.worker`) use exactly this loop: each worker ships
the delta since its previous message with every reply, and the
coordinator merges — so worker-side counters survive in the
coordinator's registry instead of dying with the worker process.

The module-level :func:`counter` / :func:`gauge` / :func:`histogram`
helpers create instruments in the default registry, which
:func:`repro.obs.export.write_prom` and
:func:`repro.obs.export.summary` read.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "DEFAULT_BUCKETS",
]

#: The global no-op switch.  Mutations check this first and return
#: immediately when ``False``; reads always work.
_ENABLED = False


def enable() -> None:
    """Turn metric recording (and span tracing) on, process-wide."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn metric recording off; instruments become no-ops again."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    """Whether the observability layer is currently recording."""
    return _ENABLED


#: Default histogram buckets — tuned for sub-second kernel/stage
#: timings (seconds).  The +Inf bucket is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Instrument:
    """Shared plumbing: name/help/labels and the child-series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def _child(self, labels: Dict[str, object], default):
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children.setdefault(key, default())
        return child

    def clear(self) -> None:
        """Drop every child series (used by registry reset)."""
        with self._lock:
            self._children.clear()

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(label_values, child)`` pairs, sorted."""
        with self._lock:
            return sorted(self._children.items())

    # -- delta serialization -------------------------------------------
    def _spec(self) -> Dict[str, object]:
        """The instrument's identity as plain picklable data."""
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
        }

    def _series_state(self) -> Dict[Tuple[str, ...], object]:
        """``{label_values: plain-value}`` for every child series."""
        raise NotImplementedError

    def _apply_delta(self, key: Tuple[str, ...], value: object) -> None:
        """Fold one serialized series delta into this instrument."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError("counters only go up; inc() needs amount >= 0")
        with self._lock:
            key = self._key(labels)
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def _series_state(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return {key: float(value) for key, value in self._children.items()}

    def _apply_delta(self, key: Tuple[str, ...], value: object) -> None:
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + float(value)


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._children[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not _ENABLED:
            return
        with self._lock:
            key = self._key(labels)
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def _series_state(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return {key: float(value) for key, value in self._children.items()}

    def _apply_delta(self, key: Tuple[str, ...], value: object) -> None:
        # Gauges describe a current level, not a flow: the shipped
        # value overwrites (last writer wins), exactly as a local
        # ``set`` would.
        with self._lock:
            self._children[key] = float(value)


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class HistogramMetric(_Instrument):
    """Bucketed observations with Prometheus cumulative exposition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not _ENABLED:
            return
        with self._lock:
            series = self._child(
                labels, lambda: _HistogramSeries(len(self.buckets) + 1)
            )
            index = len(self.buckets)  # +Inf bucket
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def snapshot(self, **labels: object) -> Dict[str, object]:
        """``{"count", "sum", "buckets": {le: cumulative}}`` for a series."""
        with self._lock:
            series = self._children.get(self._key(labels))
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            cumulative: Dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, series.counts):
                running += count
                cumulative[repr(bound)] = running
            cumulative["+Inf"] = series.count
            return {
                "count": series.count,
                "sum": series.sum,
                "buckets": cumulative,
            }

    def _spec(self) -> Dict[str, object]:
        spec = super()._spec()
        spec["buckets"] = list(self.buckets)
        return spec

    def _series_state(self) -> Dict[Tuple[str, ...], object]:
        with self._lock:
            return {
                key: {
                    "counts": list(series.counts),
                    "sum": series.sum,
                    "count": series.count,
                }
                for key, series in self._children.items()
            }

    def _apply_delta(self, key: Tuple[str, ...], value: object) -> None:
        counts = value["counts"]
        with self._lock:
            series = self._child(
                {n: v for n, v in zip(self.label_names, key)},
                lambda: _HistogramSeries(len(self.buckets) + 1),
            )
            if len(counts) != len(series.counts):
                raise ValueError(
                    f"histogram {self.name!r}: delta has {len(counts)} "
                    f"buckets, instrument has {len(series.counts)}"
                )
            for i, c in enumerate(counts):
                series.counts[i] += int(c)
            series.sum += float(value["sum"])
            series.count += int(value["count"])


def _series_delta(kind: str, current, baseline):
    """The serialized difference of one series since ``baseline``."""
    if kind == "counter":
        diff = float(current) - float(baseline or 0.0)
        return diff if diff != 0.0 else None
    if kind == "gauge":
        if baseline is not None and float(current) == float(baseline):
            return None
        return float(current)
    # histogram
    if baseline is None:
        base_counts: Sequence[int] = ()
        base_sum, base_count = 0.0, 0
    else:
        base_counts = baseline["counts"]
        base_sum, base_count = baseline["sum"], baseline["count"]
    counts = [
        int(c) - int(b)
        for c, b in zip(
            current["counts"],
            list(base_counts) + [0] * len(current["counts"]),
        )
    ]
    delta = {
        "counts": counts,
        "sum": float(current["sum"]) - float(base_sum),
        "count": int(current["count"]) - int(base_count),
    }
    if delta["count"] == 0 and delta["sum"] == 0.0:
        return None
    return delta


class MetricsRegistry:
    """Get-or-create home for instruments; the export surface reads it.

    Re-requesting an existing name returns the same instrument if the
    kind and label names match, and raises ``ValueError`` otherwise —
    instrument identity is global per registry, as in Prometheus.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            instrument = cls(name, help, labels, **kwargs)
            self._metrics[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramMetric:
        return self._get_or_create(
            HistogramMetric, name, help, labels, buckets=buckets
        )

    def instruments(self) -> List[_Instrument]:
        """Snapshot of registered instruments, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every series while keeping the instruments registered.

        Instruments are created once at import time by the modules they
        observe; reset clears their values (for tests and fresh runs)
        without invalidating those module-level references.
        """
        for instrument in self.instruments():
            instrument.clear()

    # -- cross-process aggregation -------------------------------------
    def state(self) -> Dict[str, Dict]:
        """A full, picklable snapshot of every instrument and series.

        ``{name: {"kind", "help", "labels", ["buckets"], "series"}}``
        where ``series`` maps label-value tuples to floats (counters,
        gauges) or ``{"counts", "sum", "count"}`` dicts (histograms).
        Plain builtins only, so the snapshot crosses process boundaries
        through pickle (process pools) or JSON (after key flattening).
        """
        out: Dict[str, Dict] = {}
        for instrument in self.instruments():
            spec = instrument._spec()
            spec["series"] = instrument._series_state()
            out[instrument.name] = spec
        return out

    def delta_since(self, baseline: Optional[Dict[str, Dict]]) -> Dict[str, Dict]:
        """What changed since a :meth:`state` snapshot, same shape.

        Counters and histograms subtract (per series, per bucket);
        gauges are included at their current value when it differs from
        the baseline.  Unchanged series — and instruments with no
        changed series — are omitted, so a quiet worker ships an empty
        dict.  ``baseline=None`` means "everything" (a fresh process).
        """
        baseline = baseline or {}
        delta: Dict[str, Dict] = {}
        for name, spec in self.state().items():
            base_series = baseline.get(name, {}).get("series", {})
            changed = {}
            for key, value in spec["series"].items():
                diff = _series_delta(spec["kind"], value, base_series.get(key))
                if diff is not None:
                    changed[key] = diff
            if changed:
                spec["series"] = changed
                delta[name] = spec
        return delta

    def merge_delta(self, delta: Dict[str, Dict]) -> None:
        """Fold a :meth:`delta_since` payload into this registry.

        Instruments are get-or-created with the shipped kind/help/
        labels (and buckets), so a metric that only exists worker-side
        still lands here; a name already registered with a different
        shape raises ``ValueError``, exactly as local creation would.
        Merging is an explicit aggregation API: it applies regardless
        of the :func:`enable` switch, since the delta was necessarily
        recorded while a producer had observability on.
        """
        for name, spec in delta.items():
            kind = spec["kind"]
            if kind == "counter":
                instrument = self.counter(name, spec["help"], spec["labels"])
            elif kind == "gauge":
                instrument = self.gauge(name, spec["help"], spec["labels"])
            elif kind == "histogram":
                instrument = self.histogram(
                    name, spec["help"], spec["labels"], spec["buckets"]
                )
            else:
                raise ValueError(f"unknown instrument kind {kind!r} in delta")
            for key, value in spec["series"].items():
                instrument._apply_delta(tuple(key), value)


#: The default registry; the module-level helpers and the exporters in
#: :mod:`repro.obs.export` use it.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter in the default registry."""
    return _REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge in the default registry."""
    return _REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str = "",
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> HistogramMetric:
    """Get-or-create a histogram in the default registry."""
    return _REGISTRY.histogram(name, help, labels, buckets)
