"""Online detection over a sliding window.

The batch pipeline (:func:`repro.detection.pipeline.find_plotters`)
analyses a completed window of traffic.  An operator at a live border
wants the same verdicts *while the window fills*: ingest flows as they
arrive, re-evaluate periodically, keep memory bounded.

:class:`OnlineDetector` composes the streaming feature extractor with
the batch scoring core.  Flows are ingested one at a time; at any
moment :meth:`evaluate` hands the features accumulated in the current
window to :func:`~repro.detection.pipeline.score_features`, the same
reduction, θ_vol, θ_churn and θ_hm code :func:`find_plotters` runs.
Windows tumble: when a flow arrives past the window end, the window is
finalised (its result retained in ``history``) and a new one starts.

The detector holds window state in memory only.  Its production user,
the :mod:`repro.serve` worker, keeps it rebuildable: the coordinator's
epoch spool and journal are the durable record, and a replacement
worker replays its shard's rows of the spool onto a fresh detector.

Fidelity note: the scalar features are exact; θ_hm reads the per-host
interstitial reservoir (an unbiased sample) instead of the complete
sample set, so its histograms converge to the batch ones as the
reservoir grows, and equal them once the reservoir holds every sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Set

from ..flows.record import FlowRecord
from ..flows.streaming import StreamingFeatureExtractor
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from .pipeline import PipelineConfig, score_features

__all__ = ["OnlineVerdict", "OnlineDetector"]

# Online-detector telemetry.
_TUMBLES = obs_metrics.counter(
    "repro_online_window_tumbles_total",
    "Windows finalised by the online detector",
)
_EVALUATIONS = obs_metrics.counter(
    "repro_online_evaluations_total", "OnlineDetector.evaluate() calls"
)
_RESERVOIR_SAMPLES = obs_metrics.gauge(
    "repro_online_reservoir_samples",
    "Interstitial samples held across all evaluated hosts (last evaluate)",
)
_TRACKED_HOSTS = obs_metrics.gauge(
    "repro_online_tracked_hosts",
    "Internal hosts with state in the current window (last evaluate)",
)


@dataclass(frozen=True)
class OnlineVerdict:
    """One evaluation of the current window."""

    window_index: int
    evaluated_at: float
    hosts_seen: int
    reduced: frozenset
    suspects: frozenset

    def to_json(self) -> str:
        """One-line JSON form, as the serve worker ships it."""
        return json.dumps(
            {
                "window_index": self.window_index,
                "evaluated_at": self.evaluated_at,
                "hosts_seen": self.hosts_seen,
                "reduced": sorted(self.reduced),
                "suspects": sorted(self.suspects),
            },
            sort_keys=True,
        )


class OnlineDetector:
    """Streaming FindPlotters over tumbling windows.

    Parameters
    ----------
    internal_hosts:
        The candidate (internal) host population; flows from other
        sources are ingested but never scored.
    window:
        Window length in seconds (the paper's D; default six hours).
    config:
        Detection thresholds, shared with the batch pipeline.
    reservoir_size:
        Cap on the interstitial samples kept per host for θ_hm.
    window_origin:
        Anchor of the window grid: boundaries snap to
        ``origin + k·window`` instead of the first ingested flow's
        start, so a detector restarted mid-stream tumbles at the same
        instants as its predecessor (see :meth:`finalize_window`).
    """

    def __init__(
        self,
        internal_hosts: Set[str],
        window: float = 6 * 3600.0,
        config: PipelineConfig = PipelineConfig(),
        reservoir_size: int = 4096,
        window_origin: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window length must be positive")
        self.internal_hosts = set(internal_hosts)
        self.window = window
        #: When set, window boundaries snap to the grid
        #: ``origin + k·window`` instead of starting at the first
        #: ingested flow — so a detector restarted mid-stream (the
        #: serve plane's worker recovery) tumbles at exactly the same
        #: instants as the one it replaced, whatever flow it happens to
        #: see first.
        self.window_origin = window_origin
        self.config = config
        self.reservoir_size = reservoir_size
        self.history: List[OnlineVerdict] = []
        self._window_index = 0
        self._window_start: Optional[float] = None
        self._extractor = self._fresh_extractor()

    def _fresh_extractor(self) -> StreamingFeatureExtractor:
        return StreamingFeatureExtractor(
            reservoir_size=self.reservoir_size,
            seed=self._window_index,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _aligned_start(self, t: float) -> float:
        """The window-grid start for time ``t`` (see ``window_origin``)."""
        if self.window_origin is None:
            return t
        k = math.floor((t - self.window_origin) / self.window)
        return self.window_origin + k * self.window

    def ingest(self, flow: FlowRecord) -> None:
        """Feed one flow, as a batch of one (see :meth:`ingest_many`)."""
        self.ingest_many((flow,))

    def ingest_many(self, flows) -> None:
        """Feed an iterable of flows (must be roughly time-ordered);
        rolls the window when a flow starts past it.

        A flow needs only the attributes the streaming extractor reads
        (see :meth:`StreamingFeatureExtractor.update`).  Each window's
        run of the batch reaches the extractor as one batch, so
        telemetry counts batches, not flows.
        """
        run: List[FlowRecord] = []
        for flow in flows:
            if self._window_start is None:
                self._window_start = self._aligned_start(flow.start)
            elif flow.start >= self._window_start + self.window:
                self._extractor.update_many(run)
                run = []
                self._finalize(self._window_start + self.window)
                # Advance by whole windows so a long gap skips empty ones.
                while flow.start >= self._window_start + self.window:
                    self._window_start += self.window
            run.append(flow)
        self._extractor.update_many(run)

    def _finalize(self, at: float) -> None:
        self.history.append(self.evaluate(at))
        self._window_index += 1
        self._extractor = self._fresh_extractor()
        _TUMBLES.inc()

    def finalize_window(self, at: Optional[float] = None) -> Optional[OnlineVerdict]:
        """Finalise the current window early, without waiting for a flow.

        The tumble normally happens when a flow arrives past the window
        end; a draining service (or a rebalancing coordinator) cannot
        wait for one.  This evaluates and retires the current window as
        if a flow at its end had arrived — verdict appended to
        ``history`` — and resets the window clock, so the next ingested
        flow opens a fresh window (grid-aligned when ``window_origin``
        is set).  Returns the finalised verdict, or ``None`` when no
        flow has been ingested since the last tumble (nothing to
        finalise).
        """
        if self._window_start is None:
            return None
        end = self._window_start + self.window if at is None else at
        self._finalize(end)
        self._window_start = None
        return self.history[-1]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: Optional[float] = None) -> OnlineVerdict:
        """Score the current window's features with the batch core."""
        with span("online_evaluate", window_index=self._window_index) as sp:
            features = {
                host: feats
                for host, feats in self._extractor.all_features().items()
                if host in self.internal_hosts
            }
            _EVALUATIONS.inc()
            if obs_metrics.is_enabled():
                _TRACKED_HOSTS.set(len(features))
                _RESERVOIR_SAMPLES.set(
                    sum(len(f.interstitials) for f in features.values())
                )
            result = score_features(features, features, self.config)
            verdict = OnlineVerdict(
                window_index=self._window_index,
                evaluated_at=(
                    now if now is not None else (self._window_start or 0.0)
                ),
                hosts_seen=len(features),
                reduced=frozenset(result.reduced_hosts),
                suspects=frozenset(result.suspects),
            )
            sp.set(
                hosts_seen=verdict.hosts_seen,
                reduced=len(verdict.reduced),
                suspects=len(verdict.suspects),
            )
        return verdict
