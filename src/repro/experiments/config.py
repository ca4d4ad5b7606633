"""Shared experiment configuration and cached computation context.

Every figure runner draws from the same synthetic world: eight campus
days, one Storm honeynet trace, one Nugache honeynet trace, and a
per-day overlay — mirroring §V, where a single 24-hour bot trace is
re-overlaid onto each day of CMU traffic.  :class:`ExperimentContext`
builds these lazily and caches them, so a session that runs all twelve
experiments synthesises each day exactly once.

Two scales are provided: ``paper()`` (the full-size campus the headline
numbers are calibrated on) and ``quick()`` (a ~10× smaller campus for
tests and smoke runs; same structure, noisier numbers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..datasets.campus import CampusConfig, CampusDay, build_campus_day
from ..datasets.groundtruth import identify_traders
from ..datasets.honeynet import (
    HoneynetTrace,
    capture_nugache_trace,
    capture_storm_trace,
)
from ..datasets.overlay import OverlaidDay, overlay_traces
from ..detection.pipeline import PipelineConfig, PipelineResult, find_plotters
from ..flows.metrics import HostFeatures, extract_features_sharded
from ..netsim.rng import substream

__all__ = ["ExperimentConfig", "ExperimentContext", "context_from_env"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and seeding of one experiment session."""

    campus: CampusConfig = field(default_factory=CampusConfig)
    n_days: int = 8
    storm_bots: int = 13
    nugache_bots: int = 82
    seed: int = 2007
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """Full scale: the configuration the headline numbers use."""
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A ~4× smaller campus, two days — for smoke runs.

        Structure and qualitative shapes survive at this scale; the
        absolute rates are noisier than at :meth:`paper` scale (fewer
        hosts per cluster, fewer bots per botnet).
        """
        return cls(
            campus=CampusConfig().scaled(0.5),
            n_days=2,
            storm_bots=13,
            nugache_bots=40,
        )

    @property
    def is_paper_scale(self) -> bool:
        """Whether this configuration is the full-size campus."""
        return self.campus.n_background >= 800


class ExperimentContext:
    """Lazily built, cached datasets and detection runs."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.is_paper_scale = config.is_paper_scale
        self._campus: Dict[int, CampusDay] = {}
        self._overlaid: Dict[int, OverlaidDay] = {}
        self._features: Dict[int, Dict[str, HostFeatures]] = {}
        self._pipeline: Dict[int, PipelineResult] = {}
        self._traders: Dict[int, Dict[str, str]] = {}
        self._storm: Optional[HoneynetTrace] = None
        self._nugache: Optional[HoneynetTrace] = None

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    @property
    def days(self) -> List[int]:
        """The day indices of this session."""
        return list(range(self.config.n_days))

    def campus_day(self, day: int) -> CampusDay:
        """The background+Trader traffic of one day (cached)."""
        if day not in self._campus:
            self._campus[day] = build_campus_day(self.config.campus, day)
        return self._campus[day]

    def storm_trace(self) -> HoneynetTrace:
        """The Storm honeynet trace (captured once, reused every day)."""
        if self._storm is None:
            self._storm = capture_storm_trace(
                seed=self.config.seed,
                n_bots=self.config.storm_bots,
                window=self.config.campus.window,
            )
        return self._storm

    def nugache_trace(self) -> HoneynetTrace:
        """The Nugache honeynet trace (captured once, reused every day)."""
        if self._nugache is None:
            self._nugache = capture_nugache_trace(
                seed=self.config.seed,
                n_bots=self.config.nugache_bots,
                window=self.config.campus.window,
            )
        return self._nugache

    def overlaid_day(self, day: int) -> OverlaidDay:
        """One campus day with both bot traces implanted (cached)."""
        if day not in self._overlaid:
            self._overlaid[day] = overlay_traces(
                self.campus_day(day),
                [self.storm_trace(), self.nugache_trace()],
                substream(self.config.seed, "overlay", day),
            )
        return self._overlaid[day]

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def traders(self, day: int) -> Set[str]:
        """Payload-labelled Trader hosts of one day (cached)."""
        if day not in self._traders:
            campus = self.campus_day(day)
            self._traders[day] = identify_traders(campus.store, campus.all_hosts)
        return set(self._traders[day])

    def plotters(self, day: int, botnet: str) -> Set[str]:
        """Hosts carrying an implanted bot of ``botnet`` on ``day``."""
        return self.overlaid_day(day).plotters_of(botnet)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def features(self, day: int) -> Dict[str, HostFeatures]:
        """Per-host feature bundles of the overlaid day (cached).

        Experiments that run single stages or sweep thresholds read
        these instead of re-scanning the store.
        """
        if day not in self._features:
            self._features[day] = extract_features_sharded(
                self.overlaid_day(day).store, self.campus_day(day).all_hosts
            )
        return self._features[day]

    def pipeline_result(self, day: int) -> PipelineResult:
        """FindPlotters on the overlaid day at the default thresholds."""
        if day not in self._pipeline:
            overlaid = self.overlaid_day(day)
            self._pipeline[day] = find_plotters(
                overlaid.store,
                hosts=self.campus_day(day).all_hosts,
                config=self.config.pipeline,
            )
        return self._pipeline[day]


def context_from_env() -> ExperimentContext:
    """Build a context from the ``REPRO_SCALE`` environment variable.

    ``REPRO_SCALE=paper`` selects the full-size configuration; anything
    else (including unset) selects the quick one.  Benchmarks use this
    so CI smoke runs stay fast while a full reproduction is one
    environment variable away.
    """
    scale = os.environ.get("REPRO_SCALE", "quick").lower()
    if scale == "paper":
        return ExperimentContext(ExperimentConfig.paper())
    return ExperimentContext(ExperimentConfig.quick())
