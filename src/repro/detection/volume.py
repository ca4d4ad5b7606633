"""θ_vol — the traffic-volume test (§IV-A).

Traders move large multimedia files; Plotters exchange small control
messages.  The metric is the *average number of bytes uploaded per
flow*, which (unlike a cumulative byte count) a chatty-but-lightweight
Plotter cannot inflate just by sending many flows.  Hosts below the
dynamically chosen threshold τ_vol are retained as Plotter-like.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..flows.metrics import HostFeatures
from ..stats.thresholds import percentile_threshold, select_below
from .testbase import TestResult

__all__ = ["volume_metric", "theta_vol"]


def volume_metric(
    features: Mapping[str, HostFeatures], hosts: Iterable[str]
) -> Dict[str, float]:
    """Average uploaded bytes per flow, per host.

    Hosts without a feature bundle (no initiated flow) are skipped.
    """
    metric: Dict[str, float] = {}
    for host in hosts:
        bundle = features.get(host)
        if bundle is not None:
            metric[host] = bundle.avg_flow_size
    return metric


def theta_vol(
    features: Mapping[str, HostFeatures],
    hosts: Iterable[str],
    percentile: float = 50.0,
) -> TestResult:
    """Select hosts whose average flow size is below τ_vol.

    τ_vol is the ``percentile``-th percentile of the metric over the
    input hosts — the paper's dynamic-threshold construction, which a
    Plotter cannot observe from inside one host (§VI).
    """
    metric = volume_metric(features, hosts)
    if not metric:
        return TestResult(name="volume", selected=frozenset(), threshold=0.0)
    threshold = percentile_threshold(list(metric.values()), percentile)
    selected = select_below(metric, threshold)
    return TestResult(
        name="volume",
        selected=frozenset(selected),
        threshold=threshold,
        metric=metric,
    )
