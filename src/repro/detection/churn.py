"""θ_churn — the peer-churn / persistence test (§IV-B).

A Trader's peer set is dictated by file availability and churns
constantly; a Plotter keeps talking to the peers on its stored list to
preserve botnet connectivity.  The metric is the fraction of destination
IPs a host first contacts *after its first hour of activity* in the
window, relative to all IPs it contacts — high values mean high churn.
Hosts below the dynamic threshold τ_churn (low churn) are retained as
Plotter-like.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..flows.metrics import HostFeatures
from ..stats.thresholds import percentile_threshold, select_below
from .testbase import TestResult

__all__ = ["churn_metric", "theta_churn"]


def churn_metric(
    features: Mapping[str, HostFeatures], hosts: Iterable[str]
) -> Dict[str, float]:
    """Fraction of newly contacted IPs per host.

    The grace period is the one the bundles were extracted with.  Hosts
    without a feature bundle (no initiated flow) are skipped.
    """
    metric: Dict[str, float] = {}
    for host in hosts:
        bundle = features.get(host)
        if bundle is not None:
            metric[host] = bundle.new_ip_fraction
    return metric


def theta_churn(
    features: Mapping[str, HostFeatures],
    hosts: Iterable[str],
    percentile: float = 50.0,
) -> TestResult:
    """Select hosts whose new-IP fraction is below τ_churn."""
    metric = churn_metric(features, hosts)
    if not metric:
        return TestResult(name="churn", selected=frozenset(), threshold=0.0)
    threshold = percentile_threshold(list(metric.values()), percentile)
    selected = select_below(metric, threshold)
    return TestResult(
        name="churn",
        selected=frozenset(selected),
        threshold=threshold,
        metric=metric,
    )
