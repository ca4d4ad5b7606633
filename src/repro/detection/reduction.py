"""Initial data reduction: filtering hosts unlikely to be P2P at all.

§V-A: P2P hosts — Traders *and* Plotters — exhibit much higher
failed-connection rates than ordinary hosts, because peer churn leaves
every peer's contact lists full of stale entries.  The paper therefore
keeps only hosts whose failed-connection rate exceeds the *median*
across all hosts that initiated successful flows in the window,
removing roughly half the population while retaining essentially all
P2P hosts.  The threshold is recomputed for every day of traffic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from ..flows.metrics import HostFeatures
from ..stats.thresholds import percentile_threshold, select_above
from .testbase import TestResult

__all__ = ["failed_rates", "initial_data_reduction"]


def failed_rates(
    features: Mapping[str, HostFeatures], hosts: Iterable[str]
) -> Dict[str, float]:
    """Failed-connection rate per host, for hosts with ≥1 successful flow.

    Hosts that never initiated a successful connection are excluded, as
    in the paper ("Only hosts that initiated successful connections
    within that day were included"); so are hosts without a feature
    bundle, i.e. without any initiated flow.
    """
    rates: Dict[str, float] = {}
    for host in hosts:
        bundle = features.get(host)
        if bundle is not None and bundle.initiated_successful:
            rates[host] = bundle.failed_conn_rate
    return rates


def initial_data_reduction(
    features: Mapping[str, HostFeatures],
    hosts: Optional[Iterable[str]] = None,
    percentile: float = 50.0,
) -> TestResult:
    """Keep hosts whose failed-connection rate exceeds the percentile.

    Parameters
    ----------
    features:
        Per-host feature bundles of the detection window's traffic Λ.
    hosts:
        Candidate hosts (default: every host with a bundle).
    percentile:
        Percentile of the per-host failed-connection rate used as the
        cutoff; the paper uses the median (50).
    """
    if hosts is None:
        hosts = features
    rates = failed_rates(features, hosts)
    if not rates:
        return TestResult(
            name="reduction", selected=frozenset(), threshold=0.0, metric={}
        )
    threshold = percentile_threshold(list(rates.values()), percentile)
    selected = select_above(rates, threshold)
    return TestResult(
        name="reduction",
        selected=frozenset(selected),
        threshold=threshold,
        metric=rates,
    )
