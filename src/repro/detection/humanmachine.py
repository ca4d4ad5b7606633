"""θ_hm — the human-driven vs. machine-driven test (§IV-C).

Machine-driven traffic runs on timers; human traffic does not.  For each
host the test pools the interstitial times between consecutive flows to
the same destination (across *all* destinations, since the monitor does
not know which are P2P peers), approximates the distribution with a
Freedman–Diaconis histogram, and compares hosts with the Earth Mover's
Distance.  Average-linkage agglomerative clustering with the top-5% link
cut groups hosts with similar timing; because bots of one botnet share
binary timers, they form *tight* clusters — so clusters whose diameter
exceeds the dynamic threshold τ_hm are discarded, and the union of the
surviving clusters is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..flows.metrics import HostFeatures
from ..obs.tracing import span
from ..stats.clustering import (
    DEFAULT_CUT_FRACTION,
    average_linkage,
    cluster_diameters,
    cut_top_links,
)
from ..stats.emd import pairwise_emd
from ..stats.histogram import Histogram, build_histogram
from ..stats.thresholds import percentile_threshold
from .testbase import TestResult

__all__ = [
    "HmClustering",
    "cluster_hosts",
    "cluster_matrix",
    "host_histograms",
    "kept_at",
    "log_interstitials",
    "theta_hm",
]

#: Hosts need at least this many interstitial samples for a meaningful
#: histogram; below it the density estimate is pure sampling noise and
#: the host cannot meaningfully exhibit (or be cleared of) machine-like
#: periodicity.
MIN_SAMPLES = 20

#: Floor for interstitial samples before the log transform (seconds);
#: gaps below a millisecond are indistinguishable at flow granularity.
_LOG_FLOOR = 1e-3

#: Smallest cluster θ_hm keeps: the test's evidence is *similarity
#: between hosts* (bots of one botnet share binary timers), and a
#: singleton exhibits none.
MIN_CLUSTER_SIZE = 2


@dataclass(frozen=True)
class HmClustering:
    """Diagnostic view of one θ_hm run.

    Carries the clusters, their diameters, and the applied threshold so
    the evaluation (and the evasion study) can see how hosts grouped.
    """

    hosts: Tuple[str, ...]
    clusters: Tuple[Tuple[str, ...], ...]
    diameters: Tuple[float, ...]
    threshold: float
    kept: Tuple[Tuple[str, ...], ...]


def log_interstitials(samples: Sequence[float]) -> np.ndarray:
    """Interstitial samples in log10-seconds, floored at
    :data:`_LOG_FLOOR` — θ_hm's log scale, one vectorized call."""
    return np.log10(np.maximum(np.asarray(samples, dtype=np.float64), _LOG_FLOOR))


def host_histograms(
    features: Mapping[str, HostFeatures],
    hosts: Sequence[str],
    min_samples: int = MIN_SAMPLES,
    log_scale: bool = True,
) -> Dict[str, Histogram]:
    """Interstitial-time histograms for hosts with enough samples.

    Hosts with fewer than ``min_samples`` per-destination gaps are
    dropped: they never revisit destinations often enough to exhibit a
    timing signature (and so cannot be machine-periodic in the sense the
    test measures).  Hosts without a feature bundle have no samples.

    With ``log_scale`` (the default) samples are binned in log10-seconds.
    This is a deliberate refinement over the paper's raw-seconds
    histograms: EMD over raw times is dominated by the largest gaps
    (hours-scale session boundaries), drowning the sub-minute timer
    structure Figure 3 keys on; log space compares timing *patterns*
    across scales.  ``log_scale=False`` recovers the paper's literal
    construction (see the binning ablation benchmark).
    """
    histograms: Dict[str, Histogram] = {}
    for host in hosts:
        bundle = features.get(host)
        samples = bundle.interstitials if bundle is not None else ()
        if len(samples) < min_samples:
            continue
        if log_scale:
            samples = log_interstitials(samples)
        histograms[host] = build_histogram(samples)
    return histograms


def kept_at(
    clusters: Sequence[Tuple[str, ...]],
    diameters: Sequence[float],
    threshold: float,
) -> Tuple[Tuple[str, ...], ...]:
    """The clusters θ_hm keeps at diameter threshold ``threshold``.

    A cluster is kept when its diameter is at most ``threshold`` and it
    has at least :data:`MIN_CLUSTER_SIZE` hosts.  The tolerance absorbs
    float dust when many diameters tie (e.g. several exactly-zero bot
    clusters and an interpolated percentile).
    """
    return tuple(
        cluster
        for cluster, diameter in zip(clusters, diameters)
        if diameter <= threshold + 1e-9 and len(cluster) >= MIN_CLUSTER_SIZE
    )


def cluster_matrix(
    hosts: Sequence[str],
    distance: np.ndarray,
    percentile: float,
    cut_fraction: float = DEFAULT_CUT_FRACTION,
) -> HmClustering:
    """Cluster ``hosts`` by a pairwise ``distance`` matrix and keep tight
    clusters.

    Average linkage with the top-``cut_fraction`` link cut forms the
    clusters; ``percentile`` sets τ_hm as a percentile of the cluster
    diameters — the paper's dynamic threshold over "the diameters across
    all clusters" — and :func:`kept_at` applies it.

    ``distance[i, j]`` is the distance between ``hosts[i]`` and
    ``hosts[j]``; θ_hm passes its EMD matrix, the ablations their own
    (per-pair EMD or L1) and the tests the ``loop`` oracle's.
    """
    hosts = tuple(hosts)
    if not hosts:
        return HmClustering(
            hosts=(), clusters=(), diameters=(), threshold=0.0, kept=()
        )
    with span("linkage", hosts=len(hosts)):
        member_lists = cut_top_links(average_linkage(distance), cut_fraction)
    diameters = cluster_diameters(distance, member_lists)
    clusters = tuple(
        tuple(hosts[i] for i in members) for members in member_lists
    )
    threshold = percentile_threshold(list(diameters), percentile)
    return HmClustering(
        hosts=hosts,
        clusters=clusters,
        diameters=diameters,
        threshold=threshold,
        kept=kept_at(clusters, diameters, threshold),
    )


def cluster_hosts(
    histograms: Dict[str, Histogram],
    percentile: float,
    cut_fraction: float = DEFAULT_CUT_FRACTION,
) -> HmClustering:
    """:func:`cluster_matrix` over the pairwise EMD of the hosts'
    histograms (hosts in sorted order)."""
    hosts = tuple(sorted(histograms))
    n = len(hosts)
    with span("cluster_hosts", hosts=n, pairs=n * (n - 1) // 2) as s:
        with span("emd_matrix", hosts=n):
            distance = pairwise_emd([histograms[h] for h in hosts])
        clustering = cluster_matrix(hosts, distance, percentile, cut_fraction)
        s.set(
            clusters=len(clustering.clusters),
            kept=len(clustering.kept),
            threshold=clustering.threshold,
        )
    return clustering


def theta_hm(
    features: Mapping[str, HostFeatures],
    hosts: Iterable[str],
    percentile: float = 70.0,
    cut_fraction: float = DEFAULT_CUT_FRACTION,
    min_samples: int = MIN_SAMPLES,
    log_scale: bool = True,
) -> TestResult:
    """Select hosts in timing clusters whose diameter is ≤ τ_hm.

    The returned :class:`~repro.detection.testbase.TestResult` metric
    maps each clustered host to the diameter of its cluster, and its
    ``detail`` carries the :class:`HmClustering`.
    """
    histograms = host_histograms(features, sorted(hosts), min_samples, log_scale)
    clustering = cluster_hosts(histograms, percentile, cut_fraction)
    selected = {host for cluster in clustering.kept for host in cluster}
    metric: Dict[str, float] = {}
    for cluster, diameter in zip(clustering.clusters, clustering.diameters):
        for host in cluster:
            metric[host] = diameter
    return TestResult(
        name="human-machine",
        selected=frozenset(selected),
        threshold=clustering.threshold,
        metric=metric,
        detail=clustering,
    )
