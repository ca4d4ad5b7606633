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
from ..stats.emd import pairwise_emd, resolve_backend
from ..stats.histogram import Histogram, build_histogram
from ..stats.thresholds import percentile_threshold
from .testbase import TestResult

__all__ = ["HmClustering", "theta_hm", "host_histograms"]

#: Hosts need at least this many interstitial samples for a meaningful
#: histogram; below it the density estimate is pure sampling noise and
#: the host cannot meaningfully exhibit (or be cleared of) machine-like
#: periodicity.
MIN_SAMPLES = 20

#: Floor for interstitial samples before the log transform (seconds);
#: gaps below a millisecond are indistinguishable at flow granularity.
_LOG_FLOOR = 1e-3


@dataclass(frozen=True)
class HmClustering:
    """Diagnostic view of one θ_hm run.

    Carries the clusters, their diameters, and the applied threshold so
    the evaluation (and the evasion study) can see how hosts grouped.
    ``backend`` is the *resolved* pairwise-EMD engine that actually ran
    (never ``"auto"``), so callers and tests can observe which engine a
    given population landed on.
    """

    hosts: Tuple[str, ...]
    clusters: Tuple[Tuple[str, ...], ...]
    diameters: Tuple[float, ...]
    threshold: float
    kept: Tuple[Tuple[str, ...], ...]
    backend: str = "vectorized"


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
        samples = list(bundle.interstitials) if bundle is not None else []
        if len(samples) < min_samples:
            continue
        if log_scale:
            samples = [np.log10(max(s, _LOG_FLOOR)) for s in samples]
        histograms[host] = build_histogram(samples)
    return histograms


def cluster_hosts(
    histograms: Dict[str, Histogram],
    percentile: float,
    cut_fraction: float = DEFAULT_CUT_FRACTION,
    min_cluster_size: int = 2,
    backend: str = "auto",
) -> HmClustering:
    """Cluster hosts by EMD and keep tight clusters.

    ``percentile`` sets τ_hm as a percentile of the cluster diameters —
    the paper's dynamic threshold over "the diameters across all
    clusters".  Clusters smaller than ``min_cluster_size`` are never
    kept: the test's evidence is *similarity between hosts* (bots of one
    botnet share binary timers), and a singleton exhibits none.

    ``backend`` selects the :func:`repro.stats.emd.pairwise_emd` engine;
    every backend produces the same clusters, diameters, τ_hm and kept
    set (pinned to atol=1e-12 by the equivalence suite), so results do
    not depend on the choice.  The ``"pruned"`` backend skips provably
    irrelevant host pairs via :mod:`repro.stats.emdindex`.  The engine
    that actually ran is reported on the result's ``backend`` field and
    the span.
    """
    hosts = tuple(sorted(histograms))
    if not hosts:
        return HmClustering(
            hosts=(), clusters=(), diameters=(), threshold=0.0, kept=()
        )
    if len(hosts) == 1:
        only = (hosts[0],)
        kept_single = (only,) if min_cluster_size <= 1 else ()
        return HmClustering(
            hosts=hosts,
            clusters=(only,),
            diameters=(0.0,),
            threshold=0.0,
            kept=kept_single,
        )
    n = len(hosts)
    resolved = resolve_backend(backend, n)
    with span(
        "cluster_hosts",
        hosts=n,
        pairs=n * (n - 1) // 2,
        backend=backend,
        resolved_backend=resolved,
    ) as s:
        if resolved == "pruned":
            from ..stats.emdindex import pruned_partition

            with span("emd_pruned_partition", hosts=n) as ps:
                member_lists, diameters, report = pruned_partition(
                    [histograms[h] for h in hosts], cut_fraction
                )
                ps.set(
                    certified=report.certified,
                    groups=report.groups,
                    pairs_pruned=report.pairs_pruned,
                    fallback_reason=report.fallback_reason,
                )
        else:
            with span("emd_matrix", hosts=n, backend=resolved):
                distance = pairwise_emd(
                    [histograms[h] for h in hosts], backend=resolved
                )
            with span("linkage", hosts=n):
                dendrogram = average_linkage(distance)
                member_lists = cut_top_links(dendrogram, cut_fraction)
            diameters = cluster_diameters(distance, member_lists)
        clusters = tuple(
            tuple(hosts[i] for i in members) for members in member_lists
        )
        threshold = percentile_threshold(list(diameters), percentile)
        # The tolerance absorbs float dust when many diameters tie (e.g.
        # several exactly-zero bot clusters and an interpolated percentile).
        kept = tuple(
            cluster
            for cluster, diameter in zip(clusters, diameters)
            if diameter <= threshold + 1e-9 and len(cluster) >= min_cluster_size
        )
        s.set(clusters=len(clusters), kept=len(kept), threshold=threshold)
    return HmClustering(
        hosts=hosts,
        clusters=clusters,
        diameters=tuple(diameters),
        threshold=threshold,
        kept=kept,
        backend=resolved,
    )


def theta_hm(
    features: Mapping[str, HostFeatures],
    hosts: Iterable[str],
    percentile: float = 70.0,
    cut_fraction: float = DEFAULT_CUT_FRACTION,
    min_samples: int = MIN_SAMPLES,
    log_scale: bool = True,
    min_cluster_size: int = 2,
) -> TestResult:
    """Select hosts in timing clusters whose diameter is ≤ τ_hm.

    The returned :class:`~repro.detection.testbase.TestResult` metric
    maps each clustered host to the diameter of its cluster, and its
    ``detail`` carries the :class:`HmClustering`.
    """
    histograms = host_histograms(features, sorted(hosts), min_samples, log_scale)
    clustering = cluster_hosts(
        histograms, percentile, cut_fraction, min_cluster_size
    )
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
