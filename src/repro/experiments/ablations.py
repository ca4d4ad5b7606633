"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation replaces one component of the pipeline and re-measures
the Figure 9 headline numbers:

* **distance** — Earth Mover's Distance vs. a plain L1 histogram
  distance in θ_hm;
* **binning** — Freedman–Diaconis vs. fixed-width histograms, and
  log-scale vs. raw-seconds samples;
* **thresholds** — dynamic (percentile) vs. fixed absolute thresholds
  for θ_vol / θ_churn;
* **composition** — each test alone vs. the FindPlotters composition;
* **baselines** — TDG / volume-only / failed-connection-only detectors
  on the same traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..baselines.entropy import EntropyDetector
from ..baselines.failedconn import FailedConnDetector
from ..baselines.tdg import TdgDetector
from ..baselines.volume_only import VolumeOnlyDetector
from ..detection.churn import churn_metric, theta_churn
from ..detection.humanmachine import (
    MIN_SAMPLES,
    cluster_matrix,
    log_interstitials,
    theta_hm,
)
from ..detection.reduction import initial_data_reduction
from ..detection.volume import theta_vol, volume_metric
from ..stats.emd import pairwise_emd
from ..stats.histogram import Histogram, build_histogram
from ..stats.thresholds import select_below
from .config import ExperimentContext
from .tables import render_table

__all__ = [
    "AblationResult",
    "run_ablation_distance",
    "run_ablation_binning",
    "run_ablation_thresholds",
    "run_ablation_composition",
    "run_baseline_comparison",
]


@dataclass
class AblationResult:
    """Variant → (storm TPR, nugache TPR, FPR) plus a rendered table."""

    name: str
    rates: Dict[str, Tuple[float, float, float]]
    table: str


def _score(
    ctx: ExperimentContext, day: int, selected: Set[str]
) -> Tuple[float, float, float]:
    """(storm TPR, nugache TPR, FPR over non-Plotters) for one day."""
    storm = ctx.plotters(day, "storm")
    nugache = ctx.plotters(day, "nugache")
    hosts = ctx.campus_day(day).all_hosts
    negatives = hosts - storm - nugache
    return (
        len(selected & storm) / len(storm) if storm else 0.0,
        len(selected & nugache) / len(nugache) if nugache else 0.0,
        len(selected & negatives) / len(negatives) if negatives else 0.0,
    )


def _averaged(
    ctx: ExperimentContext,
    variants: Dict[str, Callable[[int], Set[str]]],
    name: str,
) -> AblationResult:
    """Run each variant on every day and average the rates."""
    sums = {label: [0.0, 0.0, 0.0] for label in variants}
    n = len(ctx.days)
    for day in ctx.days:
        for label, runner in variants.items():
            tpr_s, tpr_n, fpr = _score(ctx, day, runner(day))
            acc = sums[label]
            acc[0] += tpr_s
            acc[1] += tpr_n
            acc[2] += fpr
    rates = {
        label: (acc[0] / n, acc[1] / n, acc[2] / n)
        for label, acc in sums.items()
    }
    rows = [
        [label, f"{s:.3f}", f"{g:.3f}", f"{f:.4f}"]
        for label, (s, g, f) in rates.items()
    ]
    table = render_table(
        f"Ablation: {name} (mean over {n} days)",
        ["variant", "storm TPR", "nugache TPR", "FPR"],
        rows,
    )
    return AblationResult(name=name, rates=rates, table=table)


# ----------------------------------------------------------------------
# θ_hm variants: shared machinery with a pluggable histogram/distance
# ----------------------------------------------------------------------
def _l1_distance(a: Histogram, b: Histogram) -> float:
    """L1 distance on a merged support — ignores *how far* mass moved."""
    support = sorted(set(a.centers) | set(b.centers))
    wa = dict(zip(a.centers, a.weights))
    wb = dict(zip(b.centers, b.weights))
    return sum(abs(wa.get(x, 0.0) - wb.get(x, 0.0)) for x in support)


def _fixed_bin_histogram(samples: Sequence[float], width: float = 0.25) -> Histogram:
    """Fixed-width binning — the evasion-prone alternative to FD."""
    data = np.asarray(samples, dtype=float)
    lo = float(np.floor(data.min() / width) * width)
    hi = float(np.ceil(data.max() / width) * width) + width
    n_bins = max(1, int(round((hi - lo) / width)))
    counts, edges = np.histogram(data, bins=n_bins, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    mask = counts > 0
    weights = counts[mask].astype(float)
    weights /= weights.sum()
    weights[-1] += 1.0 - weights.sum()
    return Histogram(
        centers=tuple(float(c) for c in centers[mask]),
        weights=tuple(float(w) for w in weights),
        bin_width=width,
    )


def _hm_selected(
    ctx: ExperimentContext,
    day: int,
    histogram_builder: Callable[[Sequence[float]], Histogram],
    distance: Optional[Callable[[Histogram, Histogram], float]] = None,
    log_scale: bool = True,
) -> Set[str]:
    """θ_hm with pluggable binning/distance, on the day's usual input.

    Without a ``distance`` the matrix is θ_hm's own EMD engine,
    :func:`~repro.stats.emd.pairwise_emd`.
    """
    features = ctx.features(day)
    result = ctx.pipeline_result(day)
    union = sorted(result.union_vol_churn)

    histograms: Dict[str, Histogram] = {}
    for host in union:
        bundle = features.get(host)
        samples = bundle.interstitials if bundle is not None else ()
        if len(samples) < MIN_SAMPLES:
            continue
        if log_scale:
            samples = log_interstitials(samples)
        histograms[host] = histogram_builder(samples)
    hosts = sorted(histograms)
    if distance is None:
        dist = pairwise_emd([histograms[host] for host in hosts])
    else:
        n = len(hosts)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = distance(histograms[hosts[i]], histograms[hosts[j]])
                dist[i, j] = d
                dist[j, i] = d
    clustering = cluster_matrix(
        hosts,
        dist,
        ctx.config.pipeline.hm_percentile,
        ctx.config.pipeline.hm_cut_fraction,
    )
    return {host for cluster in clustering.kept for host in cluster}


def run_ablation_distance(ctx: ExperimentContext) -> AblationResult:
    """EMD vs. L1 histogram distance in θ_hm.

    EMD respects the *geometry* of the time axis (mass moved 10 s costs
    less than mass moved 10 min); L1 only counts overlap, so hosts with
    near-miss timer peaks look maximally different.
    """
    return _averaged(
        ctx,
        {
            "emd": lambda day: _hm_selected(ctx, day, build_histogram),
            "l1": lambda day: _hm_selected(
                ctx, day, build_histogram, distance=_l1_distance
            ),
        },
        "EMD vs L1 distance",
    )


def run_ablation_binning(ctx: ExperimentContext) -> AblationResult:
    """Freedman–Diaconis vs. fixed bins; log-scale vs. raw seconds."""
    return _averaged(
        ctx,
        {
            "fd-log (default)": lambda day: _hm_selected(ctx, day, build_histogram),
            "fixed-log": lambda day: _hm_selected(
                ctx, day, _fixed_bin_histogram
            ),
            "fd-raw (paper-literal)": lambda day: _hm_selected(
                ctx, day, build_histogram, log_scale=False
            ),
        },
        "histogram binning",
    )


def run_ablation_thresholds(ctx: ExperimentContext) -> AblationResult:
    """Dynamic percentile thresholds vs. fixed absolute ones.

    The fixed variant freezes day 0's thresholds and reuses them on
    every later day — what an operator without the paper's dynamic
    scheme would do, and what a Plotter could learn and evade.
    """
    day0 = ctx.pipeline_result(ctx.days[0])
    fixed_vol = day0.volume.threshold
    fixed_churn = day0.churn.threshold

    def dynamic(day: int) -> Set[str]:
        return ctx.pipeline_result(day).suspects

    def fixed(day: int) -> Set[str]:
        features = ctx.features(day)
        hosts = ctx.campus_day(day).all_hosts
        reduced = initial_data_reduction(features, hosts).selected_set
        vol_sel = select_below(volume_metric(features, reduced), fixed_vol)
        churn_sel = select_below(churn_metric(features, reduced), fixed_churn)
        hm = theta_hm(
            features,
            vol_sel | churn_sel,
            percentile=ctx.config.pipeline.hm_percentile,
            cut_fraction=ctx.config.pipeline.hm_cut_fraction,
        )
        return hm.selected_set

    return _averaged(
        ctx,
        {"dynamic (paper)": dynamic, "fixed-day0": fixed},
        "dynamic vs fixed thresholds",
    )


def run_ablation_composition(ctx: ExperimentContext) -> AblationResult:
    """Each test alone vs. the FindPlotters composition.

    Reproduces the paper's core claim: any single test is far too
    coarse; only the composition concentrates on Plotters.
    """

    def volume_alone(day: int) -> Set[str]:
        features = ctx.features(day)
        hosts = ctx.campus_day(day).all_hosts
        reduced = initial_data_reduction(features, hosts).selected_set
        return theta_vol(features, reduced).selected_set

    def churn_alone(day: int) -> Set[str]:
        features = ctx.features(day)
        hosts = ctx.campus_day(day).all_hosts
        reduced = initial_data_reduction(features, hosts).selected_set
        return theta_churn(features, reduced).selected_set

    def composition(day: int) -> Set[str]:
        return ctx.pipeline_result(day).suspects

    return _averaged(
        ctx,
        {
            "volume alone": volume_alone,
            "churn alone": churn_alone,
            "FindPlotters": composition,
        },
        "single tests vs composition",
    )


def run_baseline_comparison(ctx: ExperimentContext) -> AblationResult:
    """FindPlotters vs. the baseline detectors on identical traffic.

    The baselines find *P2P hosts* (or noisy hosts); only FindPlotters
    separates Plotters from Traders — visible as baseline FPRs an order
    of magnitude higher at comparable recall.
    """

    def tdg(day: int) -> Set[str]:
        overlaid = ctx.overlaid_day(day)
        flagged, _scores = TdgDetector().detect(
            overlaid.store, ctx.campus_day(day).all_hosts
        )
        return flagged

    def volume_only(day: int) -> Set[str]:
        overlaid = ctx.overlaid_day(day)
        return VolumeOnlyDetector().detect(
            overlaid.store, ctx.campus_day(day).all_hosts
        ).selected_set

    def failedconn(day: int) -> Set[str]:
        overlaid = ctx.overlaid_day(day)
        return FailedConnDetector().detect(
            overlaid.store, ctx.campus_day(day).all_hosts
        ).selected_set

    def entropy(day: int) -> Set[str]:
        overlaid = ctx.overlaid_day(day)
        return EntropyDetector().detect(
            overlaid.store, ctx.campus_day(day).all_hosts
        ).selected_set

    def findplotters(day: int) -> Set[str]:
        return ctx.pipeline_result(day).suspects

    return _averaged(
        ctx,
        {
            "tdg": tdg,
            "volume-only": volume_only,
            "failed-conn-only": failedconn,
            "timing-entropy": entropy,
            "FindPlotters": findplotters,
        },
        "baseline comparison",
    )
