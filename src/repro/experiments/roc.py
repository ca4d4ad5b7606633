"""ROC figures: Figures 6, 7 and 8 of the paper.

Each test's ROC sweeps its threshold percentile over {10, 30, 50, 70,
90} and reports true/false positive rates *relative to the test's input
set* — S (post-reduction) for θ_vol and θ_churn, S_vol ∪ S_churn for
θ_hm — averaged over the campus days, exactly as §V-B describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..detection.churn import churn_metric
from ..detection.humanmachine import cluster_hosts, host_histograms, kept_at
from ..detection.reduction import initial_data_reduction
from ..detection.volume import volume_metric
from ..stats.roc import PERCENTILE_SWEEP
from ..stats.thresholds import percentile_threshold, select_below
from .config import ExperimentContext
from .tables import render_table

__all__ = ["RocResult", "run_fig6_roc_volume", "run_fig7_roc_churn", "run_fig8_roc_hm"]


@dataclass
class RocResult:
    """Averaged ROC points per botnet plus a rendered table."""

    name: str
    points: Dict[str, List[Tuple[float, float, float]]]  # botnet -> (pct, tpr, fpr)
    table: str


def _metric_roc(
    ctx: ExperimentContext, metric_fn, name: str
) -> RocResult:
    """Shared sweep logic for the θ_vol / θ_churn ROCs."""
    sums: Dict[str, Dict[float, List[float]]] = {
        "storm": {p: [0.0, 0.0] for p in PERCENTILE_SWEEP},
        "nugache": {p: [0.0, 0.0] for p in PERCENTILE_SWEEP},
    }
    n_days = len(ctx.days)
    for day in ctx.days:
        features = ctx.features(day)
        hosts = ctx.campus_day(day).all_hosts
        reduced = initial_data_reduction(features, hosts).selected_set
        metric = metric_fn(features, reduced)
        values = list(metric.values())
        plotters = {
            "storm": ctx.plotters(day, "storm"),
            "nugache": ctx.plotters(day, "nugache"),
        }
        all_plotters = plotters["storm"] | plotters["nugache"]
        for pct in PERCENTILE_SWEEP:
            threshold = percentile_threshold(values, pct)
            selected = select_below(metric, threshold)
            for botnet in ("storm", "nugache"):
                positives = plotters[botnet] & reduced
                negatives = (reduced - all_plotters)
                tpr = len(selected & positives) / len(positives) if positives else 0.0
                fpr = len(selected & negatives) / len(negatives) if negatives else 0.0
                sums[botnet][pct][0] += tpr
                sums[botnet][pct][1] += fpr
    points = {
        botnet: [
            (pct, sums[botnet][pct][0] / n_days, sums[botnet][pct][1] / n_days)
            for pct in PERCENTILE_SWEEP
        ]
        for botnet in ("storm", "nugache")
    }
    rows = [
        [botnet, f"{pct:.0f}", f"{tpr:.3f}", f"{fpr:.3f}"]
        for botnet, pts in points.items()
        for pct, tpr, fpr in pts
    ]
    table = render_table(
        f"{name}: ROC (averaged over {n_days} days)",
        ["botnet", "threshold pct", "TPR", "FPR"],
        rows,
    )
    return RocResult(name=name, points=points, table=table)


def run_fig6_roc_volume(ctx: ExperimentContext) -> RocResult:
    """Figure 6: ROC of θ_vol.

    Expected shape: high TPR comes only with a high FPR — volume alone
    is a coarse test; Storm dominates Nugache at every point.
    """
    return _metric_roc(ctx, volume_metric, "Figure 6: volume test")


def run_fig7_roc_churn(ctx: ExperimentContext) -> RocResult:
    """Figure 7: ROC of θ_churn.

    Expected shape: coarse like volume, with Storm ≥ Nugache.
    """
    return _metric_roc(ctx, churn_metric, "Figure 7: churn test")


def run_fig8_roc_hm(ctx: ExperimentContext) -> RocResult:
    """Figure 8: ROC of θ_hm over S_vol ∪ S_churn (both at 50th pct).

    The clustering is computed once per day; the sweep only moves the
    diameter threshold τ_hm, as in the paper.
    """
    sums: Dict[str, Dict[float, List[float]]] = {
        "storm": {p: [0.0, 0.0] for p in PERCENTILE_SWEEP},
        "nugache": {p: [0.0, 0.0] for p in PERCENTILE_SWEEP},
    }
    n_days = len(ctx.days)
    for day in ctx.days:
        result = ctx.pipeline_result(day)
        union = result.union_vol_churn
        histograms = host_histograms(ctx.features(day), sorted(union))
        # The dendrogram does not depend on τ_hm: cluster once, then
        # sweep only the diameter threshold.
        clustering = cluster_hosts(
            histograms, 50.0, ctx.config.pipeline.hm_cut_fraction
        )
        diameters = list(clustering.diameters)
        plotters = {
            "storm": ctx.plotters(day, "storm"),
            "nugache": ctx.plotters(day, "nugache"),
        }
        all_plotters = plotters["storm"] | plotters["nugache"]
        for pct in PERCENTILE_SWEEP:
            threshold = percentile_threshold(diameters, pct) if diameters else 0.0
            selected = {
                h
                for cluster in kept_at(clustering.clusters, diameters, threshold)
                for h in cluster
            }
            for botnet in ("storm", "nugache"):
                positives = plotters[botnet] & union
                negatives = union - all_plotters
                tpr = len(selected & positives) / len(positives) if positives else 0.0
                fpr = len(selected & negatives) / len(negatives) if negatives else 0.0
                sums[botnet][pct][0] += tpr
                sums[botnet][pct][1] += fpr
    points = {
        botnet: [
            (pct, sums[botnet][pct][0] / n_days, sums[botnet][pct][1] / n_days)
            for pct in PERCENTILE_SWEEP
        ]
        for botnet in ("storm", "nugache")
    }
    rows = [
        [botnet, f"{pct:.0f}", f"{tpr:.3f}", f"{fpr:.3f}"]
        for botnet, pts in points.items()
        for pct, tpr, fpr in pts
    ]
    table = render_table(
        f"Figure 8: human-vs-machine test ROC (averaged over {n_days} days)",
        ["botnet", "threshold pct", "TPR", "FPR"],
        rows,
    )
    return RocResult(name="Figure 8: hm test", points=points, table=table)
