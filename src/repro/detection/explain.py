"""Per-host evidence reports: *why* was this host flagged (or not)?

A detector an operator will actually act on must show its work.  Given
a finished :class:`~repro.detection.pipeline.PipelineResult`,
:func:`explain_host` assembles the complete evidence trail for one
host — every metric against the threshold it was compared to, which
stages passed, and (for flagged hosts) which other hosts share its
timing cluster.  Co-members matter operationally: if three flagged
hosts sit in one tight cluster, they are likely the *same botnet*, and
the cluster is the incident, not the individual host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .pipeline import PipelineResult

__all__ = ["StageEvidence", "HostExplanation", "explain_host", "format_explanation"]


@dataclass(frozen=True)
class StageEvidence:
    """One stage's verdict on the host."""

    stage: str
    metric_name: str
    value: Optional[float]
    threshold: Optional[float]
    keep_below: bool
    passed: bool

    @property
    def comparison(self) -> str:
        """Human-readable relation, e.g. ``"0.12 < 0.35"``."""
        if self.value is None or self.threshold is None:
            return "not evaluated"
        op = "<" if self.keep_below else ">"
        return f"{self.value:.4g} {op} {self.threshold:.4g}"


@dataclass(frozen=True)
class HostExplanation:
    """The full evidence trail for one host."""

    host: str
    flagged: bool
    stages: Tuple[StageEvidence, ...]
    cluster_members: Tuple[str, ...]
    cluster_diameter: Optional[float]

    @property
    def failed_stage(self) -> Optional[str]:
        """The first stage that cleared the host, if any."""
        for stage in self.stages:
            if not stage.passed:
                return stage.stage
        return None


def _stage(
    stage: str,
    metric_name: str,
    metric: Dict[str, float],
    threshold: float,
    host: str,
    keep_below: bool,
) -> StageEvidence:
    value = metric.get(host)
    if value is None:
        return StageEvidence(
            stage=stage,
            metric_name=metric_name,
            value=None,
            threshold=threshold,
            keep_below=keep_below,
            passed=False,
        )
    passed = value < threshold if keep_below else value > threshold
    return StageEvidence(
        stage=stage,
        metric_name=metric_name,
        value=value,
        threshold=threshold,
        keep_below=keep_below,
        passed=passed,
    )


def explain_host(result: PipelineResult, host: str) -> HostExplanation:
    """Assemble the evidence trail for ``host`` from a pipeline run.

    Everything is read off the result: stage metrics and thresholds,
    and cluster membership from the θ_hm clustering the pipeline
    already computed (``result.hm.detail``).
    """
    stages: List[StageEvidence] = []
    if result.reduction is not None:
        stages.append(
            _stage(
                "reduction",
                "failed-connection rate",
                result.reduction.metric,
                result.reduction.threshold,
                host,
                keep_below=False,
            )
        )
    stages.append(
        _stage(
            "volume",
            "avg bytes/flow",
            result.volume.metric,
            result.volume.threshold,
            host,
            keep_below=True,
        )
    )
    stages.append(
        _stage(
            "churn",
            "new-IP fraction",
            result.churn.metric,
            result.churn.threshold,
            host,
            keep_below=True,
        )
    )

    cluster_members: Tuple[str, ...] = ()
    cluster_diameter: Optional[float] = None
    if host in result.union_vol_churn:
        clustering = result.hm.detail
        for cluster, diameter in zip(clustering.clusters, clustering.diameters):
            if host in cluster:
                cluster_members = tuple(h for h in cluster if h != host)
                cluster_diameter = diameter
                break
        stages.append(
            StageEvidence(
                stage="human-machine",
                metric_name="timing-cluster diameter",
                value=cluster_diameter,
                threshold=result.hm.threshold,
                keep_below=True,
                passed=host in result.hm.selected,
            )
        )

    return HostExplanation(
        host=host,
        flagged=host in result.suspects,
        stages=tuple(stages),
        cluster_members=cluster_members,
        cluster_diameter=cluster_diameter,
    )


def format_explanation(explanation: HostExplanation) -> str:
    """Render an explanation as an operator-readable block."""
    verdict = "FLAGGED as likely Plotter" if explanation.flagged else "not flagged"
    lines = [f"host {explanation.host}: {verdict}"]
    for stage in explanation.stages:
        mark = "PASS" if stage.passed else "stop"
        lines.append(
            f"  [{mark}] {stage.stage:<14} {stage.metric_name}: "
            f"{stage.comparison}"
        )
    if explanation.cluster_members:
        shown = ", ".join(explanation.cluster_members[:6])
        extra = len(explanation.cluster_members) - 6
        if extra > 0:
            shown += f", … (+{extra})"
        lines.append(
            f"  timing cluster (diameter "
            f"{explanation.cluster_diameter:.3f}): shares timers with "
            f"{shown}"
        )
    elif explanation.flagged:
        lines.append("  timing cluster: (no co-members)")
    return "\n".join(lines)
