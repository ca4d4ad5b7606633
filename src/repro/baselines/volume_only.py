"""Volume-only detector: the strawman §IV-A warns about.

"Examining volume alone yields many false positives" — this baseline
makes that concrete: flag every host whose average uploaded bytes per
flow falls below a percentile threshold, with no churn or timing
refinement.  The Figure 6 ROC shows exactly how coarse this is.
"""

from __future__ import annotations

from typing import Set

from ..detection.testbase import TestResult
from ..detection.volume import theta_vol
from ..flows.metrics import extract_features_sharded
from ..flows.store import FlowStore

__all__ = ["VolumeOnlyDetector"]


class VolumeOnlyDetector:
    """θ_vol applied in isolation as a complete classifier."""

    def __init__(self, percentile: float = 50.0) -> None:
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")
        self.percentile = percentile

    def detect(self, store: FlowStore, hosts: Set[str]) -> TestResult:
        """Flag hosts with low average flow size — nothing else."""
        return theta_vol(
            extract_features_sharded(store, hosts), hosts, self.percentile
        )
