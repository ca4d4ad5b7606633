"""Failed-connection-rate detector: the §V-A filter as a classifier.

Failed-connection rate was used by prior work ([45], [46]) to find P2P
hosts in general.  The paper deliberately demotes it to a data-reduction
step because it cannot separate Plotters from Traders — both fail
constantly.  This baseline applies it as a standalone detector so the
benchmarks can show that limitation.
"""

from __future__ import annotations

from typing import Set

from ..detection.reduction import initial_data_reduction
from ..detection.testbase import TestResult
from ..flows.metrics import extract_features_sharded
from ..flows.store import FlowStore

__all__ = ["FailedConnDetector"]


class FailedConnDetector:
    """Flag hosts whose failed-connection rate exceeds a percentile."""

    def __init__(self, percentile: float = 50.0) -> None:
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")
        self.percentile = percentile

    def detect(self, store: FlowStore, hosts: Set[str]) -> TestResult:
        """Flag high-failure hosts — Plotters, Traders and noise alike."""
        return initial_data_reduction(
            extract_features_sharded(store, hosts), hosts, self.percentile
        )
