"""The paper's contribution: tests separating Plotters from Traders."""

from .testbase import TestResult
from .reduction import failed_rates, initial_data_reduction
from .volume import theta_vol, volume_metric
from .churn import churn_metric, theta_churn
from .humanmachine import HmClustering, host_histograms, theta_hm
from .pipeline import PipelineConfig, PipelineResult, find_plotters, score_features
from .portsplit import (
    PortSplitConfig,
    PortSplitResult,
    find_plotters_port_split,
)
from .incremental import OnlineDetector, OnlineVerdict
from .explain import (
    HostExplanation,
    StageEvidence,
    explain_host,
    format_explanation,
)
from .report import (
    DetectionReport,
    StageCounts,
    average_reports,
    evaluate_pipeline,
)

__all__ = [
    "TestResult",
    "failed_rates",
    "initial_data_reduction",
    "theta_vol",
    "volume_metric",
    "churn_metric",
    "theta_churn",
    "HmClustering",
    "host_histograms",
    "theta_hm",
    "PipelineConfig",
    "PipelineResult",
    "find_plotters",
    "score_features",
    "PortSplitConfig",
    "PortSplitResult",
    "find_plotters_port_split",
    "OnlineDetector",
    "OnlineVerdict",
    "HostExplanation",
    "StageEvidence",
    "explain_host",
    "format_explanation",
    "DetectionReport",
    "StageCounts",
    "average_reports",
    "evaluate_pipeline",
]
