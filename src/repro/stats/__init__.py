"""Statistics substrate: histograms, EMD, clustering, thresholds, ROC."""

from .histogram import Histogram, build_histogram, freedman_diaconis_width
from .emd import (
    PAIRWISE_BACKENDS,
    emd,
    emd_1d,
    pairwise_emd,
    signature_arrays,
)
from .clustering import (
    DEFAULT_CUT_FRACTION,
    Dendrogram,
    Merge,
    average_linkage,
    cluster_diameter,
    cluster_diameters,
    cut_top_links,
)
from .thresholds import (
    median_threshold,
    percentile_threshold,
    select_above,
    select_below,
)
from .roc import (
    PERCENTILE_SWEEP,
    RocCurve,
    RocPoint,
    confusion_rates,
    roc_from_selections,
)
from .ecdf import ecdf, ecdf_at, quantile_series
from .bootstrap import ConfidenceInterval, bootstrap_mean_ci

__all__ = [
    "Histogram",
    "build_histogram",
    "freedman_diaconis_width",
    "emd",
    "emd_1d",
    "pairwise_emd",
    "signature_arrays",
    "PAIRWISE_BACKENDS",
    "DEFAULT_CUT_FRACTION",
    "Dendrogram",
    "Merge",
    "average_linkage",
    "cluster_diameter",
    "cluster_diameters",
    "cut_top_links",
    "median_threshold",
    "percentile_threshold",
    "select_above",
    "select_below",
    "PERCENTILE_SWEEP",
    "RocCurve",
    "RocPoint",
    "confusion_rates",
    "roc_from_selections",
    "ecdf",
    "ecdf_at",
    "quantile_series",
    "ConfidenceInterval",
    "bootstrap_mean_ci",
]
