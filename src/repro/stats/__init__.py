"""Statistics substrate: histograms, EMD, clustering, thresholds, ROC."""

from .histogram import Histogram, build_histogram, freedman_diaconis_width
from .emd import (
    PAIRWISE_BACKENDS,
    PRUNED_MIN_HOSTS,
    emd,
    emd_1d,
    emd_transport,
    pairwise_emd,
    resolve_backend,
    signature_arrays,
)
from .emdindex import (
    EmdIndex,
    PruneReport,
    build_index,
    pruned_matrix,
    pruned_partition,
)
from .clustering import (
    DEFAULT_CUT_FRACTION,
    Dendrogram,
    Merge,
    average_linkage,
    cluster_by_emd_cut,
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
from .dendro import (
    cophenetic_correlation,
    cophenetic_matrix,
    render_dendrogram,
)

__all__ = [
    "Histogram",
    "build_histogram",
    "freedman_diaconis_width",
    "emd",
    "emd_1d",
    "emd_transport",
    "pairwise_emd",
    "resolve_backend",
    "signature_arrays",
    "PAIRWISE_BACKENDS",
    "PRUNED_MIN_HOSTS",
    "EmdIndex",
    "PruneReport",
    "build_index",
    "pruned_matrix",
    "pruned_partition",
    "DEFAULT_CUT_FRACTION",
    "Dendrogram",
    "Merge",
    "average_linkage",
    "cluster_by_emd_cut",
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
    "cophenetic_correlation",
    "cophenetic_matrix",
    "render_dendrogram",
]
