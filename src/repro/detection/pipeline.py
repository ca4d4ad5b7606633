"""FindPlotters — the composed detection pipeline (Figure 4).

    FindPlotters(Λ, S):
      S_vol   ← θ_vol(Λ, S, τ_vol)        # low traffic volume
      S_churn ← θ_churn(Λ, S, τ_churn)    # low peer churn
      S_hm    ← θ_hm(Λ, S_vol ∪ S_churn, τ_hm)
      return S_hm

The evaluation applies the initial data-reduction step of §V-A first to
form S.  :func:`score_features` is the one scoring core: it runs the
reduction and the three tests over per-host feature bundles, recording
every intermediate set so the Figure 9 funnel can be reproduced.
:func:`find_plotters` extracts the bundles from a store and scores
them; the online detector scores its streaming bundles with the same
core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Set, Tuple

from ..flows.metrics import HostFeatures, extract_features_sharded
from ..flows.store import FlowStore
from ..obs import metrics as obs_metrics
from ..obs.tracing import span
from ..resilience import Degradation, StageGuard
from .churn import theta_churn
from .humanmachine import theta_hm
from .reduction import initial_data_reduction
from .testbase import TestResult
from .volume import theta_vol

__all__ = ["PipelineConfig", "PipelineResult", "find_plotters", "score_features"]

# The Figure 9 funnel as a metric stream: per stage, how many hosts
# entered, how many survived, and the dynamic threshold applied.
_RUNS = obs_metrics.counter(
    "repro_pipeline_runs_total", "FindPlotters invocations"
)
_STAGE_INPUT = obs_metrics.gauge(
    "repro_stage_input_hosts",
    "Hosts entering a pipeline stage (last run)",
    labels=("stage",),
)
_STAGE_SURVIVING = obs_metrics.gauge(
    "repro_stage_surviving_hosts",
    "Hosts surviving a pipeline stage (last run)",
    labels=("stage",),
)
_STAGE_THRESHOLD = obs_metrics.gauge(
    "repro_stage_threshold",
    "Dynamic threshold a pipeline stage applied (last run)",
    labels=("stage",),
)


def _record_stage(stage: str, n_in: int, n_out: int, threshold: float) -> None:
    _STAGE_INPUT.set(n_in, stage=stage)
    _STAGE_SURVIVING.set(n_out, stage=stage)
    _STAGE_THRESHOLD.set(threshold, stage=stage)


@dataclass(frozen=True)
class PipelineConfig:
    """Threshold percentiles of the full pipeline.

    Defaults are the operating point the paper settles on in §V-B: the
    50th percentile for τ_vol and τ_churn, a high percentile of cluster
    diameters for τ_hm (the paper uses the 70th; we default to the 85th,
    which at our smaller campus population sits at the same point of
    the TP/FP trade — see the Figure 8 sweep), the 5% dendrogram link
    cut, and the median for the data-reduction cutoff.
    """

    reduction_percentile: float = 50.0
    vol_percentile: float = 50.0
    churn_percentile: float = 50.0
    hm_percentile: float = 85.0
    hm_cut_fraction: float = 0.05
    hm_log_scale: bool = True
    apply_reduction: bool = True
    #: Segment-store directory for out-of-core extraction (None = stay
    #: in memory).  When set and the pipeline is handed an in-memory
    #: store, its rows are spooled into segments there once and
    #: extraction runs store-backed — per-shard memory-mapped gathers
    #: instead of a whole-trace snapshot.  A pipeline handed a
    #: :class:`repro.storage.StoreView` is store-backed regardless.
    #: Either way the features, thresholds, and suspects are
    #: bit-identical to the in-memory run; storage failures degrade
    #: back to in-memory extraction under the stage guard.
    store_dir: Optional[str] = None
    #: Segment cut threshold (rows) used when spooling to ``store_dir``.
    segment_rows: int = 262_144
    #: Graceful degradation: when True (the default) a
    #: :class:`~repro.resilience.StageGuard` steps a failed
    #: ``store_dir`` spool down to in-memory extraction instead of
    #: aborting the run; the step is recorded in
    #: :attr:`PipelineResult.degradations`.  ``False`` (the CLI's
    #: ``--no-degrade``) makes the spool failure fatal.
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")


@dataclass(frozen=True)
class PipelineResult:
    """All intermediate and final host sets of one FindPlotters run."""

    input_hosts: frozenset
    reduction: Optional[TestResult]
    volume: TestResult
    churn: TestResult
    hm: TestResult
    #: Every graceful-degradation event of the run (empty on a clean
    #: run) — the resilience part of the run summary.  Silent fallback
    #: is impossible: anything here was also logged at WARNING, counted
    #: in ``repro_stage_degradations_total`` and emitted as a
    #: ``degradation`` span event.
    degradations: Tuple[Degradation, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether any stage ran in a fallback mode."""
        return bool(self.degradations)

    @property
    def reduced_hosts(self) -> Set[str]:
        """S — the hosts surviving initial data reduction."""
        if self.reduction is None:
            return set(self.input_hosts)
        return self.reduction.selected_set

    @property
    def union_vol_churn(self) -> Set[str]:
        """S_vol ∪ S_churn — the input to θ_hm."""
        return self.volume.selected_set | self.churn.selected_set

    @property
    def suspects(self) -> Set[str]:
        """S_hm — the hosts FindPlotters reports as likely Plotters."""
        return self.hm.selected_set

    def funnel(self):
        """The per-stage attrition of this run as a list of dicts.

        Same shape as :func:`repro.obs.export.funnel_snapshot`
        (``stage`` / ``input_hosts`` / ``surviving_hosts`` /
        ``threshold``) but read off the result itself, so it is exact
        per-run even when several runs share one metrics registry —
        this is what the run ledger records.
        """
        stages = []
        if self.reduction is not None:
            stages.append(("reduction", len(self.input_hosts), self.reduction))
        n_reduced = len(self.reduced_hosts)
        stages.append(("theta_vol", n_reduced, self.volume))
        stages.append(("theta_churn", n_reduced, self.churn))
        stages.append(("theta_hm", len(self.union_vol_churn), self.hm))
        return [
            {
                "stage": stage,
                "input_hosts": n_in,
                "surviving_hosts": len(result.selected_set),
                "threshold": result.threshold,
            }
            for stage, n_in, result in stages
        ]


def _extract_attempts(store, hosts, config):
    """The extraction stage as (mode, thunk) pairs for the stage guard.

    One rung, except when an in-memory store meets ``config.store_dir``:
    then a leading *spool* rung spills the rows to segments and extracts
    store-backed, and any storage failure there — unwritable directory,
    torn segment, failed read — steps down to in-memory extraction,
    since the trace demonstrably fits in RAM.  A
    :class:`repro.storage.StoreView` input has no in-memory rung (the
    trace may not fit), so its failures propagate.
    """

    def extract():
        return extract_features_sharded(store, hosts)

    if config.store_dir is None or not isinstance(store, FlowStore):
        return [("extract", extract)]

    def spooled():
        from ..storage import spool_flow_store

        view = spool_flow_store(
            store, config.store_dir, segment_rows=config.segment_rows
        )
        return extract_features_sharded(view, hosts)

    return [("store", spooled), ("in-memory", extract)]


def score_features(
    features: Mapping[str, HostFeatures],
    hosts: Iterable[str],
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """Run the reduction and the three tests over per-host features.

    The one FindPlotters scoring core: the batch pipeline feeds it the
    bundles it extracted from a store, the online detector its
    streaming bundles.  Each stage runs in its own span and refreshes
    the ``repro_stage_*`` funnel gauges.  Hosts without a bundle (no
    initiated flow) count as input hosts but never survive a stage.
    """
    hosts = set(hosts)
    reduction: Optional[TestResult] = None
    working = hosts
    if config.apply_reduction:
        with span("reduction", input_hosts=len(hosts)) as s:
            reduction = initial_data_reduction(
                features, hosts, config.reduction_percentile
            )
            working = reduction.selected_set
            s.set(surviving_hosts=len(working), threshold=reduction.threshold)
        _record_stage("reduction", len(hosts), len(working), reduction.threshold)

    with span("theta_vol", input_hosts=len(working)) as s:
        volume = theta_vol(features, working, config.vol_percentile)
        s.set(
            surviving_hosts=len(volume.selected_set),
            threshold=volume.threshold,
        )
    _record_stage(
        "theta_vol", len(working), len(volume.selected_set), volume.threshold
    )

    with span("theta_churn", input_hosts=len(working)) as s:
        churn = theta_churn(features, working, config.churn_percentile)
        s.set(
            surviving_hosts=len(churn.selected_set),
            threshold=churn.threshold,
        )
    _record_stage(
        "theta_churn", len(working), len(churn.selected_set), churn.threshold
    )

    union = volume.selected_set | churn.selected_set
    with span("theta_hm", input_hosts=len(union)) as s:
        hm = theta_hm(
            features,
            union,
            percentile=config.hm_percentile,
            cut_fraction=config.hm_cut_fraction,
            log_scale=config.hm_log_scale,
        )
        s.set(surviving_hosts=len(hm.selected_set), threshold=hm.threshold)
    _record_stage("theta_hm", len(union), len(hm.selected_set), hm.threshold)
    return PipelineResult(
        input_hosts=frozenset(hosts),
        reduction=reduction,
        volume=volume,
        churn=churn,
        hm=hm,
    )


def find_plotters(
    store: FlowStore,
    hosts: Optional[Set[str]] = None,
    config: PipelineConfig = PipelineConfig(),
    guard: Optional[StageGuard] = None,
) -> PipelineResult:
    """Run the full detection pipeline over one window of traffic.

    Extracts every per-host feature bundle once, then scores them with
    :func:`score_features`.

    Parameters
    ----------
    store:
        The traffic Λ.
    hosts:
        The internal hosts to consider (default: all initiators in Λ —
        in practice pass the internal-host set so external addresses are
        never candidates).
    config:
        Threshold percentiles; see :class:`PipelineConfig`.
    guard:
        Stage supervisor to record degradations on (default: a fresh
        :class:`~repro.resilience.StageGuard`, enabled per
        ``config.degrade``).  Pass a shared guard to accumulate one
        resilience summary across several runs.
    """
    if hosts is None:
        hosts = store.initiators
    hosts = set(hosts)
    if guard is None:
        guard = StageGuard(enabled=config.degrade, name="find_plotters")
    degradations_before = len(guard.degradations)

    with span("find_plotters", input_hosts=len(hosts)) as root:
        _RUNS.inc()
        # A failed store_dir spool steps down to in-memory extraction
        # under the guard.
        with span("extract_features", hosts=len(hosts)):
            features = guard.run(
                "extract_features", _extract_attempts(store, hosts, config)
            )
        result = score_features(features, hosts, config)
        degradations = guard.degradations[degradations_before:]
        root.set(
            suspects=len(result.suspects), degradations=len(degradations)
        )
    return replace(result, degradations=degradations)
