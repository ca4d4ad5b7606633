"""Command-line entry point: run any experiment and print its table.

Usage::

    repro-experiments --list
    repro-experiments fig9
    repro-experiments fig6 fig7 fig8 --scale paper
    repro-experiments all --scale quick
    repro-experiments fig9 --metrics-out metrics.jsonl --prom-out metrics.prom
    repro-experiments fig9 --prom-port 9109 --ledger-dir runs/

Result tables go to stdout; progress diagnostics go to the namespaced
``repro.experiments`` logger on stderr (``--log-level`` adjusts it).
The shared telemetry flags (:func:`repro.obs.add_observability_args`)
switch the observability layer on for the run: ``--metrics-out``
streams spans as JSONL, ``--prom-out`` writes a Prometheus text file,
``--prom-port`` serves live ``/metrics`` while experiments run, and
``--ledger-dir`` records the run into the persistent ledger
(``repro-obs`` inspects it).  All outputs are flushed even when an
experiment crashes — the ledger then carries ``status="error"``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Callable, Dict

from .. import obs

from .ablations import (
    run_ablation_binning,
    run_ablation_composition,
    run_ablation_distance,
    run_ablation_thresholds,
    run_baseline_comparison,
)
from .config import ExperimentConfig, ExperimentContext
from .distributions import (
    run_fig1_volume_cdf,
    run_fig2_new_ip_timeseries,
    run_fig3_interstitial,
    run_fig5_failed_conn_cdf,
)
from .evasion_figs import run_fig11_evasion_thresholds, run_fig12_jitter_decay
from .extensions import (
    run_ext_combined_evasion,
    run_ext_trader_hosted,
    run_ext_waledac,
)
from .sensitivity import (
    run_sensitivity_botnet_size,
    run_sensitivity_sampling,
    run_sensitivity_window,
)
from .pipeline_figs import run_fig10_nugache_activity, run_fig9_funnel
from .plots import ascii_cdf, ascii_decay, ascii_xy
from .roc import RocResult, run_fig6_roc_volume, run_fig7_roc_churn, run_fig8_roc_hm

__all__ = ["EXPERIMENTS", "main"]

EXPERIMENTS: Dict[str, Callable] = {
    "fig1": run_fig1_volume_cdf,
    "fig2": run_fig2_new_ip_timeseries,
    "fig3": run_fig3_interstitial,
    "fig5": run_fig5_failed_conn_cdf,
    "fig6": run_fig6_roc_volume,
    "fig7": run_fig7_roc_churn,
    "fig8": run_fig8_roc_hm,
    "fig9": run_fig9_funnel,
    "fig10": run_fig10_nugache_activity,
    "fig11": run_fig11_evasion_thresholds,
    "fig12": run_fig12_jitter_decay,
    "ablation-distance": run_ablation_distance,
    "ablation-binning": run_ablation_binning,
    "ablation-thresholds": run_ablation_thresholds,
    "ablation-composition": run_ablation_composition,
    "baselines": run_baseline_comparison,
    "ext-trader-hosted": run_ext_trader_hosted,
    "ext-waledac": run_ext_waledac,
    "ext-combined-evasion": run_ext_combined_evasion,
    "sensitivity-sampling": run_sensitivity_sampling,
    "sensitivity-botnet-size": run_sensitivity_botnet_size,
    "sensitivity-window": run_sensitivity_window,
}


def main(argv=None) -> int:
    """Parse arguments, run the requested experiments, print tables."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation figures of 'Are Your Hosts Trading "
            "or Plotting?' (Yen & Reiter, ICDCS 2010) on synthetic traffic."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "paper"),
        default="quick",
        help="campus size: quick (~10%% scale) or paper (full size)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII figure where the result supports one",
    )
    obs.add_observability_args(parser)
    parser.add_argument(
        "--log-level",
        default="INFO",
        help="level for the repro.* diagnostic logger (default INFO)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help=(
            "make pipeline stage failures fatal instead of stepping "
            "down the fallback ladder (a failed --store-dir spool -> "
            "in-memory extraction)"
        ),
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        help=(
            "spool each pipeline run's flows into a segment store under "
            "DIR and extract features from disk (bounded memory; "
            "identical results)"
        ),
    )
    parser.add_argument(
        "--segment-rows",
        type=int,
        metavar="N",
        help="segment cut threshold for --store-dir (default 262144 rows)",
    )
    args = parser.parse_args(argv)
    if args.segment_rows is not None and args.segment_rows < 1:
        parser.error("--segment-rows must be >= 1")
    logger = obs.configure_logging(level=args.log_level).getChild("experiments")

    if args.list or not args.experiments:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    config = (
        ExperimentConfig.paper() if args.scale == "paper" else ExperimentConfig.quick()
    )
    if args.no_degrade or args.store_dir:
        overrides = dict(
            degrade=not args.no_degrade,
            store_dir=args.store_dir,
        )
        if args.segment_rows is not None:
            overrides["segment_rows"] = args.segment_rows
        config = dataclasses.replace(
            config,
            pipeline=dataclasses.replace(config.pipeline, **overrides),
        )
    ctx = ExperimentContext(config)
    # One ObsSession owns every telemetry output; its __exit__ runs on
    # success *and* on a crashed experiment, so --metrics-out/--prom-out
    # files and the ledger entry survive failures.
    session = obs.ObsSession.from_args(
        args,
        kind="experiments",
        config=config.pipeline,
        command=["repro-experiments", *(sys.argv[1:] if argv is None else argv)],
    )
    if args.metrics_out:
        logger.info("streaming span events to %s", args.metrics_out)
    timings = {}
    with session:
        for name in names:
            logger.info("running %s at scale=%s", name, args.scale)
            started = time.time()
            with obs.span("experiment", experiment=name, scale=args.scale):
                result = EXPERIMENTS[name](ctx)
            elapsed = time.time() - started
            timings[name] = round(elapsed, 3)
            print(result.table)
            if args.plot:
                figure = _ascii_figure(name, result)
                if figure is not None:
                    print()
                    print(figure)
            print(f"[{name} completed in {elapsed:.1f}s at scale={args.scale}]")
            print()
        session.annotate(
            experiments=names, scale=args.scale, timings_seconds=timings
        )
    if args.prom_out:
        logger.info("wrote Prometheus exposition to %s", args.prom_out)
    return 0


def _ascii_figure(name: str, result) -> "str | None":
    """An ASCII rendering for results with a natural plot form."""
    from .distributions import DistributionResult
    from .evasion_figs import JitterResult

    if isinstance(result, DistributionResult) and name in ("fig1", "fig5"):
        return ascii_cdf(
            result.series,
            title=f"{name}: per-host CDF",
            x_label="bytes/flow" if name == "fig1" else "failed fraction",
            log_x=(name == "fig1"),
        )
    if isinstance(result, RocResult):
        return ascii_xy(
            {
                botnet: [(fpr, tpr) for _pct, tpr, fpr in points]
                for botnet, points in result.points.items()
            },
            title=f"{name}: ROC",
            x_label="FPR",
            y_label="TPR",
        )
    if isinstance(result, JitterResult):
        return ascii_decay(result.points, title=f"{name}: TPR vs jitter")
    return None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
