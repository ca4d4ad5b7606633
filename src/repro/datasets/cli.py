"""Dataset command line: synthesize, inspect, label and detect on disk.

Usage::

    repro-datasets generate --out traces/ --days 2 --scale 0.5 --seed 7
    repro-datasets inspect  --trace traces/campus-day0.flows.csv --top 10
    repro-datasets label    --trace traces/campus-day0.flows.csv
    repro-datasets detect   --trace traces/campus-day0.flows.csv

``generate`` writes campus days plus the Storm and Nugache honeynet
traces in the Argus-like CSV format; ``inspect`` prints per-host
features of any trace (the detector's view of it); ``label`` applies
the payload ground-truth rules; ``detect`` runs the full FindPlotters
pipeline over a trace and prints the suspect set.

Every subcommand accepts the same telemetry flags as
``repro-experiments`` (:func:`repro.obs.add_observability_args`):
``--metrics-out``, ``--prom-out``, ``--prom-port`` and
``--ledger-dir``.  A ``detect --ledger-dir runs/`` run records its
funnel and suspect set into the ledger for later ``repro-obs diff``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..flows.argus import PARSE_ERROR_MODES, read_flows_report
from ..flows.metrics import extract_features_sharded
from ..obs import ObsSession, add_observability_args, configure_logging, get_logger
from .campus import CampusConfig, build_campus_day
from .groundtruth import identify_traders
from .honeynet import capture_nugache_trace, capture_storm_trace
from .traces import save_campus_day, save_honeynet_trace

__all__ = ["main"]

# Progress/status lines go through the namespaced logger (stderr);
# the inspect/label subcommands' per-host listings are the program's
# *output* and stay on stdout.
logger = get_logger("datasets")


def _cmd_generate(args) -> int:
    out = Path(args.out)
    config = CampusConfig(seed=args.seed).scaled(args.scale)
    for day in range(args.days):
        campus = build_campus_day(config, day)
        save_campus_day(out, campus)
        logger.info(
            "campus day %d: %s flows -> %s", day, f"{len(campus.store):,}", out
        )
    storm = capture_storm_trace(seed=args.seed, window=config.window)
    save_honeynet_trace(out, storm)
    logger.info(
        "storm honeynet: %s flows (%d bots)",
        f"{len(storm.store):,}",
        storm.bot_count,
    )
    nugache = capture_nugache_trace(seed=args.seed, window=config.window)
    save_honeynet_trace(out, nugache)
    logger.info(
        "nugache honeynet: %s flows (%d bots)",
        f"{len(nugache.store):,}",
        nugache.bot_count,
    )
    return 0


def _read_trace(args):
    """Load the trace under the CLI's parse-error policy; log fallout."""
    store, report = read_flows_report(
        args.trace,
        errors=args.on_parse_error,
        dead_letter=args.dead_letter,
        to_store=getattr(args, "store_dir", None),
        segment_rows=getattr(args, "segment_rows", None),
    )
    if report.rows_bad:
        logger.warning("%s", report.describe())
        for sample in report.error_samples[:5]:
            logger.warning("  %s", sample)
    return store


def _cmd_inspect(args) -> int:
    store = _read_trace(args)
    features = extract_features_sharded(store)
    print(f"{args.trace}: {len(store):,} flows, {len(features)} initiators")
    header = (
        f"{'host':<18} {'flows':>7} {'avg B/flow':>11} {'fail%':>6} "
        f"{'new-IP%':>8} {'dests':>6}"
    )
    print(header)
    print("-" * len(header))
    ranked = sorted(
        features.values(), key=lambda f: f.flow_count, reverse=True
    )
    for feats in ranked[: args.top]:
        print(
            f"{feats.host:<18} {feats.flow_count:>7} "
            f"{feats.avg_flow_size:>11.0f} "
            f"{feats.failed_conn_rate:>6.1%} "
            f"{feats.new_ip_fraction:>8.1%} "
            f"{feats.distinct_destinations:>6}"
        )
    return 0


def _cmd_detect(args) -> int:
    from ..detection.pipeline import find_plotters

    store = _read_trace(args)
    result = find_plotters(store)
    session = getattr(args, "obs_session", None)
    if session is not None:
        session.record_result(result)
        session.annotate(trace=args.trace)
    if getattr(args, "verdict_db", None):
        import time as _time

        from ..query.verdicts import VerdictDB

        with VerdictDB(args.verdict_db) as db:
            window_id = db.record_batch(result, evaluated_at=_time.time())
        logger.info(
            "recorded window %s into verdict DB %s",
            window_id,
            args.verdict_db,
        )
    funnel = [
        ("input", len(result.input_hosts)),
        ("reduced", len(result.reduced_hosts)),
        ("vol∪churn", len(result.union_vol_churn)),
        ("suspects", len(result.suspects)),
    ]
    print(" -> ".join(f"{stage}:{count}" for stage, count in funnel))
    for host in sorted(result.suspects):
        print(host)
    return 0


def _cmd_label(args) -> int:
    if args.store_dir:
        # The storage plane projects flows down to the feature-bearing
        # fields; payload signatures need the full records.
        print(
            "label: --store-dir is not supported (ground-truth labelling "
            "needs flow payloads, which the segment store does not keep)",
            file=sys.stderr,
        )
        return 2
    store = _read_trace(args)
    labels = identify_traders(store)
    if not labels:
        print("no hosts matched the Trader payload signatures")
        return 0
    for host, protocol in sorted(labels.items()):
        print(f"{host:<18} {protocol}")
    print(f"({len(labels)} hosts labelled)")
    return 0


def main(argv=None) -> int:
    """Entry point for ``repro-datasets``."""
    parser = argparse.ArgumentParser(
        prog="repro-datasets",
        description="Synthesize, inspect and label flow traces.",
    )
    parser.add_argument(
        "--log-level",
        default="INFO",
        help="level for the repro.* diagnostic logger (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize traces to disk")
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--days", type=int, default=1)
    generate.add_argument("--scale", type=float, default=0.25)
    generate.add_argument("--seed", type=int, default=2007)
    add_observability_args(generate)
    generate.set_defaults(func=_cmd_generate)

    def add_ingest_flags(cmd):
        add_observability_args(cmd)
        cmd.add_argument("--trace", required=True, help="trace CSV path")
        cmd.add_argument(
            "--on-parse-error",
            choices=PARSE_ERROR_MODES,
            default="strict",
            help="malformed-row policy: abort, drop, or divert to a "
            "dead-letter CSV (default strict)",
        )
        cmd.add_argument(
            "--dead-letter",
            metavar="PATH",
            help="dead-letter CSV for --on-parse-error=quarantine "
            "(default: <trace>.deadletter.csv)",
        )
        cmd.add_argument(
            "--store-dir",
            metavar="DIR",
            help="spill parsed rows to a segment store at DIR and run "
            "from disk instead of materialising the trace in memory",
        )
        cmd.add_argument(
            "--segment-rows",
            type=int,
            metavar="N",
            help="segment cut threshold for --store-dir "
            "(default 262144 rows)",
        )

    inspect = sub.add_parser("inspect", help="per-host features of a trace")
    add_ingest_flags(inspect)
    inspect.add_argument("--top", type=int, default=20)
    inspect.set_defaults(func=_cmd_inspect)

    label = sub.add_parser("label", help="apply Trader payload signatures")
    add_ingest_flags(label)
    label.set_defaults(func=_cmd_label)

    detect = sub.add_parser(
        "detect", help="run the FindPlotters pipeline over a trace"
    )
    add_ingest_flags(detect)
    detect.add_argument(
        "--verdict-db",
        default=None,
        metavar="PATH",
        help="record this run's full verdict + stage evidence into "
        "the query plane's SQLite verdict database (default: off)",
    )
    detect.set_defaults(func=_cmd_detect)

    args = parser.parse_args(argv)
    configure_logging(level=args.log_level)
    # Same telemetry lifecycle as repro-experiments: outputs requested
    # via the shared flags are flushed (and the ledger entry written)
    # even when the subcommand raises.
    session = ObsSession.from_args(
        args,
        kind=f"datasets-{args.command}",
        command=["repro-datasets", *(sys.argv[1:] if argv is None else argv)],
    )
    args.obs_session = session if session.active else None
    with session:
        rc = args.func(args)
        session.annotate(exit_code=rc)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
