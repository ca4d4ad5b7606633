"""``repro serve`` — run the resident detection service.

Starts a :class:`~repro.serve.coordinator.ServeCoordinator`, publishes
a discovery file (``<spool-dir>/serve.json`` with the bound URL and
pid, written atomically so a poller never reads a torn file), then
blocks until SIGTERM/SIGINT or ``POST /drain``.  The drain finalises
every in-flight window, batch-rescores the spools, writes
``<spool-dir>/drain.json`` and — through the shared
:class:`~repro.obs.session.ObsSession` lifecycle — records the whole
run (funnel, suspects, checksum, degradations) into the run ledger.

With ``--ha`` the process joins a warm-standby pair instead of
unconditionally serving: it contends for the leadership lease under
``<spool-dir>/ha/``, tails the coordinator journal while standing by,
and promotes with the lease fence as its incarnation when the lease
falls to it (see :mod:`repro.serve.ha`).  SIGTERM drains a primary and
cleanly exits a standby.

Telemetry flags are the same four every CLI here speaks
(:func:`~repro.obs.session.add_observability_args`); ``--prom-port``
is unnecessary since the service port *is* a metrics endpoint, but it
keeps working for operators who want a second, read-only one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from ..obs.session import ObsSession, add_observability_args
from ..resilience import atomic_write_text
from .config import ServeConfig
from .coordinator import ServeCoordinator
from .ha import run_ha

__all__ = ["build_parser", "main"]

#: Name of the discovery file published under ``--spool-dir``.
DISCOVERY_NAME = "serve.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the resident Trader/Plotter detection service: shard "
            "hosts across persistent OnlineDetector workers, spool "
            "ingested flows durably, serve live verdicts over HTTP, "
            "and on drain produce the exact batch-pipeline verdict."
        ),
    )
    parser.add_argument(
        "--spool-dir",
        required=True,
        metavar="DIR",
        help="root of the service's durable state (one segment spool "
        "per epoch, coord.log journal, serve.json discovery file, "
        "drain.json report)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="detection worker processes (default: 2)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=6 * 3600.0,
        metavar="SECONDS",
        help="tumbling-window length D (default: 21600 = 6h)",
    )
    parser.add_argument(
        "--window-origin",
        type=float,
        default=0.0,
        metavar="T",
        help="anchor of the absolute window grid (default: 0)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="control-plane port (default: 0 = ephemeral; the bound "
        "port is published in serve.json)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="control-plane bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--segment-rows",
        type=int,
        default=None,
        metavar="N",
        help="most rows per spool segment; a larger ingest chunk is "
        "cut into several (default: storage plane default)",
    )
    parser.add_argument(
        "--on-parse-error",
        choices=("strict", "skip", "quarantine"),
        default="skip",
        help="ingest policy for malformed CSV rows (default: skip)",
    )
    parser.add_argument(
        "--ha",
        action="store_true",
        help="join the warm-standby pair on this spool dir: contend "
        "for the leadership lease, tail the coordinator journal while "
        "standing by, promote on takeover",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="HA leadership lease TTL; failover takes at most this "
        "plus the standby poll interval (default: 5)",
    )
    parser.add_argument(
        "--standby-poll",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="standby lease-retry / journal-tail interval (default: 0.25)",
    )
    parser.add_argument(
        "--max-backlog-rows",
        type=int,
        default=None,
        metavar="N",
        help="admission-control watermark: reject ingest with 429 + "
        "Retry-After while more than N forwarded rows await worker "
        "acks (default: unbounded)",
    )
    parser.add_argument(
        "--verdict-db",
        default=None,
        metavar="PATH",
        help="record every finalised window verdict (and the drain "
        "rescore) into this SQLite verdict database — the query "
        "plane's cross-window history; also enables the /query/* "
        "routes (default: off)",
    )
    add_observability_args(parser)
    return parser


#: Drain-report keys copied into the run ledger's ``serve`` annotation.
_ANNOTATED_KEYS = (
    "rows_ingested",
    "rows_rescored",
    "windows_finalized",
    "duplicate_verdicts",
    "duplicate_chunks",
    "restarts",
    "epochs",
    "incarnation",
    "quarantined_shards",
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = ServeConfig(
        spool_dir=args.spool_dir,
        n_shards=args.shards,
        window=args.window,
        window_origin=args.window_origin,
        port=args.port,
        host=args.host,
        segment_rows=args.segment_rows,
        on_parse_error=args.on_parse_error,
        max_backlog_rows=args.max_backlog_rows,
        lease_ttl=args.lease_ttl,
        standby_poll=args.standby_poll,
        verdict_db=args.verdict_db,
    )
    session = ObsSession.from_args(
        args,
        kind="serve",
        config=config.to_dict(),
        command=["repro", "serve"] + list(argv or sys.argv[1:]),
    )
    if args.ha:
        return _main_ha(config, session)
    return _main_solo(config, session)


def _main_ha(config: ServeConfig, session: ObsSession) -> int:
    shutdown = threading.Event()

    def _request_shutdown(signum, frame):
        shutdown.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    with session:
        outcome = run_ha(
            config,
            shutdown=shutdown,
            announce=lambda message: print(
                f"repro serve [ha]: {message}", file=sys.stderr
            ),
        )
        if outcome is None:
            # Stood down without draining (standby shutdown, or the
            # journal was already drained by another node).
            session.annotate(serve={"role": "standby"})
            return 0
        result, report = outcome
        session.record_result(result)
        session.annotate(
            serve={key: report[key] for key in _ANNOTATED_KEYS}
        )
        print(json.dumps(report, sort_keys=True))
    return 0


def _main_solo(config: ServeConfig, session: ObsSession) -> int:
    coordinator = ServeCoordinator(config)

    def _request_drain(signum, frame):
        coordinator.drain_requested.set()

    signal.signal(signal.SIGTERM, _request_drain)
    signal.signal(signal.SIGINT, _request_drain)

    with session:
        coordinator.start()
        discovery = Path(config.spool_dir) / DISCOVERY_NAME
        atomic_write_text(
            discovery,
            json.dumps(
                {
                    "url": coordinator.url,
                    "port": coordinator.server.port,
                    "pid": os.getpid(),
                    "n_shards": config.n_shards,
                    "window": config.window,
                    "incarnation": coordinator.incarnation,
                    "role": "solo",
                },
                sort_keys=True,
            )
            + "\n",
        )
        print(f"repro serve listening on {coordinator.url}", file=sys.stderr)
        try:
            coordinator.drain_requested.wait()
            result, report = coordinator.drain()
            session.record_result(result)
            session.annotate(
                serve={key: report[key] for key in _ANNOTATED_KEYS}
            )
            print(json.dumps(report, sort_keys=True))
        finally:
            coordinator.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
