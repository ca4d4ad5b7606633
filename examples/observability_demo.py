#!/usr/bin/env python
"""One fully-observed detection run: spans, funnel metrics, exports.

Synthesizes a small campus day with Storm and Nugache overlays, runs
the batch FindPlotters pipeline *and* the streaming OnlineDetector
over the same traffic under one :class:`repro.obs.ObsSession` — the
same lifecycle behind the CLI telemetry flags — and writes:

* a JSONL trace (``--metrics-out``) — every span (the four funnel
  stages with durations and host counts, the θ_hm clustering
  internals, the online evaluations) plus a final registry snapshot;
* a Prometheus text file (``--prom-out``) — stage gauges, kernel
  counters, online-evaluation totals, ingest throughput;
* optionally a run-ledger entry (``--ledger-dir``, inspect with
  ``repro-obs``) and a live HTTP endpoint (``--prom-port``, 0 for an
  ephemeral port).

With ``--selfcheck`` the demo scrapes its *own* live ``/metrics`` and
``/summary`` mid-run and fails if the exposition is malformed or the
stage funnel is missing — CI uses this as a race-free live-scrape
probe.

Run:  python examples/observability_demo.py \
          [--metrics-out metrics.jsonl] [--prom-out metrics.prom] \
          [--prom-port 0 --ledger-dir runs --selfcheck]
"""

import argparse
import json
import sys
import urllib.request

from repro import obs
from repro.datasets import (
    CampusConfig,
    build_campus_day,
    capture_nugache_trace,
    capture_storm_trace,
    overlay_traces,
)
from repro.detection import OnlineDetector, find_plotters
from repro.netsim.rng import substream

SEED = 23

STAGES = ("reduction", "theta_vol", "theta_churn", "theta_hm")


def selfcheck(base_url: str, logger) -> None:
    """Scrape our own live server mid-run and validate the exposition."""
    with urllib.request.urlopen(base_url + "/healthz", timeout=10) as resp:
        health = json.loads(resp.read())
    assert health["status"] == "ok", health
    with urllib.request.urlopen(base_url + "/metrics", timeout=10) as resp:
        ctype = resp.headers.get("Content-Type", "")
        text = resp.read().decode("utf-8")
    assert "version=0.0.4" in ctype, f"wrong content type: {ctype}"
    for stage in STAGES:
        needle = f'repro_stage_input_hosts{{stage="{stage}"}}'
        assert needle in text, f"live /metrics missing funnel series {needle}"
    with urllib.request.urlopen(base_url + "/summary", timeout=10) as resp:
        doc = json.loads(resp.read())
    assert "metrics" in doc, sorted(doc)
    scraped = {s["stage"] for s in doc["funnel"]}
    assert scraped == set(STAGES), f"summary funnel incomplete: {scraped}"
    logger.info(
        "selfcheck: live scrape OK (%d exposition lines, %d funnel stages)",
        len(text.splitlines()),
        len(doc["funnel"]),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics-out", default="metrics.jsonl")
    parser.add_argument("--prom-out", default="metrics.prom")
    parser.add_argument("--prom-port", type=int, default=None)
    parser.add_argument("--ledger-dir", default=None)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="scrape own /metrics + /summary mid-run (needs --prom-port)",
    )
    args = parser.parse_args()
    if args.selfcheck and args.prom_port is None:
        parser.error("--selfcheck requires --prom-port")

    logger = obs.configure_logging()
    logger.info("synthesizing campus day at scale %.2f ...", args.scale)
    day = build_campus_day(CampusConfig(seed=SEED).scaled(args.scale), 0)
    storm = capture_storm_trace(seed=SEED, n_bots=8)
    nugache = capture_nugache_trace(seed=SEED, n_bots=12)
    overlaid = overlay_traces(day, [storm, nugache], substream(SEED, "ov"))

    session = obs.ObsSession(
        metrics_out=args.metrics_out,
        prom_out=args.prom_out,
        prom_port=args.prom_port,
        ledger_dir=args.ledger_dir,
        kind="demo",
        config={"scale": args.scale, "seed": SEED},
        command=["observability_demo", *sys.argv[1:]],
    )
    with session:
        result = find_plotters(overlaid.store, hosts=day.all_hosts)
        session.record_result(result)
        logger.info(
            "batch pipeline: %d hosts in, %d suspects out",
            len(result.input_hosts),
            len(result.suspects),
        )

        online = OnlineDetector(
            day.all_hosts, window=day.window / 4, reservoir_size=512
        )
        online.ingest_many(overlaid.store)
        verdict = online.evaluate()
        logger.info(
            "online detector: %d windows tumbled, %d evaluations, %d "
            "suspects in the open window",
            len(online.history),
            int(obs.counter("repro_online_evaluations_total").value()),
            len(verdict.suspects),
        )
        if args.selfcheck:
            selfcheck(session.server.url, logger)

    logger.info("wrote %s and %s", args.metrics_out, args.prom_out)
    summary = obs.summary()
    for stage in STAGES:
        n_in = summary["repro_stage_input_hosts"][f"stage={stage}"]
        n_out = summary["repro_stage_surviving_hosts"][f"stage={stage}"]
        print(f"{stage:<12} {int(n_in):>5} -> {int(n_out):<5} hosts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
