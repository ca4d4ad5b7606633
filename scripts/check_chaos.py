#!/usr/bin/env python
"""Chaos smoke test: dirty input plus infrastructure failure, end to end.

Used by the CI ``chaos-smoke`` job; also runnable by hand.  Two phases,
each asserting the resilience contract rather than mere survival:

**Dirty ingest** — the trace on disk has ~1% of its rows corrupted
(via the ``REPRO_FAULT_PARSE_CORRUPT_RATE`` knob, so the *same* rows
corrupt on every run).  Quarantine mode must reconcile exactly:
``rows_ok + rows_quarantined == rows_total``, the dead-letter CSV holds
one record per quarantined row, and strict mode must still fail fast on
the same trace.

**Infrastructure chaos** — FindPlotters runs over the *clean*
in-memory store with ``store_dir`` set, so extraction first spools the
rows to a segment store, while every segment read raises (the
``store-read`` I/O fault).  The run must complete, report exactly one
degradation (the ``extract_features`` spool stepping down to in-memory
extraction), and produce *exactly* the suspects of the fault-free
baseline — degraded infrastructure changes wall time, never verdicts.

The metrics JSONL (span events + final registry snapshot) and the
dead-letter CSV land in ``--artifacts`` for CI upload.

Usage:  python scripts/check_chaos.py --artifacts chaos-artifacts/
"""

from __future__ import annotations

import argparse
import csv
import random
import tempfile
from pathlib import Path

import _checklib
from _checklib import phase

_checklib.bootstrap()

from repro import obs  # noqa: E402
from repro.detection.pipeline import PipelineConfig, find_plotters  # noqa: E402
from repro.flows.argus import (  # noqa: E402
    read_flows,
    read_flows_report,
    write_flows,
)
from repro.flows.record import FlowRecord, FlowState, Protocol  # noqa: E402
from repro.flows.store import FlowStore  # noqa: E402
from repro.resilience import faults  # noqa: E402

N_HOSTS = 60
CORRUPT_RATE = 0.01
CORRUPT_SEED = 7


def synthesize_store(seed: int = 1729) -> FlowStore:
    """A small deterministic campus plus a timer botnet.

    The bots share a binary timer and a small stable peer list, so the
    full pipeline should flag them — making the end-to-end "identical
    suspects" assertions non-vacuous.
    """
    rng = random.Random(seed)
    states = [FlowState.ESTABLISHED] * 3 + [FlowState.REJECTED, FlowState.TIMEOUT]
    flows = []
    for h in range(N_HOSTS):
        src = f"10.0.0.{h}"
        t = rng.random() * 100
        for i in range(rng.randint(20, 120)):
            t += rng.expovariate(1 / 45.0)
            flows.append(
                FlowRecord(
                    src=src,
                    dst=f"192.168.0.{rng.randrange(12)}",
                    sport=1024 + i,
                    dport=80,
                    proto=Protocol.TCP,
                    start=t,
                    end=t + 1.0,
                    src_bytes=rng.randrange(0, 9000),
                    dst_bytes=0,
                    state=rng.choice(states),
                )
            )
    for b in range(6):
        src = f"10.0.1.{b}"
        t = float(b)
        for i in range(120):
            t += 30.0 + rng.uniform(-0.05, 0.05)
            failed = i % 2 == 0  # stale peer entries: high failure rate
            flows.append(
                FlowRecord(
                    src=src,
                    dst=f"172.16.0.{i % 4}",
                    sport=2048 + i,
                    dport=6881,
                    proto=Protocol.TCP,
                    start=t,
                    end=t + 0.5,
                    src_bytes=rng.randrange(20, 120),
                    dst_bytes=0,
                    state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
                )
            )
    rng.shuffle(flows)
    return FlowStore(flows)


def check_dirty_ingest(store, artifacts: Path, tmp: Path) -> None:
    """Corrupt ~1% of trace rows; quarantine must reconcile exactly."""
    trace = tmp / "trace.csv"
    total = write_flows(trace, store)

    # Strict mode fails fast on the first corrupted row.
    with faults.injected(
        parse_corrupt_rate=CORRUPT_RATE, parse_seed=CORRUPT_SEED
    ):
        try:
            read_flows(trace)
        except ValueError as exc:
            print(f"strict mode failed fast as required: {exc}")
        else:
            raise SystemExit("strict mode swallowed corrupted rows")

    dead_letter = artifacts / "dead-letter.csv"
    with faults.injected(
        parse_corrupt_rate=CORRUPT_RATE, parse_seed=CORRUPT_SEED
    ):
        recovered, report = read_flows_report(
            trace, errors="quarantine", dead_letter=dead_letter
        )

    assert report.rows_quarantined > 0, "corruption injected nothing"
    assert report.rows_ok + report.rows_quarantined == total, (
        f"rows lost silently: {report.rows_ok} ok + "
        f"{report.rows_quarantined} quarantined != {total}"
    )
    assert len(recovered) == report.rows_ok
    with open(dead_letter, newline="") as fh:
        dead_rows = list(csv.reader(fh))
    assert len(dead_rows) - 1 == report.rows_quarantined, (
        "dead-letter file and quarantine count disagree"
    )
    print(
        f"dirty ingest OK: {report.rows_ok}/{total} rows recovered, "
        f"{report.rows_quarantined} quarantined to {dead_letter.name}"
    )

    # The pipeline completes over the partially-recovered store.
    partial = find_plotters(recovered)
    print(
        f"pipeline over recovered store completed "
        f"({len(partial.suspects)} suspects)"
    )


def check_infrastructure_chaos(store, baseline, tmp):
    """Every segment read fails: the spool must step down to in-memory."""
    config = PipelineConfig(store_dir=str(tmp / "spool"))
    with faults.injected(io_errors=["store-read"]):
        chaotic = find_plotters(store, config=config)

    for event in chaotic.degradations:
        print(f"  degradation: {event.describe()}")
    assert len(chaotic.degradations) == 1, (
        f"expected exactly one degradation, got {len(chaotic.degradations)}"
    )
    (event,) = chaotic.degradations
    assert (event.stage, event.from_mode, event.to_mode) == (
        "extract_features",
        "store",
        "in-memory",
    ), f"unexpected degradation: {event.describe()}"
    assert chaotic.suspects == baseline.suspects, (
        "degraded run changed the suspect set: "
        f"{sorted(chaotic.suspects ^ baseline.suspects)}"
    )
    print(
        "infrastructure chaos OK: spool -> in-memory reported, suspects "
        f"identical ({len(baseline.suspects)} hosts)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default="chaos-artifacts",
        help="directory for the dead-letter CSV and metrics JSONL",
    )
    args = parser.parse_args()

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    store = synthesize_store()
    baseline = find_plotters(store)
    print(
        f"baseline: {len(store)} flows, {len(baseline.suspects)} suspects, "
        f"degradations={len(baseline.degradations)}"
    )
    assert not baseline.degraded, "clean baseline reported degradations"

    obs.enable()
    sink = obs.JsonlSink(str(artifacts / "metrics.jsonl"))
    obs.add_sink(sink)
    try:
        with tempfile.TemporaryDirectory(prefix="chaos-") as tmp_str:
            tmp = Path(tmp_str)
            with phase("dirty ingest"):
                check_dirty_ingest(store, artifacts, tmp)
            with phase("infrastructure chaos"):
                check_infrastructure_chaos(store, baseline, tmp)
    finally:
        sink.write_event(obs.metrics_event())
        obs.remove_sink(sink)
        sink.close()
        obs.disable()
    print("check_chaos: all assertions passed")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
