"""The fresh detect process of the ``paper-day`` workload.

Imports the program, prints ``READY`` (the parent times set-up from
spawn to this line), then reads the Argus CSV straight into a segment
store, runs ``find_plotters`` over the store view on the day's
internal hosts and records the result in a verdict DB.  The last
stdout line is a JSON report: step spans, suspects, funnel, segment
count, degradations and the process's peak RSS.

    python3 e2ebench/detect_child.py --csv day.csv --hosts hosts.json \
        --store-dir store --db verdicts.sqlite --cpu N [--obs]

``--cpu`` pins the process to one vCPU, the one its speed probe
samples (see ``speedprobe.py``).

``--obs`` enables the program's own telemetry with an in-memory span
sink and ships the span tree and counters home in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tracer, use_program_source, vm_hwm_mb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--csv", required=True)
    parser.add_argument("--hosts", required=True)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--db", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--obs", action="store_true")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    use_program_source()
    from repro import obs
    from repro.detection.pipeline import PipelineConfig, find_plotters
    from repro.flows.argus import read_flows_report
    from repro.query.verdicts import VerdictDB

    print("READY", flush=True)

    hosts = set(json.loads(Path(args.hosts).read_text()))
    sink = None
    if args.obs:
        obs.enable()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
    tracer = Tracer("child")
    with tracer.span("detect"):
        with tracer.span("flows.argus.read_spool"):
            view, report = read_flows_report(args.csv, to_store=args.store_dir)
        with tracer.span("detection.find_plotters") as fp:
            result = find_plotters(view, hosts=hosts, config=PipelineConfig())
        with tracer.span("query.record_batch"):
            with VerdictDB(args.db) as db:
                db.record_batch(
                    result, evaluated_at=time.time(), source="batch",
                    run_id="e2ebench-paper-day",
                )
    out = {
        "rows_ok": report.rows_ok,
        "rows_bad": report.rows_bad,
        "segments": view.store.n_segments,
        "suspects": sorted(result.suspects),
        "funnel": result.funnel(),
        "degradations": [str(d) for d in result.degradations],
        "vm_hwm_mb": vm_hwm_mb(os.getpid()),
        "spans": tracer.spans,
        "find_plotters_span": fp["id"],
    }
    if sink is not None:
        out["program_spans"] = sink.spans
        out["registry"] = obs.summary(obs.get_registry())
        obs.remove_sink(sink)
        obs.disable()
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
