"""End-to-end benchmark runner: one workload, one seed, one result.

    python3 e2ebench/run.py --workload paper-day --seed 2007 \
        --seconds 30 --trace 0

Workloads: ``paper-day`` (batch, seed to recorded verdicts) and
``ingest-max`` (closed-loop ingest into ``repro serve`` as fast as acks
return).  See ``e2ebench/README.md``.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, by the names
and units ``BENCHMARK.json`` lists.  The line before it
(``context {...}``) records the run context.  The traced run also
writes its span tree, per-layer self times and profile to
``.e2ebench/traces/<workload>-seed<seed>.json``.  Exit status is 0
only when every correctness check passed; 2 when the checkout carries
no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK_ROOT,
    catalogue,
    metric,
    program_present,
    result_line,
    run_context,
    use_program_source,
)

WORKLOADS = ("paper-day", "ingest-max")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget of the repeated passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, work: Path) -> dict:
    trace = bool(args.trace)
    if args.workload == "paper-day":
        import paper_day

        return paper_day.run(args.seed, args.seconds, trace, work)
    import ingest_max

    return ingest_max.run(args.seed, args.seconds, trace, work)


def pick(values: dict, units: dict, missing=None) -> dict:
    """Exactly the catalogued metrics, each with its unit; a metric the
    workload did not produce reads ``missing`` (an error if None)."""
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {name: metric(values[name] if missing is None
                         else values.get(name, missing), unit)
            for name, unit in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print("e2ebench: no program source (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    use_program_source()
    end_to_end, per_layer = catalogue()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = run_workload(args, work)
    except Exception:
        traceback.print_exc()
        print(result_line(False, 1, 1, {}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = run_context(args.seed, args.workload, bool(args.trace))
    context.update(out["context"])
    context["checks"] = out["checks"].results
    if args.trace:
        layers = out["layers"]
        # A layer the workload never enters reports 0.
        metrics = pick(layers["per_layer"], per_layer, missing=0.0)
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"context": context, **layers}, indent=1, default=str) + "\n")
        largest = layers["largest_layer"]
        print(f"largest layer: {largest['name']} "
              f"self {largest['self_s']:.3f} s; trace written to {path}")
        if "coverage" in layers:
            print(f"layer spans cover {100 * layers['coverage']['share']:.1f}%"
                  " of generate_s + detect_s")
    else:
        metrics = pick(out["metrics"], end_to_end)
    print("context " + json.dumps(context, sort_keys=True, default=str))
    ok = out["checks"].ok
    print(result_line(ok, out["attempted"], out["failed"], metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
