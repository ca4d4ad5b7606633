"""Perf harness for sharded feature extraction.

Times the per-host reference extractor
(:func:`repro.flows.metrics.extract_all_features`) against the
production extractor (:func:`repro.flows.metrics.extract_features_sharded`,
in-process and vectorized) over synthetic campus-shaped traffic at
several scales, asserts the production output is *bit-identical* to
the reference, and writes the measurements to ``BENCH_extract.json``
at the repo root so successive PRs accumulate a perf trajectory.

Run directly (full sweep)::

    PYTHONPATH=src python benchmarks/test_perf_extract.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_extract.py -q

Environment knobs:

* ``REPRO_BENCH_EXTRACT_HOSTS`` — comma-separated host counts
  (default ``200,600,1500``); CI smoke runs set a small value.
* ``REPRO_BENCH_EXTRACT_OUT`` — output path
  (default ``<repo>/BENCH_extract.json``).
"""

from __future__ import annotations

import json
import os
import random
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence

from history import append_history

from repro.flows.metrics import extract_all_features, extract_features_sharded
from repro.flows.record import FlowRecord, FlowState, Protocol
from repro.flows.store import FlowStore

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HOST_COUNTS = (200, 600, 1500)
FLOWS_PER_HOST = 150


def synthesize_store(n_hosts: int, seed: int = 7) -> FlowStore:
    """Campus-shaped traffic: mixed failure states, skewed host sizes,
    revisited destinations (so the interstitial path does real work)."""
    rng = random.Random(seed)
    states = [
        FlowState.ESTABLISHED,
        FlowState.ESTABLISHED,
        FlowState.ESTABLISHED,
        FlowState.REJECTED,
        FlowState.TIMEOUT,
    ]
    flows: List[FlowRecord] = []
    for h in range(n_hosts):
        src = f"10.{h // 65536}.{(h // 256) % 256}.{h % 256}"
        t = rng.random() * 3600
        # Lognormal-ish skew: a few busy hosts, many light ones.
        n_flows = max(2, int(FLOWS_PER_HOST * rng.paretovariate(2.0) / 2))
        n_flows = min(n_flows, FLOWS_PER_HOST * 4)
        for i in range(n_flows):
            t += rng.expovariate(1 / 45.0)
            flows.append(
                FlowRecord(
                    src=src,
                    dst=f"192.168.{rng.randrange(40)}.{rng.randrange(250)}",
                    sport=1024 + i % 60000,
                    dport=rng.choice((80, 443, 6881)),
                    proto=Protocol.TCP,
                    start=t,
                    end=t + rng.random() * 5,
                    src_bytes=rng.randrange(0, 20000),
                    dst_bytes=rng.randrange(0, 5000),
                    state=rng.choice(states),
                )
            )
    rng.shuffle(flows)
    store = FlowStore()
    store.extend(flows)
    return store


def _best_of(fn, repeats: int) -> Dict[str, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "result": result}


def run_benchmark(
    host_counts: Sequence[int],
    out_path: Path,
    repeats: int = 3,
) -> dict:
    """Time both extractors at every scale and write the JSON report.

    Equivalence with the reference extractor is asserted at every
    scale — a speedup that changed the features would silently move the
    pipeline's percentile thresholds.
    """
    report = {
        "benchmark": "sharded feature extraction",
        "generated_by": "benchmarks/test_perf_extract.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "flows_per_host_base": FLOWS_PER_HOST,
        "results": [],
    }
    for n_hosts in host_counts:
        store = synthesize_store(n_hosts)
        sequential = _best_of(lambda: extract_all_features(store), repeats)
        inproc = _best_of(lambda: extract_features_sharded(store), repeats)
        if inproc["result"] != sequential["result"]:
            raise AssertionError(
                f"inprocess_vectorized diverges from sequential at {n_hosts} hosts"
            )
        modes = {"sequential": sequential, "inprocess_vectorized": inproc}
        entry = {
            "n_hosts": n_hosts,
            "n_flows": len(store),
            "modes": {
                name: {
                    "seconds": run["seconds"],
                    "speedup_vs_sequential": sequential["seconds"] / run["seconds"],
                }
                for name, run in modes.items()
            },
        }
        report["results"].append(entry)
        print(
            f"n_hosts={n_hosts:5d} flows={len(store):8d}  "
            f"seq={sequential['seconds']:7.3f}s  "
            f"inproc={inproc['seconds']:7.3f}s "
            f"({sequential['seconds'] / inproc['seconds']:5.2f}x)"
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    append_history(
        "extract_engine",
        {
            f"{mode}_seconds@n{entry['n_hosts']}": timing["seconds"]
            for entry in report["results"]
            for mode, timing in entry["modes"].items()
        },
    )
    return report


def _configured_host_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_EXTRACT_HOSTS")
    if not raw:
        return list(DEFAULT_HOST_COUNTS)
    return [int(part) for part in raw.split(",") if part.strip()]


def _configured_out_path() -> Path:
    return Path(
        os.environ.get(
            "REPRO_BENCH_EXTRACT_OUT", REPO_ROOT / "BENCH_extract.json"
        )
    )


def test_perf_extract_engine():
    """Benchmark entry point under pytest.

    Equivalence is asserted inside :func:`run_benchmark` at every
    scale; the speedups themselves are recorded, not asserted, so a
    loaded CI machine cannot flake the suite.
    """
    report = run_benchmark(_configured_host_counts(), _configured_out_path())
    assert report["results"], "benchmark produced no measurements"


if __name__ == "__main__":
    run_benchmark(_configured_host_counts(), _configured_out_path())
