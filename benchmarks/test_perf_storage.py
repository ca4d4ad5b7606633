"""Perf harness for the out-of-core segment storage plane.

Measures, at several trace scales:

* **ingest throughput** — rows/s streamed through
  :class:`repro.storage.SegmentWriter` into window-aligned segments;
* **zone-map pruning** — a host+time restricted gather with pruning on
  vs. off (identical results asserted; the speedup is what the zone
  maps buy);
* **peak RSS** — feature extraction run in *subprocess children* (one
  loads the trace into an in-memory :class:`FlowStore`, one extracts
  from the segment store under a row budget), because ``ru_maxrss`` is
  a process-lifetime high-water mark and only a fresh process can
  attribute it honestly.  Feature checksums from both children must
  match exactly.

Results go to ``BENCH_storage.json`` at the repo root so successive
PRs accumulate a trajectory.  At the largest scale (when the trace is
big enough for the comparison to mean anything) the store-backed
child's peak RSS must come in below the in-memory child's — that is
the subsystem's reason to exist.

Run directly (full sweep)::

    PYTHONPATH=src python benchmarks/test_perf_storage.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_storage.py -q

Environment knobs:

* ``REPRO_BENCH_STORAGE_HOSTS`` — comma-separated host counts
  (default ``100,300,800``); CI smoke runs set a small value.
* ``REPRO_BENCH_STORAGE_OUT`` — output path
  (default ``<repo>/BENCH_storage.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.storage import SegmentStore, StoreView  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from history import append_history  # noqa: E402
from test_perf_extract import synthesize_store  # noqa: E402

DEFAULT_HOST_COUNTS = (100, 300, 800)
N_WINDOWS = 32
#: Below this row count the interpreter's own footprint dominates both
#: children and the RSS comparison is noise, so it is recorded unasserted.
RSS_ASSERT_MIN_ROWS = 20_000


def features_checksum(features) -> str:
    """Order-independent exact digest of a feature mapping."""
    payload = repr(sorted(features.items())).encode()
    return hashlib.sha256(payload).hexdigest()


def build_segment_store(store, directory: Path) -> SegmentStore:
    """Spool ``store`` into window-aligned segments; return it + rows/s."""
    seg_store = SegmentStore.create(directory)
    flows = sorted(store, key=lambda f: f.start)
    t_min, t_max = flows[0].start, flows[-1].start
    width = max((t_max - t_min) / N_WINDOWS, 1e-9)
    writer = seg_store.writer(segment_rows=10**9)
    boundary = t_min + width
    for flow in flows:
        while flow.start >= boundary:
            writer.cut()
            boundary += width
        writer.add(flow)
    writer.close()
    return seg_store


def time_ingest(store, directory: Path) -> Dict[str, float]:
    t0 = time.perf_counter()
    seg_store = build_segment_store(store, directory)
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "rows_per_second": len(store) / seconds,
        "n_segments": seg_store.n_segments,
    }


def time_pruning(seg_store: SegmentStore, repeats: int = 3) -> Dict[str, float]:
    """Host+time restricted gather, pruned vs. full scan."""
    hosts = seg_store.hosts()
    target = hosts[: max(len(hosts) // 20, 1)]
    t0 = seg_store.t_min
    t1 = t0 + (seg_store.t_max - t0) / 8

    def best_of(prune: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            tick = time.perf_counter()
            gathered = seg_store.gather(target, t0=t0, t1=t1, prune=prune)
            best = min(best, time.perf_counter() - tick)
        return best, gathered

    pruned_s, pruned = best_of(True)
    full_s, full = best_of(False)
    assert pruned.hosts == full.hosts
    assert pruned.n_rows == full.n_rows, "pruning changed the gather"
    assert pruned.segments_pruned_time + pruned.segments_pruned_host > 0, (
        "zone maps pruned nothing — segments are not window-aligned?"
    )
    return {
        "pruned_seconds": pruned_s,
        "full_scan_seconds": full_s,
        "speedup": full_s / pruned_s,
        "segments_skipped": pruned.segments_pruned_time
        + pruned.segments_pruned_host,
        "segments_total": seg_store.n_segments,
    }


def measure_child_rss(mode: str, path: Path, budget: int) -> Dict[str, object]:
    """Run one extraction in a fresh process; return its peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         str(path), str(budget)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{mode} child failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _peak_rss_kb() -> int:
    """This process's peak resident set, in kB.

    ``VmHWM`` is per-address-space and so reset by ``execve`` — unlike
    ``ru_maxrss``, which lives in the signal struct, survives exec, and
    would report the *benchmark parent's* peak from inside a child it
    spawned.  Fall back to ``ru_maxrss`` only where /proc is absent.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _child_main(mode: str, path: str, budget: int) -> int:
    from repro.flows.argus import read_flows
    from repro.flows.metrics import extract_all_features, extract_features_sharded

    if mode == "memory":
        store = read_flows(path)
        features = extract_all_features(store)
    elif mode == "store":
        seg_store = SegmentStore.open(path)
        view = StoreView(seg_store, max_gather_rows=budget)
        features = extract_features_sharded(view)
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    print(
        json.dumps(
            {
                "ru_maxrss_kb": _peak_rss_kb(),
                "checksum": features_checksum(features),
            }
        )
    )
    return 0


def run_benchmark(
    host_counts: Sequence[int], out_path: Path, work_dir: Path
) -> dict:
    from repro.flows.argus import write_flows

    report = {
        "benchmark": "out-of-core segment storage plane",
        "generated_by": "benchmarks/test_perf_storage.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "n_windows": N_WINDOWS,
        "results": [],
    }
    largest = max(host_counts)
    for n_hosts in host_counts:
        store = synthesize_store(n_hosts)
        scale_dir = work_dir / f"scale-{n_hosts}"
        scale_dir.mkdir(parents=True)
        trace = scale_dir / "trace.csv"
        write_flows(trace, store)

        ingest = time_ingest(store, scale_dir / "segments")
        seg_store = SegmentStore.open(scale_dir / "segments")
        pruning = time_pruning(seg_store)

        budget = max(len(store) // 4, 1)
        mem_child = measure_child_rss("memory", trace, 0)
        store_child = measure_child_rss(
            "store", scale_dir / "segments", budget
        )
        assert mem_child["checksum"] == store_child["checksum"], (
            f"store-backed features diverged at {n_hosts} hosts"
        )
        rss_ratio = store_child["ru_maxrss_kb"] / mem_child["ru_maxrss_kb"]
        if n_hosts == largest and len(store) >= RSS_ASSERT_MIN_ROWS:
            assert rss_ratio < 1.0, (
                f"store-backed extraction peaked at "
                f"{store_child['ru_maxrss_kb']} kB, not below the in-memory "
                f"{mem_child['ru_maxrss_kb']} kB"
            )

        entry = {
            "n_hosts": n_hosts,
            "n_flows": len(store),
            "ingest": ingest,
            "pruning": pruning,
            "peak_rss": {
                "in_memory_kb": mem_child["ru_maxrss_kb"],
                "store_backed_kb": store_child["ru_maxrss_kb"],
                "store_over_memory": rss_ratio,
                "gather_budget_rows": budget,
                "checksums_match": True,
            },
        }
        report["results"].append(entry)
        print(
            f"n_hosts={n_hosts:5d} flows={len(store):8d}  "
            f"ingest={ingest['rows_per_second']:9.0f} rows/s  "
            f"prune={pruning['speedup']:5.2f}x "
            f"({pruning['segments_skipped']}/{pruning['segments_total']} "
            f"skipped)  rss mem={mem_child['ru_maxrss_kb']:7d}kB "
            f"store={store_child['ru_maxrss_kb']:7d}kB "
            f"({rss_ratio:.2f}x)"
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    history_metrics = {}
    for entry in report["results"]:
        n = entry["n_hosts"]
        history_metrics[f"ingest_seconds@n{n}"] = entry["ingest"]["seconds"]
        history_metrics[f"ingest_rows_per_s@n{n}"] = entry["ingest"][
            "rows_per_second"
        ]
        history_metrics[f"pruned_gather_seconds@n{n}"] = entry["pruning"][
            "pruned_seconds"
        ]
        history_metrics[f"full_scan_seconds@n{n}"] = entry["pruning"][
            "full_scan_seconds"
        ]
    append_history("storage_plane", history_metrics)
    return report


def _configured_host_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_STORAGE_HOSTS")
    if not raw:
        return list(DEFAULT_HOST_COUNTS)
    return [int(part) for part in raw.split(",") if part.strip()]


def _configured_out_path() -> Path:
    return Path(
        os.environ.get(
            "REPRO_BENCH_STORAGE_OUT", REPO_ROOT / "BENCH_storage.json"
        )
    )


def test_perf_storage(tmp_path):
    """Benchmark entry point under pytest.

    Feature equivalence (checksums across processes) and pruning
    effectiveness are asserted at every scale; the RSS advantage is
    asserted only at the largest scale and only once the trace is big
    enough that the interpreter baseline does not drown it.
    """
    report = run_benchmark(
        _configured_host_counts(), _configured_out_path(), tmp_path
    )
    assert report["results"], "benchmark produced no measurements"


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "--child":
        sys.exit(_child_main(sys.argv[2], sys.argv[3], int(sys.argv[4])))
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        run_benchmark(
            _configured_host_counts(), _configured_out_path(), Path(tmp)
        )
