#!/usr/bin/env python
"""Storage smoke test: out-of-core pipeline equals the in-memory one.

Used by the CI ``storage-smoke`` job; also runnable by hand.  Four
phases, each asserting the storage plane's contract rather than mere
survival:

**Spill ingest** — the synthetic trace is read with ``to_store=`` and a
deliberately tight ``--segment-rows``, so the trace is never
materialised in memory and the store ends up with many small segments
(the worst case for catalog overhead, the best case for pruning).

**Bit-identity** — ``find_plotters`` over the resulting
:class:`StoreView` must produce exactly the suspects, stage funnel and
features of the in-memory run.  Disk residency changes wall time,
never verdicts.

**Low-memory extraction** — features are re-extracted with a
``max_gather_rows`` budget far below the trace's row count; the
extractor sizes its shard count from the budget, so every gather stays
under it, proving the plane works when the trace does not fit the
budget whole.

**Pruning** — a host+time restricted gather must skip segments via the
zone maps (scan counters assert it) and agree with an unpruned scan.

The store manifest and a metrics JSONL land in ``--artifacts`` for CI
upload.

Usage:  python scripts/check_storage.py --artifacts storage-artifacts/
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import _checklib
from _checklib import phase

_checklib.bootstrap()

from check_chaos import synthesize_store  # noqa: E402

from repro import obs  # noqa: E402
from repro.detection.pipeline import PipelineConfig, find_plotters  # noqa: E402
from repro.flows.argus import read_flows, write_flows  # noqa: E402
from repro.flows.metrics import (  # noqa: E402
    extract_all_features,
    extract_features_sharded,
    shard_count,
)
from repro.storage import MANIFEST_NAME, SegmentStore, StoreView  # noqa: E402

SEGMENT_ROWS = 2_000


def check_spill_ingest(trace: Path, store_dir: Path, total_rows: int):
    """Read the trace straight into segments; catalog must reconcile."""
    view = read_flows(trace, to_store=store_dir, segment_rows=SEGMENT_ROWS)
    assert isinstance(view, StoreView), type(view)
    assert len(view) == total_rows, (len(view), total_rows)

    store = SegmentStore.open(store_dir)
    assert store.total_rows == total_rows
    assert store.n_segments > 1, (
        f"segment_rows={SEGMENT_ROWS} produced a single segment — "
        "the smoke test needs a multi-segment store"
    )
    print(
        f"spill ingest OK: {total_rows} rows -> {store.n_segments} segments "
        f"(generation {store.generation})"
    )
    return view


def check_bit_identity(mem_store, view) -> None:
    baseline = find_plotters(mem_store, config=PipelineConfig())
    assert not baseline.degraded, "in-memory baseline degraded"
    store_backed = find_plotters(view, config=PipelineConfig())
    assert not store_backed.degraded, (
        f"store-backed run degraded: {store_backed.degradations}"
    )
    assert store_backed.suspects == baseline.suspects, (
        "store-backed suspects differ: "
        f"{sorted(store_backed.suspects ^ baseline.suspects)}"
    )
    for stage in ("reduction", "volume", "churn", "hm"):
        assert getattr(store_backed, stage) == getattr(baseline, stage), (
            f"stage funnel diverged at {stage}"
        )
    print(
        f"bit-identity OK: {len(baseline.suspects)} suspects, "
        "full stage funnel identical from disk"
    )


def check_low_memory_extraction(mem_store, store_dir: Path) -> None:
    total = len(mem_store)
    budget = max(total // 4, 1)
    store = SegmentStore.open(store_dir)
    budgeted = StoreView(store, max_gather_rows=budget)
    features = extract_features_sharded(budgeted)
    assert features == extract_all_features(mem_store), (
        "budgeted extraction diverged from the in-memory features"
    )
    print(
        f"low-memory extraction OK: {total} rows extracted under a "
        f"{budget}-row gather budget ({shard_count(total, budget)} shards)"
    )


def check_pruning(store_dir: Path) -> None:
    store = SegmentStore.open(store_dir)
    hosts = store.hosts()
    t0 = store.t_min
    t1 = t0 + (store.t_max - t0) / 4
    target = [hosts[0]]
    pruned = store.gather(target, t0=t0, t1=t1)
    skipped = pruned.segments_pruned_time + pruned.segments_pruned_host
    assert skipped > 0, (
        f"zone maps pruned nothing over a quarter-trace window "
        f"({store.n_segments} segments)"
    )
    full = store.gather(target, t0=t0, t1=t1, prune=False)
    assert pruned.hosts == full.hosts
    assert pruned.n_rows == full.n_rows
    print(
        f"pruning OK: {skipped}/{store.n_segments} segments skipped for a "
        f"quarter-trace window, results identical to a full scan"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts",
        default="storage-artifacts",
        help="directory for the store manifest and metrics JSONL",
    )
    args = parser.parse_args()

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    mem_store = synthesize_store()
    print(f"synthetic trace: {len(mem_store)} flows")

    obs.enable()
    sink = obs.JsonlSink(str(artifacts / "metrics.jsonl"))
    obs.add_sink(sink)
    try:
        with tempfile.TemporaryDirectory(prefix="storage-") as tmp_str:
            tmp = Path(tmp_str)
            trace = tmp / "trace.csv"
            write_flows(trace, mem_store)
            store_dir = tmp / "store"

            with phase("spill ingest"):
                view = check_spill_ingest(trace, store_dir, len(mem_store))
            with phase("bit identity"):
                check_bit_identity(mem_store, view)
            with phase("low-memory extraction"):
                check_low_memory_extraction(mem_store, store_dir)
            with phase("zone-map pruning"):
                check_pruning(store_dir)

            shutil.copy(store_dir / MANIFEST_NAME, artifacts / MANIFEST_NAME)
            manifest = json.loads((store_dir / MANIFEST_NAME).read_text())
            print(
                f"manifest artifact: {len(manifest['segments'])} segments, "
                f"generation {manifest['generation']}"
            )
    finally:
        sink.write_event(obs.metrics_event())
        obs.remove_sink(sink)
        sink.close()
        obs.disable()
    print("check_storage: all assertions passed")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
