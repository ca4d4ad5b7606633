"""Perf harness for the resident service's ingest path.

Measures rows/s through the *live* ``POST /ingest`` endpoint of a real
:class:`repro.serve.ServeCoordinator` — HTTP parse, CSV decode, the
durable spool append, and the worker hand-off all included — which is
the rate the paper's ~5000 flows/s border deployment has to clear.
The window is set far beyond the trace span so the measurement
isolates steady-state ingest (no mid-run clustering evaluations), and
after the timed section the coordinator's row accounting must
reconcile exactly with what was posted.

Two measurements ship in one report:

* **durable ingest** — the one ack path: each chunk's segment cut
  into the epoch spool plus its coordinator-journal fsync inside every
  ack (``http_ingest_durable_rows_per_s@serve``).
* **backpressure sweep** — durable ingest under admission control with
  the backlog watermark at 50% / 90% of a chunk and a *saturated*
  (10%) setting, driven through :class:`repro.serve.ServeClient` so
  429 + ``Retry-After`` handling is the real client discipline.  Every
  row must still land exactly once; the sweep records goodput and the
  429 count per level.

Results go to ``BENCH_serve.json`` at the repo root and one dated
entry lands in ``BENCH_HISTORY.jsonl`` under the ``@serve`` scale key,
where ``scripts/check_bench_regression.py`` gates the throughput
series against its trailing median.

Run directly (full sweep)::

    PYTHONPATH=src python benchmarks/test_perf_serve.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -q

Environment knobs:

* ``REPRO_BENCH_SERVE_ROWS`` — total rows to post (default ``40000``);
  CI smoke runs set a small value.
* ``REPRO_BENCH_SERVE_SHARDS`` — worker processes (default ``2``).
* ``REPRO_BENCH_SERVE_CHUNK`` — rows per POST (default ``2000``),
  the batch size a collector would ship.
* ``REPRO_BENCH_SERVE_BP_ROWS`` — rows per backpressure level
  (default: ``REPRO_BENCH_SERVE_ROWS`` capped at ``10000`` — each
  saturated chunk deliberately stalls on Retry-After).
* ``REPRO_BENCH_SERVE_OUT`` — output path
  (default ``<repo>/BENCH_serve.json``).
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from history import append_history  # noqa: E402

from repro.flows.argus import ARGUS_COLUMNS, dumps  # noqa: E402
from repro.flows.record import FlowRecord, FlowState, Protocol  # noqa: E402

DEFAULT_ROWS = 40_000
DEFAULT_SHARDS = 2
DEFAULT_CHUNK = 2_000
N_HOSTS = 64

#: Backpressure sweep levels: watermark as a fraction of one chunk.
#: "saturated" forces a near-full drain between consecutive posts.
BACKPRESSURE_LEVELS = (("w50", 0.5), ("w90", 0.9), ("saturated", 0.1))

HEADER = ",".join(ARGUS_COLUMNS) + "\r\n"


def synthesize_rows(n_rows: int) -> list:
    """``n_rows`` deterministic flows over ``N_HOSTS`` sources."""
    flows = []
    for i in range(n_rows):
        host = i % N_HOSTS
        flows.append(
            FlowRecord(
                src=f"10.1.{host // 256}.{host % 256}",
                dst=f"192.168.0.{i % 16}",
                sport=1024 + i % 40_000,
                dport=80,
                proto=Protocol.TCP,
                start=float(i) / 100.0,
                end=float(i) / 100.0 + 0.5,
                src_bytes=64 + i % 1400,
                state=FlowState.ESTABLISHED
                if i % 3
                else FlowState.TIMEOUT,
            )
        )
    return flows


def chunk_bodies(flows, chunk_rows: int) -> list:
    """Pre-encoded CSV POST bodies (encoding excluded from the timing)."""
    rows = dumps(flows).split("\r\n", 1)[1].splitlines(keepends=True)
    return [
        (HEADER + "".join(rows[i : i + chunk_rows])).encode()
        for i in range(0, len(rows), chunk_rows)
    ]


def time_http_ingest(n_rows: int, n_shards: int, chunk_rows: int, work_dir):
    from repro.serve import ServeConfig, ServeCoordinator

    bodies = chunk_bodies(synthesize_rows(n_rows), chunk_rows)
    config = ServeConfig(
        spool_dir=str(Path(work_dir) / "spool-durable"),
        n_shards=n_shards,
        window=1e12,  # never tumble mid-measurement
    )
    coordinator = ServeCoordinator(config)
    coordinator.start()
    try:
        url = coordinator.url + "/ingest"
        posted = 0
        t0 = time.perf_counter()
        for body in bodies:
            request = urllib.request.Request(url, data=body, method="POST")
            with urllib.request.urlopen(request, timeout=60) as resp:
                posted += json.loads(resp.read())["rows_ok"]
        seconds = time.perf_counter() - t0
        assert posted == n_rows, f"posted {posted} of {n_rows} rows"
        assert coordinator.rows_ingested == n_rows, (
            f"coordinator accounted {coordinator.rows_ingested} rows"
        )
    finally:
        coordinator.close()
    return {
        "n_rows": n_rows,
        "n_shards": n_shards,
        "chunk_rows": chunk_rows,
        "n_posts": len(bodies),
        "seconds": seconds,
        "rows_per_second": n_rows / seconds,
    }


def time_backpressure(n_rows: int, n_shards: int, chunk_rows: int, work_dir):
    """Durable ingest under each admission-control watermark level.

    Uses the real :class:`~repro.serve.client.ServeClient` (seq-keyed
    chunks, Retry-After honoured) so the measured goodput is what a
    well-behaved collector sees, not what a hammering loop would.
    """
    from repro.resilience import RetryPolicy
    from repro.serve import ServeClient, ServeConfig, ServeCoordinator

    bodies = chunk_bodies(synthesize_rows(n_rows), chunk_rows)
    levels = {}
    for name, fraction in BACKPRESSURE_LEVELS:
        watermark = max(1, int(chunk_rows * fraction))
        config = ServeConfig(
            spool_dir=str(Path(work_dir) / f"spool-bp-{name}"),
            n_shards=n_shards,
            window=1e12,
            max_backlog_rows=watermark,
        )
        coordinator = ServeCoordinator(config)
        coordinator.start()
        try:
            client = ServeClient(
                url=coordinator.url,
                client_id=f"bench-{name}",
                policy=RetryPolicy(
                    max_attempts=200,
                    base_delay=0.0,
                    jitter=0.0,
                    retryable=lambda exc: isinstance(exc, ConnectionError),
                ),
            )
            posted = 0
            t0 = time.perf_counter()
            for body in bodies:
                posted += client.post(body.decode())["rows_ok"]
            seconds = time.perf_counter() - t0
            assert posted == n_rows, f"posted {posted} of {n_rows} rows"
            assert coordinator.rows_ingested == n_rows, (
                f"coordinator accounted {coordinator.rows_ingested} rows "
                f"at watermark {watermark}"
            )
        finally:
            coordinator.close()
        levels[name] = {
            "max_backlog_rows": watermark,
            "watermark_fraction": fraction,
            "n_rows": n_rows,
            "seconds": seconds,
            "rows_per_second": n_rows / seconds,
            "rejected_429": client.stats["rejected_429"],
            "resent": client.stats["resent"],
        }
    return levels


def run_benchmark(n_rows: int, n_shards: int, chunk_rows: int, out_path, work_dir):
    durable = time_http_ingest(n_rows, n_shards, chunk_rows, work_dir)
    bp_rows = _configured_bp_rows()
    backpressure = time_backpressure(bp_rows, n_shards, chunk_rows, work_dir)
    report = {
        "benchmark": "resident service HTTP ingest",
        "generated_by": "benchmarks/test_perf_serve.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "durable": durable,
        "backpressure": backpressure,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"serve ingest: {durable['n_rows']} rows in {durable['n_posts']} "
        f"posts ({durable['n_shards']} shards) -> "
        f"{durable['rows_per_second']:9.0f} rows/s (durable acks)"
    )
    for name, level in backpressure.items():
        print(
            f"backpressure {name:>9} (watermark {level['max_backlog_rows']:>5}"
            f" rows): {level['rows_per_second']:9.0f} rows/s, "
            f"{level['rejected_429']} x 429"
        )
    print(f"wrote {out_path}")
    append_history(
        "serve_plane",
        {
            "http_ingest_durable_rows_per_s@serve": durable[
                "rows_per_second"
            ],
            "backpressure_saturated_rows_per_s@serve": backpressure[
                "saturated"
            ]["rows_per_second"],
        },
    )
    return report


def _configured_rows() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVE_ROWS", DEFAULT_ROWS))


def _configured_shards() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVE_SHARDS", DEFAULT_SHARDS))


def _configured_chunk() -> int:
    return int(os.environ.get("REPRO_BENCH_SERVE_CHUNK", DEFAULT_CHUNK))


def _configured_bp_rows() -> int:
    return int(
        os.environ.get(
            "REPRO_BENCH_SERVE_BP_ROWS", min(_configured_rows(), 10_000)
        )
    )


def _configured_out_path() -> Path:
    return Path(
        os.environ.get("REPRO_BENCH_SERVE_OUT", REPO_ROOT / "BENCH_serve.json")
    )


def test_perf_serve(tmp_path):
    """Benchmark entry point under pytest.

    Row accounting is asserted (every posted row acknowledged and
    counted by the coordinator); the throughput number itself is gated
    separately by the bench-regression check.
    """
    report = run_benchmark(
        _configured_rows(),
        _configured_shards(),
        _configured_chunk(),
        _configured_out_path(),
        tmp_path,
    )
    assert report["durable"]["rows_per_second"] > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        run_benchmark(
            _configured_rows(),
            _configured_shards(),
            _configured_chunk(),
            _configured_out_path(),
            Path(tmp),
        )
