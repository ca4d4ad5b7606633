"""One spool per epoch: each acked chunk is one segment of it, and each
worker reads its own shard's rows from the segments."""

from __future__ import annotations

import json
import time
import urllib.request
from collections import Counter

import pytest

from repro.detection.pipeline import find_plotters
from repro.flows.argus import loads
from repro.flows.streaming import _FLOWS_INGESTED
from repro.serve import CoordinatorLog, ServeConfig, ServeCoordinator
from repro.serve.journal import COORD_LOG_NAME
from repro.serve.sharding import shard_of
from repro.serve.worker import in_shard, replay_rows, segment_rows
from repro.storage import SegmentStore

from .test_coordinator import _chunks


def _post(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_each_acked_chunk_is_one_segment(make_coordinator, trace_csv, n_shards):
    coordinator = make_coordinator(n_shards=n_shards)
    spool = coordinator._epoch_dir()
    for index, chunk in enumerate(_chunks(trace_csv, 5), start=1):
        status, reply = _post(coordinator.url + "/ingest", chunk)
        assert status == 200 and reply["rows_ok"] > 0
        store = SegmentStore.open(spool)
        assert store.n_segments == index
        assert store.total_rows == coordinator.rows_ingested
    assert [d.name for d in coordinator.root.iterdir() if d.is_dir()] == [
        "epoch-000"
    ]


def test_rows_reach_their_hosts_worker_after_rebalance(
    make_coordinator, trace_store, trace_csv, monkeypatch
):
    coordinator = make_coordinator(n_shards=2, window=1e9)
    chunks = list(_chunks(trace_csv, 6))
    half = len(chunks) // 2
    for chunk in chunks[:half]:
        _post(coordinator.url + "/ingest", chunk)
    coordinator.rebalance(3)
    # Every new worker has replayed its (empty) spool share and reads
    # the inbox from here on.
    assert coordinator.evaluate(timeout=60)["replied"] == [0, 1, 2]

    acked = Counter()
    handle = coordinator._handle_message

    def record(worker, message):
        if message[0] == "ack":
            acked[message[1]] += message[4]["rows"]
        handle(worker, message)

    monkeypatch.setattr(coordinator, "_handle_message", record)
    for chunk in chunks[half:]:
        _post(coordinator.url + "/ingest", chunk)
    deadline = time.monotonic() + 60
    while coordinator.backlog_rows() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert coordinator.backlog_rows() == 0

    flows = [flow for chunk in chunks[half:] for flow in loads(chunk.decode())]

    def per_shard(items, n):
        counts = Counter(shard_of(host, n) for host in items)
        return [counts[shard] for shard in range(3)]

    rows = {n: per_shard([flow.src for flow in flows], n) for n in (2, 3)}
    hosts = {n: per_shard({flow.src for flow in flows}, n) for n in (2, 3)}
    # Under the configured 2 shards the split differs: a worker that
    # placed hosts by the config, not its epoch, would read other rows.
    assert rows[2] != rows[3] and hosts[2] != hosts[3]
    assert [acked[shard] for shard in range(3)] == rows[3]
    seen = coordinator.evaluate(timeout=60)["shards"]
    assert [seen[str(shard)]["hosts_seen"] for shard in range(3)] == hosts[3]

    result, report = coordinator.drain()
    batch = find_plotters(trace_store, None, coordinator.config.pipeline)
    assert report["suspects"] == sorted(batch.suspects)
    assert report["rows_rescored"] == len(trace_store)


def test_rows_cut_before_the_workers_boot_are_ingested_once(
    make_coordinator, trace_csv
):
    # Chunks acked while the workers are still booting are both in the
    # spool they replay and named in their inboxes: each row must still
    # reach a detector exactly once.
    before = _FLOWS_INGESTED.value()
    coordinator = make_coordinator(n_shards=2, window=1e9)
    for chunk in _chunks(trace_csv, 4):
        coordinator.ingest(chunk.decode())
    deadline = time.monotonic() + 60
    while coordinator.backlog_rows() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert coordinator.evaluate(timeout=60)["replied"] == [0, 1]
    assert _FLOWS_INGESTED.value() - before == coordinator.rows_ingested


def test_segment_reads_and_replay_split_the_spool_by_shard(
    make_coordinator, trace_csv
):
    coordinator = make_coordinator(n_shards=3, window=1e9)
    for chunk in _chunks(trace_csv, 4):
        _post(coordinator.url + "/ingest", chunk)
    store = SegmentStore.open(coordinator._epoch_dir())
    everything = replay_rows(store, in_shard(0, 1), None)
    assert len(everything) == store.total_rows
    t0 = everything[len(everything) // 2].start
    live, replayed = [], []
    for shard in range(3):
        mine = in_shard(shard, 3)
        reads = [
            row
            for meta in store.metas
            for row in segment_rows(store.directory / meta.name, mine)
        ]
        assert all(shard_of(row.src, 3) == shard for row in reads)
        live += reads
        rows = replay_rows(store, mine, t0)
        assert [row.start for row in rows] == sorted(row.start for row in rows)
        assert sorted(rows) == sorted(row for row in reads if row.start >= t0)
        replayed += rows
    assert sorted(live) == sorted(everything)
    assert sorted(replayed) == sorted(r for r in everything if r.start >= t0)


class TestPerShardLayoutRefused:
    def _start(self, spool):
        coordinator = ServeCoordinator(
            ServeConfig(spool_dir=str(spool), n_shards=2, window=300.0)
        )
        try:
            with pytest.raises(RuntimeError, match="drain it with the build"):
                coordinator.start()
        finally:
            coordinator.close()

    def test_log_with_per_shard_watermarks(self, tmp_path):
        spool = tmp_path / "svc"
        spool.mkdir()
        with CoordinatorLog(spool / COORD_LOG_NAME) as log:
            log.append({"kind": "epoch", "epoch": 0, "n_shards": 2})
            log.append(
                {
                    "kind": "chunk",
                    "client": None,
                    "seq": None,
                    "epoch": 0,
                    "rows": 3,
                    "cum": {"0": 2, "1": 1},
                    "reply": {},
                }
            )
        self._start(spool)

    def test_spool_with_shard_directories(self, tmp_path):
        spool = tmp_path / "svc"
        SegmentStore.create(spool / "epoch-000" / "shard-00")
        self._start(spool)
