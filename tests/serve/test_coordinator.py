"""Coordinator end-to-end invariants: drain ≡ batch, crash recovery,
no duplicate verdicts, rebalance epochs."""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.detection.pipeline import find_plotters
from repro.obs.ledger import suspects_checksum
from repro.resilience import faults

from .conftest import WINDOW


def _post(url: str, body: bytes = b"{}"):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _get(url: str):
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


def _chunks(csv_text: str, n_chunks: int):
    header, body = csv_text.split("\r\n", 1)
    rows = body.splitlines(keepends=True)
    size = max(1, len(rows) // n_chunks)
    for i in range(0, len(rows), size):
        yield (header + "\r\n" + "".join(rows[i : i + size])).encode()


def _wait(predicate, timeout: float = 45.0, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestDrainEqualsBatch:
    def test_drained_verdicts_bit_identical_to_batch(
        self, make_coordinator, trace_store, trace_csv
    ):
        coordinator = make_coordinator(n_shards=2)
        for chunk in _chunks(trace_csv, 6):
            status, reply = _post(coordinator.url + "/ingest", chunk)
            assert status == 200
        result, report = coordinator.drain()

        batch = find_plotters(trace_store, None, coordinator.config.pipeline)
        assert report["suspects"] == sorted(batch.suspects)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert result.suspects == batch.suspects
        assert report["rows_rescored"] == len(trace_store)
        assert report["rows_ingested"] == len(trace_store)
        assert report["windows_finalized"] > 0
        assert report["duplicate_verdicts"] == 0
        assert report["restarts"] == 0

    def test_finalized_windows_accumulate_while_live(
        self, make_coordinator, trace_csv
    ):
        coordinator = make_coordinator(n_shards=2)
        for chunk in _chunks(trace_csv, 4):
            _post(coordinator.url + "/ingest", chunk)
        # The trace spans ~5 windows; all but each shard's current one
        # finalise as ingest crosses boundaries.
        assert _wait(
            lambda: _get(coordinator.url + "/verdicts")["windows_finalized"] >= 4
        )
        doc = _get(coordinator.url + "/verdicts")
        assert doc["duplicate_verdicts"] == 0
        grid_ends = [v["evaluated_at"] for v in doc["finalized"]]
        assert all(end % WINDOW == 0 for end in grid_ends)


class TestWorkerDeathRecovery:
    def test_kill_restart_replay_no_duplicates(
        self, make_coordinator, trace_store, trace_csv, tmp_path
    ):
        sentinel = tmp_path / "kill-a-worker"
        sentinel.write_text("")
        chunks = list(_chunks(trace_csv, 8))
        mid = len(chunks) // 2

        # Workers inherit the fault knob from the environment at spawn
        # time (spawn context), so the coordinator must start inside
        # the injection scope.
        with faults.injected(serve_worker_exit_once=str(sentinel)):
            coordinator = make_coordinator(n_shards=2)
            for chunk in chunks[:mid]:
                _post(coordinator.url + "/ingest", chunk)
            # Exactly one worker claims the sentinel and hard-exits;
            # the supervisor must notice and respawn it.
            assert _wait(lambda: coordinator.restarts >= 1)
            assert _wait(
                lambda: all(
                    w["alive"] for w in _get(coordinator.url + "/shards")["workers"]
                )
            )
        assert not sentinel.exists()
        doc = _get(coordinator.url + "/shards")
        assert doc["restarts"] == 1
        assert sum(w["incarnation"] for w in doc["workers"]) == 1

        for chunk in chunks[mid:]:
            _post(coordinator.url + "/ingest", chunk)
        result, report = coordinator.drain()

        batch = find_plotters(trace_store, None, coordinator.config.pipeline)
        assert report["suspects"] == sorted(batch.suspects)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)
        assert report["restarts"] == 1
        # Restart replay must not double-report any finalised window.
        assert report["duplicate_verdicts"] == 0
        keys = [
            (v["epoch"], v["shard"], v["grid_window"])
            for v in coordinator.verdicts_doc()["finalized"]
        ]
        assert len(keys) == len(set(keys))


def _thread_cpu_seconds(native_id: int) -> float:
    """User + system CPU time of one thread of this process."""
    stat = Path(f"/proc/self/task/{native_id}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TestSupervisor:
    @pytest.mark.skipif(
        not Path("/proc/self/task").exists(), reason="needs /proc"
    )
    def test_dead_unretired_worker_does_not_spin(self, make_coordinator):
        """The supervisor sleeps on the worker outboxes; a worker that
        died and is not being replaced (the service is draining) must
        leave it asleep, not spinning on a readable handle."""
        coordinator = make_coordinator(n_shards=2)
        assert sorted(coordinator.evaluate()["replied"]) == [0, 1]
        coordinator._draining.set()  # no respawn from here on
        worker = coordinator._workers[0]
        worker.process.kill()
        worker.process.join(timeout=10)
        assert not worker.process.is_alive() and not worker.retired
        supervisor = coordinator._supervisor.native_id
        before = _thread_cpu_seconds(supervisor)
        time.sleep(1.0)
        assert _thread_cpu_seconds(supervisor) - before < 0.2
        assert not worker.retired


class TestRebalance:
    def test_rebalance_epoch_barrier_preserves_drain_identity(
        self, make_coordinator, trace_store, trace_csv
    ):
        coordinator = make_coordinator(n_shards=2)
        chunks = list(_chunks(trace_csv, 6))
        half = len(chunks) // 2
        for chunk in chunks[:half]:
            _post(coordinator.url + "/ingest", chunk)

        status, reply = _post(
            coordinator.url + "/rebalance", json.dumps({"n_shards": 3}).encode()
        )
        assert status == 200
        assert reply == {"epoch": 1, "n_shards": 3, "previous_n_shards": 2}
        doc = _get(coordinator.url + "/shards")
        assert doc["epoch"] == 1
        assert doc["n_shards"] == 3
        assert len(doc["workers"]) == 3

        for chunk in chunks[half:]:
            _post(coordinator.url + "/ingest", chunk)
        result, report = coordinator.drain()

        batch = find_plotters(trace_store, None, coordinator.config.pipeline)
        assert report["suspects"] == sorted(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)
        assert report["epochs"] == 2
        assert report["duplicate_verdicts"] == 0

    def test_rebalance_rejects_bad_count(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                coordinator.url + "/rebalance",
                json.dumps({"n_shards": 0}).encode(),
            )
        assert excinfo.value.code in (400, 409)


class TestLiveEndpoints:
    def test_evaluate_scores_current_windows(self, make_coordinator, trace_csv):
        coordinator = make_coordinator(n_shards=2)
        for chunk in _chunks(trace_csv, 3):
            _post(coordinator.url + "/ingest", chunk)
        status, reply = _post(coordinator.url + "/evaluate", b"")
        assert status == 200
        assert sorted(reply["replied"]) == [0, 1]
        assert isinstance(reply["suspects"], list)

    def test_summary_and_healthz_alongside_routes(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1)
        health = _get(coordinator.url + "/healthz")
        assert health["status"] == "ok"
        summary = _get(coordinator.url + "/summary")
        assert summary["state"]["n_shards"] == 1
