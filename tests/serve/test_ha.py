"""HA serve plane: promotion, exactly-once ingest, backpressure,
fencing, quarantine, and the close/supervisor and rebalance/ingest
races."""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.detection.pipeline import find_plotters
from repro.obs.ledger import suspects_checksum
from repro.serve import (
    BacklogFull,
    NotLeader,
    ServeConfig,
    ServeCoordinator,
    run_ha,
)
from repro.serve.journal import COORD_LOG_NAME, CoordinatorLog
from repro.storage.store import SegmentStore

from .conftest import WINDOW


def _post(url: str, body: bytes = b"{}"):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _chunks(csv_text: str, n_chunks: int):
    header, body = csv_text.split("\r\n", 1)
    rows = body.splitlines(keepends=True)
    size = max(1, len(rows) // n_chunks)
    for i in range(0, len(rows), size):
        yield (header + "\r\n" + "".join(rows[i : i + size])).encode()


def _wait(predicate, timeout: float = 45.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture()
def ha_pair(tmp_path):
    """One spool dir + a factory for coordinators over it, all reaped."""
    created = []
    spool = tmp_path / "svc"

    def make(incarnation: int = 0, start: bool = True, **overrides):
        overrides.setdefault("n_shards", 2)
        overrides.setdefault("window", WINDOW)
        config = ServeConfig(spool_dir=str(spool), **overrides)
        coordinator = ServeCoordinator(config, incarnation=incarnation)
        if start:
            coordinator.start()
        created.append(coordinator)
        return coordinator

    yield spool, make
    for coordinator in created:
        coordinator.close()


class TestPromotion:
    def test_promoted_drain_bit_identical_to_batch(
        self, ha_pair, trace_store, trace_csv
    ):
        spool, make = ha_pair
        chunks = list(_chunks(trace_csv, 8))
        half = len(chunks) // 2

        primary = make(incarnation=1)
        for seq, chunk in enumerate(chunks[:half], start=1):
            status, reply = _post(
                f"{primary.url}/ingest?client=soak&seq={seq}", chunk
            )
            assert status == 200
        # Hard stop without drain: the journal + spools are all that
        # survives, exactly as after a SIGKILL (durable acks mean
        # nothing acked lives only in coordinator memory).
        primary.close()

        standby = make(incarnation=2)
        assert standby.incarnation == 2
        assert standby.rows_ingested > 0
        # The resend of the last acked chunk deduplicates against the
        # journaled client table — the original ack comes back.
        status, reply = _post(
            f"{standby.url}/ingest?client=soak&seq={half}", chunks[half - 1]
        )
        assert status == 200
        assert reply["duplicate"] is True
        for seq, chunk in enumerate(chunks[half:], start=half + 1):
            status, reply = _post(
                f"{standby.url}/ingest?client=soak&seq={seq}", chunk
            )
            assert status == 200
            assert "duplicate" not in reply

        result, report = standby.drain()
        batch = find_plotters(trace_store, None, standby.config.pipeline)
        assert report["suspects"] == sorted(batch.suspects)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)
        assert report["rows_ingested"] == len(trace_store)
        assert report["duplicate_verdicts"] == 0
        assert report["duplicate_chunks"] == 1
        assert report["incarnation"] == 2

    def test_orphan_spool_suffix_truncated_on_resume(
        self, ha_pair, trace_store, trace_csv
    ):
        spool, make = ha_pair
        primary = make(incarnation=1, segment_rows=64)
        for seq, chunk in enumerate(_chunks(trace_csv, 4), start=1):
            _post(f"{primary.url}/ingest?client=c&seq={seq}", chunk)
        primary.close()

        # Simulate the crash window between segment cut and journal
        # append: durable rows with no chunk record.  They must be
        # truncated at promotion (the client would resend them).
        spool_dir = spool / "epoch-000"
        store = SegmentStore.open(spool_dir)
        journaled = store.total_rows
        writer = store.writer()
        for flow in list(trace_store)[:5]:
            writer.add(flow)
        writer.cut()
        assert SegmentStore.open(spool_dir).total_rows == journaled + 5

        standby = make(incarnation=2)
        assert SegmentStore.open(spool_dir).total_rows == journaled

        result, report = standby.drain()
        batch = find_plotters(trace_store, None, standby.config.pipeline)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)

    def test_resume_refuses_drained_journal(self, ha_pair, trace_csv):
        spool, make = ha_pair
        primary = make(incarnation=1)
        for seq, chunk in enumerate(_chunks(trace_csv, 2), start=1):
            _post(f"{primary.url}/ingest?client=c&seq={seq}", chunk)
        primary.drain()
        primary.close()
        with pytest.raises(RuntimeError, match="finalised report"):
            make(incarnation=2)

    def test_resume_honours_journaled_rebalance_epoch(
        self, ha_pair, trace_csv
    ):
        spool, make = ha_pair
        primary = make(incarnation=1, n_shards=2)
        chunks = list(_chunks(trace_csv, 4))
        for seq, chunk in enumerate(chunks[:2], start=1):
            _post(f"{primary.url}/ingest?client=c&seq={seq}", chunk)
        primary.rebalance(3)
        for seq, chunk in enumerate(chunks[2:], start=3):
            _post(f"{primary.url}/ingest?client=c&seq={seq}", chunk)
        primary.close()

        # Config still says 2 shards; the journaled barrier must win.
        standby = make(incarnation=2, n_shards=2)
        assert standby.epoch == 1
        assert standby.shard_map.n_shards == 3


class TestExactlyOnce:
    def test_duplicate_resend_is_idempotent(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make()
        chunk = next(_chunks(trace_csv, 4))
        status, first = _post(f"{coordinator.url}/ingest?client=c&seq=1", chunk)
        status, second = _post(
            f"{coordinator.url}/ingest?client=c&seq=1", chunk
        )
        assert second["duplicate"] is True
        assert second["rows_ok"] == first["rows_ok"]
        assert coordinator.rows_ingested == first["rows_ok"]
        assert coordinator.verdicts_doc()["duplicate_chunks"] == 1

    def test_client_without_seq_is_rejected(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make()
        chunk = next(_chunks(trace_csv, 4))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{coordinator.url}/ingest?client=c", chunk)
        assert excinfo.value.code == 400

    def test_every_ack_is_journaled_before_reply(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make()
        total = 0
        for seq, chunk in enumerate(_chunks(trace_csv, 4), start=1):
            status, reply = _post(
                f"{coordinator.url}/ingest?client=c&seq={seq}", chunk
            )
            total += reply["rows_ok"]
            state = CoordinatorLog.load_state(spool / COORD_LOG_NAME)
            assert state.applied["c"][0] == seq
            assert state.rows_ingested == total


class TestBackpressure:
    def test_backlog_over_watermark_yields_429(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make(max_backlog_rows=50)
        chunk = next(_chunks(trace_csv, 6))
        with coordinator._state_lock:
            coordinator._pending[0] = 500  # workers hopelessly behind
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{coordinator.url}/ingest?client=c&seq=1", chunk)
        assert excinfo.value.code == 429
        assert float(excinfo.value.headers["Retry-After"]) > 0
        payload = json.loads(excinfo.value.read())
        assert payload["backlog_rows"] == 500
        assert payload["max_backlog_rows"] == 50
        # Nothing was spooled or journaled for the rejected chunk.
        assert coordinator.rows_ingested == 0
        # Workers catch up -> the same chunk is admitted.
        with coordinator._state_lock:
            coordinator._pending[0] = 0
        status, reply = _post(
            f"{coordinator.url}/ingest?client=c&seq=1", chunk
        )
        assert status == 200
        assert "duplicate" not in reply

    def test_backlog_drains_as_workers_ack(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make(max_backlog_rows=100_000)
        for seq, chunk in enumerate(_chunks(trace_csv, 4), start=1):
            _post(f"{coordinator.url}/ingest?client=c&seq={seq}", chunk)
        assert _wait(lambda: coordinator.backlog_rows() == 0)

    def test_direct_ingest_raises_backlog_full(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make(max_backlog_rows=10)
        with coordinator._state_lock:
            coordinator._pending[0] = 11
        with pytest.raises(BacklogFull) as excinfo:
            coordinator.ingest(
                next(_chunks(trace_csv, 6)).decode(), client="c", seq=1
            )
        assert excinfo.value.retry_after >= 0.2


class TestFencing:
    def test_fenced_coordinator_answers_409(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make()
        chunk = next(_chunks(trace_csv, 6))
        coordinator.fence_guard = lambda: False
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{coordinator.url}/ingest?client=c&seq=1", chunk)
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["not_leader"] is True
        assert coordinator.rows_ingested == 0
        coordinator.fence_guard = lambda: True
        status, _ = _post(f"{coordinator.url}/ingest?client=c&seq=1", chunk)
        assert status == 200

    def test_direct_ingest_raises_not_leader(self, ha_pair, trace_csv):
        spool, make = ha_pair
        coordinator = make()
        coordinator.fence_guard = lambda: False
        with pytest.raises(NotLeader):
            coordinator.ingest(
                next(_chunks(trace_csv, 6)).decode(), client="c", seq=1
            )


class TestCloseSupervisorRace:
    def test_restart_worker_refuses_once_draining(self, ha_pair):
        """Satellite regression: a supervisor pass that saw a dead
        worker just before close() must not respawn it behind the
        shutdown."""
        spool, make = ha_pair
        coordinator = make(n_shards=1)
        worker = coordinator._workers[0]
        worker.process.kill()
        worker.process.join(timeout=10.0)
        # close() sets these before stopping workers; the interleaved
        # supervisor pass then runs _restart_worker under the lock.
        coordinator._draining.set()
        with coordinator._lock:
            coordinator._restart_worker(worker)
        assert coordinator._workers[0] is worker  # no replacement spawned
        assert coordinator.restarts == 0
        coordinator.close()

    def test_no_live_workers_survive_close(self, ha_pair):
        spool, make = ha_pair
        coordinator = make(n_shards=2)
        victim = coordinator._workers[0]
        pids = [w.process for w in coordinator._workers.values()]
        victim.process.kill()  # die right as close() begins
        coordinator.close()
        # Give a hypothetical leaked supervisor pass time to misbehave.
        time.sleep(0.3)
        assert all(not p.is_alive() for p in pids)
        assert all(w.retired for w in coordinator._workers.values())


class TestQuarantine:
    def test_poisoned_shard_quarantined_not_crashlooped(
        self, ha_pair, trace_store, trace_csv
    ):
        spool, make = ha_pair
        coordinator = make(n_shards=2, respawn_max_failures=1)
        chunks = list(_chunks(trace_csv, 4))
        for seq, chunk in enumerate(chunks[:2], start=1):
            _post(f"{coordinator.url}/ingest?client=c&seq={seq}", chunk)
        os.kill(coordinator._workers[0].process.pid, signal.SIGKILL)
        assert _wait(lambda: 0 in coordinator._quarantined)
        doc = coordinator.shards_doc()
        assert doc["quarantined"] == [0]
        assert coordinator.restarts == 0  # breaker opened, no respawn
        assert coordinator.guard.degraded

        # The quarantined shard keeps spooling: ingest still succeeds
        # and the drain rescore covers every row bit-identically.
        for seq, chunk in enumerate(chunks[2:], start=3):
            status, _ = _post(
                f"{coordinator.url}/ingest?client=c&seq={seq}", chunk
            )
            assert status == 200
        result, report = coordinator.drain()
        batch = find_plotters(trace_store, None, coordinator.config.pipeline)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)
        assert report["quarantined_shards"] == [0]
        assert any("quarantined" in d for d in report["degradations"])


class TestRebalanceIngestRace:
    @pytest.mark.parametrize("rebalance_delay", [0.0, 0.08])
    def test_concurrent_rebalance_loses_no_rows(
        self, ha_pair, trace_store, trace_csv, rebalance_delay
    ):
        """Satellite: POST /rebalance racing /ingest across the epoch
        barrier must neither drop nor duplicate a row."""
        spool, make = ha_pair
        coordinator = make(n_shards=2)
        chunks = list(_chunks(trace_csv, 10))
        acked = {0: 0, 1: 0}
        errors = []

        def ingester(worker_id, my_chunks):
            try:
                for seq, chunk in enumerate(my_chunks, start=1):
                    reply = coordinator.ingest(
                        chunk.decode(),
                        client=f"c{worker_id}",
                        seq=seq,
                    )
                    acked[worker_id] += reply["rows_ok"]
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=ingester, args=(0, chunks[0::2])),
            threading.Thread(target=ingester, args=(1, chunks[1::2])),
        ]
        for thread in threads:
            thread.start()
        time.sleep(rebalance_delay)
        coordinator.rebalance(3)
        for thread in threads:
            thread.join()
        assert not errors
        assert acked[0] + acked[1] == len(trace_store)

        # The journal agrees with the acks, across the barrier.
        state = CoordinatorLog.load_state(spool / COORD_LOG_NAME)
        assert state.rows_ingested == len(trace_store)
        assert state.epoch == 1

        result, report = coordinator.drain()
        batch = find_plotters(trace_store, None, coordinator.config.pipeline)
        assert report["suspects"] == sorted(batch.suspects)
        assert report["suspects_sha256"] == suspects_checksum(batch.suspects)
        assert report["rows_rescored"] == len(trace_store)
        assert report["duplicate_verdicts"] == 0


class TestRunHA:
    def test_single_node_acquires_serves_drains(self, tmp_path, trace_csv):
        config = ServeConfig(
            spool_dir=str(tmp_path / "svc"),
            n_shards=2,
            window=WINDOW,
            lease_ttl=1.0,
        )
        shutdown = threading.Event()
        outcome = {}

        def node():
            outcome["result"] = run_ha(config, shutdown=shutdown)

        thread = threading.Thread(target=node)
        thread.start()
        try:
            discovery = tmp_path / "svc" / "serve.json"
            assert _wait(discovery.exists)
            doc = json.loads(discovery.read_text())
            assert doc["role"] == "primary"
            assert doc["incarnation"] == 1
            for seq, chunk in enumerate(_chunks(trace_csv, 3), start=1):
                status, _ = _post(
                    f"{doc['url']}/ingest?client=c&seq={seq}", chunk
                )
                assert status == 200
        finally:
            shutdown.set()
            thread.join(timeout=90.0)
        assert not thread.is_alive()
        result, report = outcome["result"]
        assert report["incarnation"] == 1
        # The terminal record + lease release ended the contention.
        state = CoordinatorLog.load_state(tmp_path / "svc" / COORD_LOG_NAME)
        assert state.drained
        history = (tmp_path / "svc" / "ha" / "lease-history.jsonl").read_text()
        events = [json.loads(line)["event"] for line in history.splitlines()]
        assert events == ["acquired", "released"]

    def test_standby_stands_down_over_drained_journal(self, tmp_path):
        spool = tmp_path / "svc"
        spool.mkdir()
        with CoordinatorLog(spool / COORD_LOG_NAME) as log:
            log.append({"kind": "drained"})
        config = ServeConfig(
            spool_dir=str(spool), n_shards=1, window=WINDOW
        )
        assert run_ha(config) is None
