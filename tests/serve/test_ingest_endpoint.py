"""The ingest endpoint: ordering under concurrency, durability, policy."""

from __future__ import annotations

import csv
import json
import random
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.flows.argus import ARGUS_COLUMNS, dumps, flow_to_row, loads
from repro.flows.record import FlowRecord, FlowState, Protocol
from repro.serve.worker import FlowRow, in_shard, segment_rows
from repro.storage import SegmentStore

HEADER = ",".join(ARGUS_COLUMNS) + "\r\n"


def _post(url: str, body: bytes):
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _host_flows(host: str, t0: float, n: int):
    return [
        FlowRecord(
            src=host,
            dst="192.168.0.1",
            sport=1024 + i,
            dport=80,
            proto=Protocol.TCP,
            start=t0 + i,
            end=t0 + i,
            src_bytes=100 + i,
            state=FlowState.ESTABLISHED,
        )
        for i in range(n)
    ]


def _csv_rows(flows) -> str:
    return dumps(flows).split("\r\n", 1)[1]


class TestConcurrentPosts:
    def test_all_rows_spooled_per_host_in_post_order(self, make_coordinator):
        # One shard so every host lands in the same spool — the
        # hardest case for interleaving.  Each thread owns one host
        # and posts its chunks in time order; the spool must hold
        # every row, and each host's gathered rows must come back in
        # exactly the posted order.
        coordinator = make_coordinator(n_shards=1, window=1e9)
        n_threads, chunks, per_chunk = 6, 5, 8
        errors = []

        def poster(index: int) -> None:
            host = f"10.9.0.{index}"
            try:
                for c in range(chunks):
                    flows = _host_flows(host, t0=1000.0 * c, n=per_chunk)
                    body = (HEADER + _csv_rows(flows)).encode()
                    status, reply = _post(coordinator.url + "/ingest", body)
                    assert status == 200
                    assert reply["rows_ok"] == per_chunk
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=poster, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        total = n_threads * chunks * per_chunk
        assert coordinator.rows_ingested == total

        # Every acked chunk is already cut: read the spool back.
        store = SegmentStore.open(coordinator._epoch_dir())
        assert store.total_rows == total
        gathered = store.gather()
        offset = 0
        for host, count in zip(gathered.hosts, gathered.counts.tolist()):
            starts = gathered.starts[offset : offset + count]
            sizes = gathered.src_bytes[offset : offset + count]
            offset += count
            assert count == chunks * per_chunk
            # Posted order: chunk-major, start-ascending within chunks —
            # globally start-ascending by construction.
            expected = np.array(
                [1000.0 * c + i for c in range(chunks) for i in range(per_chunk)]
            )
            np.testing.assert_array_equal(starts, expected)
            np.testing.assert_array_equal(
                sizes, np.array([100 + i for c in range(chunks) for i in range(per_chunk)])
            )

    def test_shard_routing_matches_shard_map(self, make_coordinator):
        coordinator = make_coordinator(n_shards=3, window=1e9)
        hosts = [f"10.8.0.{i}" for i in range(12)]
        flows = [flow for host in hosts for flow in _host_flows(host, 0.0, 3)]
        body = (HEADER + _csv_rows(flows)).encode()
        status, reply = _post(coordinator.url + "/ingest", body)
        assert status == 200
        expected = {}
        for host in hosts:
            shard = coordinator.shard_map.shard_of(host)
            expected[shard] = expected.get(shard, 0) + 3
        assert {int(k): v for k, v in reply["shards"].items()} == expected


class TestIngestPolicy:
    def test_malformed_rows_are_skipped_not_fatal(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1, window=1e9)
        good = _csv_rows(_host_flows("10.7.0.1", 0.0, 4))
        body = (HEADER + good + "this,is,not,a,flow\r\n" + good).encode()
        status, reply = _post(coordinator.url + "/ingest", body)
        assert status == 200
        assert reply["rows_ok"] == 8
        assert reply["rows_bad"] == 1
        assert coordinator.rows_ingested == 8

    @staticmethod
    def _torn_body(good: str) -> bytes:
        # A torn row whose unterminated quote swallows the next lines
        # until its field passes csv.field_size_limit: the tokenizer
        # raises csv.Error, not ValueError, and resumes after it.
        filler = "y" * (csv.field_size_limit() // 2 + 10)
        torn = f'1.0,"torn\r\n{filler}\r\n{filler}\r\n'
        return (HEADER + good + torn + good).encode()

    def test_tokenizer_error_is_one_malformed_row(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1, window=1e9)
        good = _csv_rows(_host_flows("10.7.0.2", 0.0, 4))
        status, reply = _post(coordinator.url + "/ingest", self._torn_body(good))
        assert status == 200
        assert (reply["rows_ok"], reply["rows_bad"]) == (8, 1)
        assert coordinator.rows_ingested == 8

    def test_tokenizer_error_is_400_under_strict(self, make_coordinator):
        coordinator = make_coordinator(
            n_shards=1, window=1e9, on_parse_error="strict"
        )
        good = _csv_rows(_host_flows("10.7.0.3", 0.0, 4))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(coordinator.url + "/ingest", self._torn_body(good))
        assert excinfo.value.code == 400
        assert coordinator.rows_ingested == 0

    @staticmethod
    def _non_finite_bodies(host: str):
        # ``float`` parses these and ``end < start`` is false for NaN;
        # each is one malformed row after four good ones.
        good = _csv_rows(_host_flows(host, 0.0, 4))
        for value in ("nan", "inf", "-inf"):
            row = flow_to_row(_host_flows(host, 50.0, 1)[0])
            row[ARGUS_COLUMNS.index("start")] = value
            yield (HEADER + good + ",".join(row) + "\r\n").encode()

    def test_non_finite_time_is_one_malformed_row(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1, window=1e9)
        for body in self._non_finite_bodies("10.7.0.5"):
            status, reply = _post(coordinator.url + "/ingest", body)
            assert status == 200
            assert (reply["rows_ok"], reply["rows_bad"]) == (4, 1)
        assert coordinator.rows_ingested == 12

    def test_non_finite_time_is_400_under_strict(self, make_coordinator):
        coordinator = make_coordinator(
            n_shards=1, window=1e9, on_parse_error="strict"
        )
        for body in self._non_finite_bodies("10.7.0.6"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(coordinator.url + "/ingest", body)
            assert excinfo.value.code == 400
        assert coordinator.rows_ingested == 0

    def test_count_beyond_int64_does_not_poison_the_shard(
        self, make_coordinator
    ):
        # Spool columns are int64: the oversized count is a malformed
        # row, so neither this chunk nor later clean ones fail on it.
        coordinator = make_coordinator(n_shards=1, window=1e9)
        huge = flow_to_row(_host_flows("10.7.0.4", 50.0, 1)[0])
        huge[ARGUS_COLUMNS.index("src_bytes")] = str(10**20)
        for c, extra in enumerate(["", ",".join(huge) + "\r\n", ""]):
            good = _csv_rows(_host_flows("10.7.0.4", 10.0 * c, 4))
            status, reply = _post(
                coordinator.url + "/ingest", (HEADER + extra + good).encode()
            )
            assert status == 200
            assert (reply["rows_ok"], reply["rows_bad"]) == (4, 1 if extra else 0)
        assert SegmentStore.open(coordinator._epoch_dir()).total_rows == 12

    def test_empty_body_is_400(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(coordinator.url + "/ingest", b"")
        assert excinfo.value.code == 400

    def test_ingest_refused_while_draining(self, make_coordinator):
        coordinator = make_coordinator(n_shards=1)
        coordinator._draining.set()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                coordinator.url + "/ingest",
                (HEADER + _csv_rows(_host_flows("10.6.0.1", 0.0, 2))).encode(),
            )
        assert excinfo.value.code == 503


def row_of(flow) -> FlowRow:
    """What a worker should read for ``flow``."""
    return FlowRow(flow.src, flow.dst, flow.start, flow.src_bytes, flow.state.failed)


class TestColumnarIngest:
    def test_worker_batches_equal_row_of_over_loads(
        self, make_coordinator, monkeypatch
    ):
        # The coordinator decodes a chunk to columns and never builds a
        # record; the rows each shard's worker reads from the chunk's
        # segment must still be exactly the projection of the flows
        # loads() parses — same rows, same order (loads() orders by
        # start), same types.
        coordinator = make_coordinator(n_shards=3, window=1e9)
        sent = {}
        for shard, worker in coordinator._workers.items():

            def put(message, _shard=shard, _put=worker.inbox.put):
                if message[0] == "flows":
                    sent.setdefault(_shard, []).append(message[2])
                _put(message)

            monkeypatch.setattr(worker.inbox, "put", put)
        spool = coordinator._epoch_dir()
        rng = random.Random(5)
        hosts = [f"10.5.0.{i}" for i in range(12)]
        huge = flow_to_row(_host_flows("10.5.0.1", 0.0, 1)[0])
        huge[ARGUS_COLUMNS.index("src_bytes")] = str(2**63)
        for c in range(3):
            flows = []
            for _ in range(300):
                start = round(rng.uniform(0.0, 100.0), 1)  # ties + disorder
                flows.append(
                    FlowRecord(
                        src=rng.choice(hosts),
                        dst=f"192.168.1.{rng.randrange(9)}",
                        sport=1024,
                        dport=80,
                        proto=Protocol.TCP,
                        start=1000.0 * c + start,
                        end=1000.0 * c + start + 1.0,
                        src_bytes=rng.randrange(10**6),
                        state=rng.choice(list(FlowState)),
                    )
                )
            text = dumps(flows) + "not,a,flow\r\n" + ",".join(huge) + "\r\n"
            sent.clear()
            reply = coordinator.ingest(text)
            expected = {}
            for flow in loads(text, errors="skip"):
                shard = coordinator.shard_map.shard_of(flow.src)
                expected.setdefault(shard, []).append(row_of(flow))
            got = {}
            for shard, [(name, rows)] in sent.items():
                got[shard] = segment_rows(spool / name, in_shard(shard, 3))
                assert rows == len(got[shard])
            assert got == expected
            assert {
                shard: [tuple(map(type, row)) for row in rows]
                for shard, rows in got.items()
            } == {
                shard: [tuple(map(type, row)) for row in rows]
                for shard, rows in expected.items()
            }
            assert (reply["rows_ok"], reply["rows_bad"]) == (300, 2)
            assert reply["shards"] == {
                str(shard): len(rows) for shard, rows in sorted(expected.items())
            }
