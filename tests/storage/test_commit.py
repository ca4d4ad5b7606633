"""Crash ordering of the rename commit.

A segment's atomic rename is its catalog commit: ``manifest.json`` is a
snapshot, rewritten only when the catalog changes shape, and
:meth:`SegmentStore.open` reads it and then the unbroken run of
``seg-<next_id>…`` files committed after it.  These pin what a reopen
sees after every interleaving that matters: each append, a leftover
temp file, a lost segment, a compaction or truncation cut short, a
store written before the rename commit, and what a commit costs.
"""

import json
import os
import shutil
import urllib.request

import numpy as np
import pytest

from repro.flows.argus import dumps
from repro.flows.record import FlowRecord, FlowState, Protocol
from repro.serve import ServeConfig, ServeCoordinator
from repro.storage import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SegmentStore,
    StorageError,
    write_segment,
)
from repro.storage.store import MANIFEST_VERSION


def append_segment(store, index, rows=3):
    """Commit one segment of ``rows`` rows (hosts and destinations
    vary with ``index``)."""
    writer = store.writer()
    for i in range(rows):
        writer.append(
            f"10.0.0.{(index + i) % 5}",
            f"192.0.2.{(3 * index + i) % 7}",
            10.0 * index + i,
            100 * index + i,
            (index + i) % 3 != 0,
        )
    writer.cut()


def catalog(store):
    return (
        [meta.to_json() for meta in store.metas],
        store.generation,
        store.total_rows,
    )


def assert_same_gather(a, b):
    assert a.hosts == b.hosts
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.src_bytes, b.src_bytes)
    np.testing.assert_array_equal(a.success, b.success)
    assert [a.dsts[c] for c in a.dst_codes] == [b.dsts[c] for c in b.dst_codes]


class Killed(Exception):
    """Stands in for the process dying at the injected point."""


def test_reopen_after_each_append_gives_the_writers_catalog(tmp_path):
    store = SegmentStore.create(tmp_path / "store")
    assert catalog(SegmentStore.open(store.directory)) == catalog(store)
    for index in range(6):
        append_segment(store, index, rows=index + 1)
        assert catalog(SegmentStore.open(store.directory)) == catalog(store)
    assert store.generation == 6
    assert store.total_rows == sum(range(1, 7))


def test_leftover_tmp_never_joins_the_catalog(tmp_path):
    store = SegmentStore.create(tmp_path / "store")
    append_segment(store, 0)
    append_segment(store, 1)
    # A crash inside atomic_write leaves the next segment under its
    # temp name, complete or torn; neither is committed.
    complete = store.directory / f"seg-000002.rseg.{os.getpid() + 1}.tmp"
    shutil.copy(store.directory / store.metas[0].name, complete)
    torn = store.directory / f"seg-000002.rseg.{os.getpid() + 2}.tmp"
    torn.write_bytes(complete.read_bytes()[:20])
    reopened = SegmentStore.open(store.directory)
    assert catalog(reopened) == catalog(store)
    append_segment(reopened, 2)
    assert SegmentStore.open(store.directory).n_segments == 3


@pytest.mark.parametrize("repair", [False, True])
def test_a_gap_in_the_run_raises(tmp_path, repair):
    store = SegmentStore.create(tmp_path / "store")
    for index in range(3):
        append_segment(store, index)
    (store.directory / "seg-000001.rseg").unlink()
    with pytest.raises(StorageError, match="seg-000001.rseg: committed segment is missing"):
        SegmentStore.open(store.directory, repair=repair)


def test_compact_killed_before_its_snapshot_loses_and_duplicates_no_row(
    tmp_path, monkeypatch
):
    store = SegmentStore.create(tmp_path / "store")
    for index in range(6):
        append_segment(store, index, rows=2)
    before = store.gather()
    rows = store.total_rows

    real_save = SegmentStore._save_snapshot
    saves = []

    def dies_at_second_save(self):
        saves.append(self.generation)
        if len(saves) == 2:
            raise Killed
        real_save(self)

    monkeypatch.setattr(SegmentStore, "_save_snapshot", dies_at_second_save)
    with pytest.raises(Killed):
        store.compact(min_rows=4, target_rows=8)
    monkeypatch.undo()

    # The merged segments were written (under ids the first snapshot
    # reserved) but never catalogued.
    on_disk = sorted(p.name for p in store.directory.glob("*.rseg"))
    assert len(on_disk) > 6
    reopened = SegmentStore.open(store.directory)
    assert reopened.n_segments == 6
    assert reopened.total_rows == rows
    assert_same_gather(reopened.gather(), before)

    # The orphans stay inert: appends and a finished compaction go on.
    append_segment(reopened, 6, rows=2)
    assert reopened.compact(min_rows=4, target_rows=8) > 0
    again = SegmentStore.open(store.directory)
    assert again.total_rows == rows + 2
    assert catalog(again) == catalog(reopened)


def test_truncate_whose_unlinks_fail_keeps_dropped_segments_out(
    tmp_path, monkeypatch
):
    store = SegmentStore.create(tmp_path / "store")
    for index in range(4):
        append_segment(store, index)

    def unlink_fails(path, *args, **kwargs):
        raise OSError("injected unlink failure")

    monkeypatch.setattr(os, "unlink", unlink_fails)
    assert store.truncate_rows(6) == 6
    monkeypatch.undo()

    assert len(list(store.directory.glob("*.rseg"))) == 4
    reopened = SegmentStore.open(store.directory)
    assert reopened.total_rows == 6
    assert [m.name for m in reopened.metas] == [
        "seg-000000.rseg",
        "seg-000001.rseg",
    ]
    append_segment(reopened, 4)
    assert reopened.metas[-1].name == "seg-000004.rseg"
    assert catalog(SegmentStore.open(store.directory)) == catalog(reopened)


@pytest.fixture()
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls (without making them)."""
    calls = []
    monkeypatch.setattr(os, "fsync", calls.append)
    return calls


def test_the_500th_append_costs_what_the_first_does(tmp_path, fsyncs):
    store = SegmentStore.create(tmp_path / "store")
    manifest = store.directory / MANIFEST_NAME
    snapshot = manifest.read_bytes()
    stat = manifest.stat()

    fsyncs.clear()
    append_segment(store, 0, rows=1)
    assert len(fsyncs) == 2  # the segment file and its directory
    for index in range(1, 499):
        append_segment(store, index, rows=1)
    fsyncs.clear()
    append_segment(store, 499, rows=1)
    assert len(fsyncs) == 2
    assert store.n_segments == 500

    assert manifest.read_bytes() == snapshot
    after = manifest.stat()
    assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    assert SegmentStore.open(store.directory).total_rows == 500


def test_a_two_shard_ingest_makes_three_fsyncs(tmp_path, monkeypatch):
    flows = [
        FlowRecord(
            src=f"10.0.0.{i}",
            dst="192.0.2.1",
            sport=1024,
            dport=80,
            proto=Protocol.TCP,
            start=float(i),
            end=float(i),
            src_bytes=100,
            state=FlowState.ESTABLISHED,
        )
        for i in range(20)
    ]
    config = ServeConfig(spool_dir=str(tmp_path / "svc"), n_shards=2, window=1e9)
    coordinator = ServeCoordinator(config)
    coordinator.start()
    try:
        calls = []
        monkeypatch.setattr(os, "fsync", calls.append)
        request = urllib.request.Request(
            coordinator.url + "/ingest", data=dumps(flows).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            reply = json.loads(response.read())
        monkeypatch.undo()
    finally:
        coordinator.close()
    assert reply["rows_ok"] == 20
    assert len(reply["shards"]) == 2
    # One segment cut for both shards (file + directory) and one
    # journal append.
    assert len(calls) == 3


def test_a_store_written_before_the_rename_commit_opens_unchanged(tmp_path):
    # The layout the manifest-per-append build wrote: every segment
    # catalogued, version 1 (then equal to the segment format's).
    directory = tmp_path / "store"
    directory.mkdir()
    metas = [
        write_segment(
            directory / f"seg-{i:06d}.rseg",
            starts=np.array([1.0 + i, 0.5 + i]),
            src_bytes=np.array([10, 20], dtype=np.int64),
            success=np.array([1, 0], dtype=np.uint8),
            src_codes=np.array([0, 1], dtype=np.int32),
            dst_codes=np.array([0, 0], dtype=np.int32),
            hosts=["a", f"b{i}"],
            dsts=["x"],
        )
        for i in range(2)
    ]
    manifest = {
        "format": "repro-segment-store",
        "version": 1,
        "generation": 2,
        "next_id": 2,
        "segments": [meta.to_json() for meta in metas],
    }
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written = path.read_bytes()

    for repair in (False, True):
        store = SegmentStore.open(directory, repair=repair)
        assert store.metas == metas
        assert (store.generation, store.total_rows) == (2, 4)
        assert path.read_bytes() == written

    # The first append rewrites the snapshot at the current version
    # before its segment lands, so no older build reads it partially.
    append_segment(store, 2)
    assert json.loads(path.read_text())["version"] == MANIFEST_VERSION
    assert catalog(SegmentStore.open(directory)) == catalog(store)
    assert store.metas[:2] == metas


def test_the_snapshot_version_is_apart_from_the_segment_format(tmp_path):
    store = SegmentStore.create(tmp_path / "store")
    append_segment(store, 0)
    snapshot = json.loads((store.directory / MANIFEST_NAME).read_text())
    assert snapshot["version"] == MANIFEST_VERSION != FORMAT_VERSION
    header = (store.directory / "seg-000000.rseg").read_bytes()[:6]
    assert header == b"RSEG" + bytes([FORMAT_VERSION]) + b"\n"

    # A build that read only the snapshot checked its version against
    # the segment format's, so it refuses this store.
    def older_reader_accepts(manifest):
        return (
            manifest.get("format") == "repro-segment-store"
            and manifest.get("version") == FORMAT_VERSION
        )

    assert not older_reader_accepts(snapshot)
