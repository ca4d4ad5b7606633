"""Segment container: round-trip, validation, and torn-file recovery.

The segment file is the durability boundary of the storage plane, so
its failure modes are pinned exhaustively: truncation at *every* byte
offset must surface as :class:`TornSegmentError` (never a numpy shape
error or a JSON traceback), in-place corruption must trip the footer
CRC, and format drift — header byte or footer schema — must raise
:class:`StorageVersionError` so old readers refuse politely.
"""

import json
import mmap
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.storage import (
    COLUMN_DTYPES,
    FORMAT_VERSION,
    SegmentStore,
    StorageVersionError,
    TornSegmentError,
    open_segment,
    read_footer,
    write_segment,
)

_TRAILER_MAGIC = b"GESR\n"
_TRAILER_STRUCT = struct.Struct("<IQ")


def small_segment(path: Path):
    """A three-host, five-row segment with known zone maps."""
    return write_segment(
        path,
        starts=np.array([5.0, 1.0, 3.0, 2.0, 4.0]),
        src_bytes=np.array([10, 20, 30, 40, 50], dtype=np.int64),
        success=np.array([1, 0, 1, 1, 0], dtype=np.uint8),
        src_codes=np.array([0, 1, 0, 2, 1], dtype=np.int32),
        dst_codes=np.array([0, 1, 0, 1, 2], dtype=np.int32),
        hosts=["a", "b", "c"],
        dsts=["x", "y", "z"],
    )


class TestRoundTrip:
    def test_columns_and_meta_survive(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        meta = small_segment(path)
        assert meta.rows == 5
        assert meta.t_min == 1.0 and meta.t_max == 5.0
        assert meta.n_hosts == 3
        assert meta.file_bytes == path.stat().st_size

        segment = open_segment(path)
        np.testing.assert_array_equal(
            segment.starts, [5.0, 1.0, 3.0, 2.0, 4.0]
        )
        np.testing.assert_array_equal(segment.src_bytes, [10, 20, 30, 40, 50])
        np.testing.assert_array_equal(segment.success, [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(segment.src_codes, [0, 1, 0, 2, 1])
        np.testing.assert_array_equal(segment.dst_codes, [0, 1, 0, 1, 2])

    def test_zone_maps_are_per_host_exact(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        segment = open_segment(path)
        assert segment.host_index == {"a": 0, "b": 1, "c": 2}
        np.testing.assert_array_equal(segment.host_rows, [2, 2, 1])
        np.testing.assert_array_equal(segment.host_t_min, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(segment.host_t_max, [5.0, 4.0, 2.0])

    def test_column_reads_are_memmaps(self, tmp_path):
        # Every column is a read-only view of the file's one memory map:
        # not copied, not writable, and the bytes at its footer offset.
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        segment = open_segment(path)
        raw = path.read_bytes()
        layout = read_footer(path)["columns"]
        mapping = segment.starts.base.obj  # a memoryview's exporter
        assert isinstance(mapping, mmap.mmap)
        for name, dtype in COLUMN_DTYPES:
            column = segment.column(name)
            assert column.base.obj is mapping
            assert not column.flags.writeable
            assert not column.flags.owndata
            offset = layout[name]["offset"]
            assert column.tobytes() == raw[offset : offset + column.nbytes]
            assert column.dtype == np.dtype(dtype)
        with pytest.raises(ValueError, match="read-only"):
            segment.starts[0] = 0.0

    def test_file_layout_is_the_documented_one(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        raw = path.read_bytes()
        assert raw.startswith(b"RSEG" + bytes([FORMAT_VERSION]) + b"\n")
        assert raw.endswith(_TRAILER_MAGIC)
        crc, length = _TRAILER_STRUCT.unpack(
            raw[-len(_TRAILER_MAGIC) - _TRAILER_STRUCT.size : -len(_TRAILER_MAGIC)]
        )
        footer = raw[
            -len(_TRAILER_MAGIC) - _TRAILER_STRUCT.size - length :
            -len(_TRAILER_MAGIC) - _TRAILER_STRUCT.size
        ]
        assert zlib.crc32(footer) == crc
        payload = json.loads(footer)
        assert payload["format"] == "repro-segment"
        assert payload["version"] == FORMAT_VERSION
        # File order is carried by the offsets (the JSON keys are sorted).
        by_offset = sorted(
            payload["columns"], key=lambda k: payload["columns"][k]["offset"]
        )
        assert by_offset == [name for name, _ in COLUMN_DTYPES]


class TestWriteValidation:
    def test_empty_segment_refused(self, tmp_path):
        with pytest.raises(ValueError, match="empty segment"):
            write_segment(
                tmp_path / "s.rseg",
                starts=np.zeros(0),
                src_bytes=np.zeros(0, dtype=np.int64),
                success=np.zeros(0, dtype=np.uint8),
                src_codes=np.zeros(0, dtype=np.int32),
                dst_codes=np.zeros(0, dtype=np.int32),
                hosts=[],
                dsts=[],
            )

    def test_ragged_columns_refused(self, tmp_path):
        with pytest.raises(ValueError, match="rows, expected"):
            write_segment(
                tmp_path / "s.rseg",
                starts=np.array([1.0, 2.0]),
                src_bytes=np.array([1], dtype=np.int64),
                success=np.array([1, 1], dtype=np.uint8),
                src_codes=np.array([0, 0], dtype=np.int32),
                dst_codes=np.array([0, 0], dtype=np.int32),
                hosts=["a"],
                dsts=["x"],
            )

    def test_rowless_host_in_string_table_refused(self, tmp_path):
        with pytest.raises(ValueError, match="own >= 1 row"):
            write_segment(
                tmp_path / "s.rseg",
                starts=np.array([1.0]),
                src_bytes=np.array([1], dtype=np.int64),
                success=np.array([1], dtype=np.uint8),
                src_codes=np.array([0], dtype=np.int32),
                dst_codes=np.array([0], dtype=np.int32),
                hosts=["a", "ghost"],
                dsts=["x"],
            )

    def test_failed_write_leaves_no_file(self, tmp_path):
        from repro.resilience import faults

        path = tmp_path / "s.rseg"
        with faults.injected(io_errors=["segment"]):
            with pytest.raises(OSError):
                small_segment(path)
        assert not path.exists()
        assert not list(tmp_path.iterdir())  # no temp litter either


class TestTornSegments:
    def test_truncation_at_every_offset_is_torn(self, tmp_path):
        """Cut the file at every byte: always TornSegmentError, never a
        numpy/JSON/struct error leaking out of the loader."""
        pristine_path = tmp_path / "seg-000000.rseg"
        small_segment(pristine_path)
        pristine = pristine_path.read_bytes()
        torn = tmp_path / "torn.rseg"
        for offset in range(len(pristine)):
            torn.write_bytes(pristine[:offset])
            with pytest.raises(TornSegmentError):
                read_footer(torn)

    def test_trailing_garbage_is_torn(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TornSegmentError):
            read_footer(path)

    def test_footer_corruption_trips_crc(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        raw = bytearray(path.read_bytes())
        # Flip one byte inside the JSON footer (just before the trailer).
        raw[-len(_TRAILER_MAGIC) - _TRAILER_STRUCT.size - 10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TornSegmentError, match="CRC"):
            read_footer(path)

    def test_pristine_segment_reads_clean(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        footer = read_footer(path)
        assert footer["rows"] == 5


class TestVersionDrift:
    def test_future_header_version_refused(self, tmp_path):
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        raw = bytearray(path.read_bytes())
        raw[4] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageVersionError, match="version"):
            read_footer(path)

    def test_future_footer_schema_refused(self, tmp_path):
        """A file whose footer declares a future schema (valid CRC) is a
        version error, not a torn file."""
        path = tmp_path / "seg-000000.rseg"
        small_segment(path)
        raw = path.read_bytes()
        tail = len(_TRAILER_MAGIC) + _TRAILER_STRUCT.size
        _, length = _TRAILER_STRUCT.unpack(
            raw[-tail : -len(_TRAILER_MAGIC)]
        )
        footer = json.loads(raw[-tail - length : -tail])
        footer["version"] = FORMAT_VERSION + 1
        new_footer = json.dumps(footer, sort_keys=True).encode()
        path.write_bytes(
            raw[: -tail - length]
            + new_footer
            + _TRAILER_STRUCT.pack(zlib.crc32(new_footer), len(new_footer))
            + _TRAILER_MAGIC
        )
        with pytest.raises(StorageVersionError):
            read_footer(path)

    def test_not_a_segment_file_refused(self, tmp_path):
        path = tmp_path / "nope.rseg"
        path.write_bytes(b"definitely not a segment file, but long enough\n")
        with pytest.raises(TornSegmentError):
            read_footer(path)


class TestRepairMode:
    def make_store(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store")
        with store.writer(segment_rows=3) as writer:
            for i in range(9):
                writer.append(f"h{i % 3}", "d", float(i), 100, True)
        return store

    def test_default_open_refuses_torn_segment(self, tmp_path):
        store = self.make_store(tmp_path)
        victim = store.directory / store.metas[1].name
        victim.write_bytes(victim.read_bytes()[:-7])
        with pytest.raises(TornSegmentError):
            SegmentStore.open(store.directory)

    def test_repair_drops_torn_segment_and_keeps_rest(self, tmp_path):
        store = self.make_store(tmp_path)
        assert store.n_segments == 3
        victim = store.directory / store.metas[1].name
        victim.write_bytes(victim.read_bytes()[:-7])
        generation = store.generation

        repaired = SegmentStore.open(store.directory, repair=True)
        assert repaired.n_segments == 2
        assert repaired.total_rows == 6
        assert repaired.generation > generation
        # The surviving rows gather cleanly.
        gathered = repaired.gather()
        assert gathered.n_rows == 6
        # The repair is durable: a fresh default open succeeds.
        assert SegmentStore.open(store.directory).n_segments == 2

    def test_repair_never_hides_version_errors(self, tmp_path):
        store = self.make_store(tmp_path)
        victim = store.directory / store.metas[0].name
        raw = bytearray(victim.read_bytes())
        raw[4] = FORMAT_VERSION + 1
        victim.write_bytes(bytes(raw))
        with pytest.raises(StorageVersionError):
            SegmentStore.open(store.directory, repair=True)
