"""Buffered, threshold-cut segment writing.

:class:`SegmentWriter` is the one producer-side object: callers push
flow rows (or :class:`~repro.flows.record.FlowRecord` objects) in
arrival order and the writer factorises addresses, buffers columns,
and cuts a finished segment into its :class:`~repro.storage.store.SegmentStore`
whenever the buffer crosses the row or byte threshold.  Cut boundaries
never change results — the store's gather re-establishes the global
per-host order — so thresholds are purely a memory/efficiency knob:

* ``segment_rows`` bounds rows buffered in RAM (and therefore the
  ingest path's peak memory);
* ``segment_bytes`` approximates the on-disk size so zone maps stay
  selective (one giant segment can never be pruned).

Callers that partition time themselves (the online detector spooling
tumbled windows) call :meth:`~SegmentWriter.cut` at each boundary to
get window-aligned segments, which is what makes time-range pruning
surgical on replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DEFAULT_SEGMENT_ROWS", "DEFAULT_SEGMENT_BYTES", "SegmentWriter"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..flows.record import FlowRecord
    from .format import SegmentMeta
    from .store import SegmentStore

#: Default segment cut thresholds: 256k rows is a few MB per column —
#: big enough to amortise footer overhead, small enough that zone maps
#: prune usefully and ingest's buffered tail stays modest.
DEFAULT_SEGMENT_ROWS = 262_144
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Approximate per-row cost used for the byte threshold: the five
#: fixed-width columns (8 + 8 + 1 + 4 + 4) rounded up for string-table
#: amortisation.
_ROW_OVERHEAD = 32


class SegmentWriter:
    """Buffer rows in arrival order; cut segments into a store.

    Usable as a context manager — exiting flushes the tail buffer as a
    final (possibly small) segment:

    >>> with store.writer(segment_rows=100_000) as writer:   # doctest: +SKIP
    ...     for flow in flows:
    ...         writer.add(flow)

    Rows pushed one at a time (:meth:`append`, :meth:`add`) buffer in
    Python lists; runs of rows pushed as columns
    (:meth:`append_columns`) buffer as copied array chunks, so the
    numeric columns of the block parser reach the segment without a
    round trip through Python objects.
    """

    def __init__(
        self,
        store: "SegmentStore",
        *,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.store = store
        self.segment_rows = int(segment_rows)
        self.segment_bytes = int(segment_bytes)
        #: Rows per segment: the byte threshold counts ``_ROW_OVERHEAD``
        #: bytes a row, so it is a row threshold too.
        self._limit = min(
            self.segment_rows, -(-self.segment_bytes // _ROW_OVERHEAD)
        )
        self.rows_written = 0
        self.segments_cut = 0
        #: Catalog entry of the last segment this writer cut.
        self.last_segment: Optional["SegmentMeta"] = None
        self._buffered = 0
        self._starts: List[float] = []
        self._src_bytes: List[int] = []
        self._success: List[int] = []
        self._src_codes: List[int] = []
        self._dst_codes: List[int] = []
        #: Sealed runs of buffered rows, each (starts, src_bytes,
        #: success, src_codes, dst_codes) in segment dtypes.
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._host_code = _Codes()
        self._dst_code = _Codes()

    # -- producing ------------------------------------------------------
    def append(
        self, src: str, dst: str, start: float, src_bytes: int, success: bool
    ) -> None:
        """Buffer one flow row (must arrive in ingest order)."""
        self._starts.append(float(start))
        self._src_bytes.append(int(src_bytes))
        self._success.append(1 if success else 0)
        self._src_codes.append(self._host_code[src])
        self._dst_codes.append(self._dst_code[dst])
        self._buffered += 1
        if self._buffered >= self._limit:
            self.cut()

    def append_columns(
        self,
        src: Sequence[str],
        dst: Sequence[str],
        start: Sequence[float],
        src_bytes: Sequence[int],
        success: Sequence[bool],
    ) -> None:
        """Buffer a run of rows given as five equal-length columns.

        Equivalent to :meth:`append` row by row — the same first-seen
        codes and the same cut points, so the same segment bytes.  The
        columns may be arrays (the block parser's float64/int64/bool
        columns) or sequences; each run is copied into the buffer, so
        the caller's arrays are never held.
        """
        self._seal()
        total = len(start)
        pos = 0
        while pos < total:
            # Rows until the next threshold cut (>= 1: a full buffer
            # has already been cut).
            end = min(total, pos + self._limit - self._buffered)
            part = slice(pos, end)
            rows = end - pos
            self._chunks.append(
                (
                    np.array(start[part], dtype=np.float64),
                    np.array(src_bytes[part], dtype=np.int64),
                    np.array(success[part], dtype=np.uint8),
                    np.fromiter(
                        map(self._host_code.__getitem__, src[part]),
                        np.int32,
                        rows,
                    ),
                    np.fromiter(
                        map(self._dst_code.__getitem__, dst[part]),
                        np.int32,
                        rows,
                    ),
                )
            )
            self._buffered += rows
            if self._buffered >= self._limit:
                self.cut()
            pos = end

    def add(self, flow: "FlowRecord") -> None:
        """Buffer one :class:`~repro.flows.record.FlowRecord`.

        Only the feature-bearing fields survive (start, uploaded bytes,
        success, endpoints) — the storage plane is a projection of the
        flow model onto exactly what the detector consumes.
        """
        self.append(
            flow.src,
            flow.dst,
            flow.start,
            flow.src_bytes,
            not flow.state.failed,
        )

    @property
    def buffered_rows(self) -> int:
        """Rows currently buffered (not yet in any segment)."""
        return self._buffered

    def buffered_hosts(self) -> Tuple[List[str], np.ndarray]:
        """The buffered rows' initiators: the host table the next cut
        writes (hosts in code order) and each buffered row's code."""
        self._seal()
        codes = [chunk[3] for chunk in self._chunks]
        return list(self._host_code), np.concatenate(
            codes or [np.zeros(0, dtype=np.int32)]
        )

    def _seal(self) -> None:
        """Move the rows buffered one at a time into an array chunk."""
        if self._starts:
            self._chunks.append(
                (
                    np.array(self._starts, dtype=np.float64),
                    np.array(self._src_bytes, dtype=np.int64),
                    np.array(self._success, dtype=np.uint8),
                    np.array(self._src_codes, dtype=np.int32),
                    np.array(self._dst_codes, dtype=np.int32),
                )
            )
            self._starts.clear()
            self._src_bytes.clear()
            self._success.clear()
            self._src_codes.clear()
            self._dst_codes.clear()

    # -- cutting --------------------------------------------------------
    def cut(self) -> bool:
        """Flush the buffer as one segment; ``False`` if it was empty.

        Explicit cuts let a caller align segment boundaries with
        semantic ones (tumbling windows, trace days) so time-range
        pruning later skips whole segments.
        """
        self._seal()
        if not self._chunks:
            return False
        starts, src_bytes, success, src_codes, dst_codes = (
            np.concatenate(column) for column in zip(*self._chunks)
        )
        self.last_segment = self.store.append_segment(
            starts=starts,
            src_bytes=src_bytes,
            success=success,
            src_codes=src_codes,
            dst_codes=dst_codes,
            hosts=list(self._host_code),
            dsts=list(self._dst_code),
        )
        self.rows_written += self._buffered
        self.segments_cut += 1
        self._buffered = 0
        self._chunks.clear()
        self._host_code = _Codes()
        self._dst_code = _Codes()
        return True

    def close(self) -> None:
        """Flush any buffered tail rows as a final segment."""
        self.cut()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Flush only on clean exit: an exception mid-ingest must not
        # commit a half-consumed trace tail as if it were complete.
        if exc_type is None:
            self.close()


class _Codes(dict):
    """Dictionary codes in first-seen order: looking up a new value
    assigns it the next code, and iteration runs in code order, so
    ``list(codes)`` is the segment's string table."""

    def __missing__(self, value: str) -> int:
        code = self[value] = len(self)
        return code
