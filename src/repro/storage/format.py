"""The on-disk segment container: columns, footer, zone maps.

One **segment** is one binary file holding a contiguous run of flow
rows in arrival order, stored column-wise so readers can memory-map
exactly the columns a kernel needs:

.. code-block:: text

    ┌──────────────────────────────────────────────────────────────┐
    │ header magic  b"RSEG" + version byte + b"\\n"   (6 bytes)     │
    ├──────────────────────────────────────────────────────────────┤
    │ starts     float64[n]   flow start times                     │
    │ src_bytes  int64[n]     bytes uploaded by the initiator      │
    │ success    uint8[n]     1 = established, 0 = failed          │
    │ src_codes  int32[n]     index into footer["hosts"]           │
    │ dst_codes  int32[n]     index into footer["dsts"]            │
    ├──────────────────────────────────────────────────────────────┤
    │ footer     JSON (utf-8): row count, column offsets, string   │
    │            tables, time range, per-host zone maps            │
    ├──────────────────────────────────────────────────────────────┤
    │ trailer    crc32(footer) u32 + len(footer) u64 + b"GESR\\n"   │
    └──────────────────────────────────────────────────────────────┘

The columns are the exact inputs of the feature kernels
(:func:`repro.flows.store.group_by_host`); addresses are factorised
into dense per-segment integer codes with the string tables in the
footer, so a reader touches no Python objects until it decides to.

The **zone maps** (``host_rows`` / ``host_t_min`` / ``host_t_max``,
aligned with ``hosts``) let :class:`repro.storage.store.SegmentStore`
prune whole segments by host membership or time range without reading
a single column byte.

Durability and validation
-------------------------
Segments are written through :func:`repro.resilience.atomic_write`, so
a crashed writer never leaves a half-segment where a complete one
stood.  A segment that is torn *externally* (truncated copy, bad disk)
is still always detected: the trailer sits at the very end of the
file, so truncation at any offset destroys it, and the footer CRC
catches in-place corruption of the metadata.  Readers raise

* :class:`TornSegmentError` for truncation / corruption, and
* :class:`StorageVersionError` for format drift (a future header
  version byte or footer schema version),

never a numpy shape error or a JSON traceback from the middle of a
load.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..resilience import faults
from ..resilience.io import atomic_write

__all__ = [
    "FORMAT_VERSION",
    "SEGMENT_SUFFIX",
    "COLUMN_DTYPES",
    "StorageError",
    "StorageVersionError",
    "TornSegmentError",
    "StorageBudgetError",
    "SegmentMeta",
    "Segment",
    "write_segment",
    "read_footer",
    "open_segment",
]

#: Bump on any incompatible change to the segment layout or footer
#: schema; readers refuse other versions with :class:`StorageVersionError`.
FORMAT_VERSION = 1

SEGMENT_SUFFIX = ".rseg"

_HEADER_PREFIX = b"RSEG"
_HEADER = _HEADER_PREFIX + bytes([FORMAT_VERSION]) + b"\n"
_TRAILER_MAGIC = b"GESR\n"
#: crc32 (u32) + footer length (u64) + end magic.
_TRAILER_STRUCT = struct.Struct("<IQ")
_TRAILER_LEN = _TRAILER_STRUCT.size + len(_TRAILER_MAGIC)

#: Column order and dtypes of the segment body, in file order.
COLUMN_DTYPES: Tuple[Tuple[str, str], ...] = (
    ("starts", "<f8"),
    ("src_bytes", "<i8"),
    ("success", "|u1"),
    ("src_codes", "<i4"),
    ("dst_codes", "<i4"),
)


class StorageError(RuntimeError):
    """Base class for segment-store failures."""


class StorageVersionError(StorageError):
    """The file is a segment/manifest of an incompatible format version."""


class TornSegmentError(StorageError):
    """The segment file is truncated or its footer fails validation."""


class StorageBudgetError(StorageError):
    """A gather would materialise more rows than the caller's budget."""


@dataclass(frozen=True)
class SegmentMeta:
    """Catalog entry for one segment — everything pruning needs.

    This is what the store manifest records per segment; the zone maps
    themselves live in the segment footer and are loaded when the
    segment is first opened.
    """

    name: str
    rows: int
    t_min: float
    t_max: float
    n_hosts: int
    file_bytes: int

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "rows": self.rows,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "n_hosts": self.n_hosts,
            "file_bytes": self.file_bytes,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "SegmentMeta":
        return cls(
            name=str(payload["name"]),
            rows=int(payload["rows"]),
            t_min=float(payload["t_min"]),
            t_max=float(payload["t_max"]),
            n_hosts=int(payload["n_hosts"]),
            file_bytes=int(payload["file_bytes"]),
        )


def _zone_maps(
    starts: np.ndarray, src_codes: np.ndarray, n_hosts: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-host (row count, min start, max start), aligned with codes."""
    counts = np.bincount(src_codes, minlength=n_hosts).astype(np.int64)
    mins = np.full(n_hosts, np.inf, dtype=np.float64)
    maxs = np.full(n_hosts, -np.inf, dtype=np.float64)
    np.minimum.at(mins, src_codes, starts)
    np.maximum.at(maxs, src_codes, starts)
    return counts, mins, maxs


def write_segment(
    path: Union[str, Path],
    *,
    starts: np.ndarray,
    src_bytes: np.ndarray,
    success: np.ndarray,
    src_codes: np.ndarray,
    dst_codes: np.ndarray,
    hosts: Sequence[str],
    dsts: Sequence[str],
) -> SegmentMeta:
    """Write one segment file atomically; return its catalog entry.

    Rows must be in arrival order — the store's per-host ordering
    guarantee (stable sort by start, arrival order breaking ties)
    depends on segments preserving it.
    """
    path = Path(path)
    n = len(starts)
    if n == 0:
        raise ValueError("refusing to write an empty segment")
    columns = {
        "starts": np.ascontiguousarray(starts, dtype="<f8"),
        "src_bytes": np.ascontiguousarray(src_bytes, dtype="<i8"),
        "success": np.ascontiguousarray(success, dtype="|u1"),
        "src_codes": np.ascontiguousarray(src_codes, dtype="<i4"),
        "dst_codes": np.ascontiguousarray(dst_codes, dtype="<i4"),
    }
    for name, array in columns.items():
        if len(array) != n:
            raise ValueError(f"column {name!r} has {len(array)} rows, expected {n}")

    counts, mins, maxs = _zone_maps(
        columns["starts"], columns["src_codes"], len(hosts)
    )
    if int(counts.sum()) != n or (counts == 0).any():
        raise ValueError("every host in the string table must own >= 1 row")

    offsets: Dict[str, int] = {}
    cursor = len(_HEADER)
    for name, _ in COLUMN_DTYPES:
        offsets[name] = cursor
        cursor += columns[name].nbytes
    footer = {
        "format": "repro-segment",
        "version": FORMAT_VERSION,
        "rows": n,
        "t_min": float(columns["starts"].min()),
        "t_max": float(columns["starts"].max()),
        "columns": {
            name: {"dtype": dtype, "offset": offsets[name], "rows": n}
            for name, dtype in COLUMN_DTYPES
        },
        "hosts": list(hosts),
        "dsts": list(dsts),
        "host_rows": counts.tolist(),
        "host_t_min": mins.tolist(),
        "host_t_max": maxs.tolist(),
    }
    footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
    trailer = (
        _TRAILER_STRUCT.pack(zlib.crc32(footer_bytes), len(footer_bytes))
        + _TRAILER_MAGIC
    )

    faults.io_point("segment")
    with atomic_write(path, "wb") as handle:
        handle.write(_HEADER)
        for name, _ in COLUMN_DTYPES:
            handle.write(columns[name].tobytes())
        handle.write(footer_bytes)
        handle.write(trailer)
    file_bytes = cursor + len(footer_bytes) + _TRAILER_LEN
    return SegmentMeta(
        name=path.name,
        rows=n,
        t_min=footer["t_min"],
        t_max=footer["t_max"],
        n_hosts=len(hosts),
        file_bytes=file_bytes,
    )


def read_footer(path: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a segment's footer (no column bytes touched).

    Raises
    ------
    TornSegmentError
        If the file is truncated anywhere, the trailer magic is gone,
        the CRC does not match, or the footer is not the expected JSON.
    StorageVersionError
        If the header or footer declares an unsupported version.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            header = fh.read(len(_HEADER))
            if size < len(_HEADER) + _TRAILER_LEN:
                raise TornSegmentError(
                    f"{path}: {size} bytes is too short to be a segment"
                )
            if header != _HEADER:
                if header[: len(_HEADER_PREFIX)] == _HEADER_PREFIX:
                    raise StorageVersionError(
                        f"{path}: segment format version "
                        f"{header[len(_HEADER_PREFIX)]} is not supported "
                        f"(this build reads version {FORMAT_VERSION})"
                    )
                raise TornSegmentError(
                    f"{path}: not a segment file (bad header {header!r})"
                )
            fh.seek(size - _TRAILER_LEN)
            trailer = fh.read(_TRAILER_LEN)
            if trailer[-len(_TRAILER_MAGIC):] != _TRAILER_MAGIC:
                raise TornSegmentError(
                    f"{path}: trailer magic missing — file is truncated "
                    "or not a complete segment"
                )
            crc, footer_len = _TRAILER_STRUCT.unpack(
                trailer[: _TRAILER_STRUCT.size]
            )
            footer_start = size - _TRAILER_LEN - footer_len
            if footer_start < len(_HEADER):
                raise TornSegmentError(
                    f"{path}: footer length {footer_len} exceeds the file"
                )
            fh.seek(footer_start)
            footer_bytes = fh.read(footer_len)
    except OSError as exc:
        raise StorageError(f"{path}: cannot read segment: {exc}") from exc
    if len(footer_bytes) != footer_len or zlib.crc32(footer_bytes) != crc:
        raise TornSegmentError(f"{path}: footer fails its CRC check")
    try:
        footer = json.loads(footer_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TornSegmentError(f"{path}: footer is not valid JSON") from exc
    if not isinstance(footer, dict) or footer.get("format") != "repro-segment":
        raise TornSegmentError(f"{path}: footer is not a segment footer")
    if footer.get("version") != FORMAT_VERSION:
        raise StorageVersionError(
            f"{path}: segment footer version {footer.get('version')!r} is "
            f"not supported (this build reads version {FORMAT_VERSION})"
        )
    expected = footer_start - len(_HEADER)
    declared = sum(
        int(np.dtype(spec["dtype"]).itemsize) * int(spec["rows"])
        for spec in footer["columns"].values()
    )
    if declared != expected:
        raise TornSegmentError(
            f"{path}: column region is {expected} bytes but the footer "
            f"declares {declared}"
        )
    return footer


class Segment:
    """One opened segment: validated footer plus lazily mapped columns.

    The file is mapped once, read-only, on the first column read, and
    each column is a read-only :func:`numpy.frombuffer` view into that
    mapping — the OS pages in only the bytes a kernel actually touches,
    forked worker processes share the pages instead of copying them,
    and masked reads are plain ndarray indexing.  Of the parsed footer
    it keeps the string tables, the zone maps as arrays and the column
    layout, not the footer's lists of Python numbers.
    """

    def __init__(self, path: Path, footer: Dict[str, object]) -> None:
        self.path = path
        self.rows: int = int(footer["rows"])
        self.t_min: float = float(footer["t_min"])
        self.t_max: float = float(footer["t_max"])
        self.hosts: List[str] = footer["hosts"]
        self.dsts: List[str] = footer["dsts"]
        self.host_rows = np.asarray(footer["host_rows"], dtype=np.int64)
        self.host_t_min = np.asarray(footer["host_t_min"], dtype=np.float64)
        self.host_t_max = np.asarray(footer["host_t_max"], dtype=np.float64)
        self._layout: Dict[str, Dict[str, object]] = footer["columns"]
        self._host_index: Optional[Dict[str, int]] = None
        self._mapping: Optional[mmap.mmap] = None
        self._columns: Dict[str, np.ndarray] = {}

    @property
    def host_index(self) -> Dict[str, int]:
        """Host string → local code, built on first use."""
        if self._host_index is None:
            self._host_index = {h: i for i, h in enumerate(self.hosts)}
        return self._host_index

    def column(self, name: str) -> np.ndarray:
        """The named column as a read-only view of the file's mapping."""
        cached = self._columns.get(name)
        if cached is None:
            if self._mapping is None:
                with open(self.path, "rb") as fh:
                    self._mapping = mmap.mmap(
                        fh.fileno(), 0, access=mmap.ACCESS_READ
                    )
            spec = self._layout[name]
            cached = np.frombuffer(
                self._mapping,
                dtype=np.dtype(spec["dtype"]),
                count=int(spec["rows"]),
                offset=int(spec["offset"]),
            )
            self._columns[name] = cached
        return cached

    @property
    def starts(self) -> np.ndarray:
        return self.column("starts")

    @property
    def src_bytes(self) -> np.ndarray:
        return self.column("src_bytes")

    @property
    def success(self) -> np.ndarray:
        return self.column("success")

    @property
    def src_codes(self) -> np.ndarray:
        return self.column("src_codes")

    @property
    def dst_codes(self) -> np.ndarray:
        return self.column("dst_codes")

    def meta(self) -> SegmentMeta:
        """The catalog entry this segment would have in a manifest."""
        return SegmentMeta(
            name=self.path.name,
            rows=self.rows,
            t_min=self.t_min,
            t_max=self.t_max,
            n_hosts=len(self.hosts),
            file_bytes=self.path.stat().st_size,
        )


def open_segment(path: Union[str, Path]) -> Segment:
    """Open one segment file: validate the footer, defer the columns."""
    path = Path(path)
    return Segment(path, read_footer(path))
