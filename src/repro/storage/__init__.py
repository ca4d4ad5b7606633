"""Out-of-core columnar flow storage: the disk-resident data plane.

Everything upstream of the detector — ingest, feature extraction, the
batch pipeline, the online detector — can run from this package's
append-only, time-partitioned **segment store** instead of an
in-memory :class:`~repro.flows.store.FlowStore`, producing bit-identical
features, thresholds, and suspects while holding only bounded slices
of the trace in RAM.

Layers, bottom up:

* :mod:`~repro.storage.format` — the single-file segment container
  (columns + JSON footer + CRC trailer), zone maps, and the error
  taxonomy (:class:`StorageError`, :class:`StorageVersionError`,
  :class:`TornSegmentError`, :class:`StorageBudgetError`);
* :mod:`~repro.storage.writer` — :class:`SegmentWriter`, buffering
  rows and cutting segments on row/byte thresholds;
* :mod:`~repro.storage.store` — :class:`SegmentStore`, the catalog
  (a snapshot plus the segments committed by rename after it) with
  zone-map pruned gathers and compaction, and :class:`StoreChain`, a
  read-only catalog over several stores;
* :mod:`~repro.storage.view` — :class:`StoreView`, the
  FlowStore-shaped facade the pipeline and the feature extractor consume;
* :mod:`~repro.storage.spool` — :func:`spool_flow_store`, spilling an
  in-memory store to segments.

See ``docs/storage.md`` for the format specification, the pruning and
compaction policies, and guidance on when to prefer the in-memory
plane.
"""

from .format import (
    COLUMN_DTYPES,
    FORMAT_VERSION,
    SEGMENT_SUFFIX,
    Segment,
    SegmentMeta,
    StorageBudgetError,
    StorageError,
    StorageVersionError,
    TornSegmentError,
    open_segment,
    read_footer,
    write_segment,
)
from .spool import fresh_store, spool_flow_store
from .store import MANIFEST_NAME, Gathered, SegmentStore, StoreChain
from .view import StoreView
from .writer import DEFAULT_SEGMENT_BYTES, DEFAULT_SEGMENT_ROWS, SegmentWriter

__all__ = [
    "COLUMN_DTYPES",
    "FORMAT_VERSION",
    "SEGMENT_SUFFIX",
    "MANIFEST_NAME",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_SEGMENT_ROWS",
    "Segment",
    "SegmentMeta",
    "Gathered",
    "SegmentStore",
    "SegmentWriter",
    "StoreChain",
    "StoreView",
    "StorageError",
    "StorageVersionError",
    "TornSegmentError",
    "StorageBudgetError",
    "open_segment",
    "read_footer",
    "write_segment",
    "fresh_store",
    "spool_flow_store",
]
