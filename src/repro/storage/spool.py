"""Spilling an in-memory :class:`FlowStore` into a segment store.

This is the bridge the batch pipeline uses when it is *given* an
in-memory store but asked to run store-backed
(``PipelineConfig.store_dir``): the store's rows are written out once,
then extraction proceeds from the disk plane.  The spool is keyed to
its source — respooling the same unchanged store into the same
directory is a no-op reuse, so repeated pipeline runs (threshold
sweeps, benchmarks) pay the write once.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from ..flows.store import FlowStore
from ..obs.logconf import get_logger
from .format import SEGMENT_SUFFIX, StorageError
from .store import MANIFEST_NAME, SegmentStore
from .view import StoreView
from .writer import DEFAULT_SEGMENT_ROWS

__all__ = ["fresh_store", "spool_flow_store"]

logger = get_logger("storage.spool")


def _source_key(store: FlowStore) -> dict:
    """Identity of a spooled store: row count + mutation version + pid.

    The version counter is process-local, so the pid scopes it; a
    different process (or a mutated store) never silently reuses a
    stale spool.
    """
    return {
        "rows": len(store),
        "flowstore_version": store.version,
        "pid": os.getpid(),
    }


def _wipe(directory: Path) -> None:
    """Remove a previous spool's files (only files we recognise)."""
    for child in directory.iterdir():
        if child.name == MANIFEST_NAME or child.name.endswith(SEGMENT_SUFFIX):
            child.unlink()


def fresh_store(directory: Union[str, Path]) -> SegmentStore:
    """An empty segment store at ``directory``, replacing any spool there.

    The ingest spill path (:func:`repro.flows.argus.read_flows`'s
    ``to_store=``) uses this: a re-ingest must reflect exactly the
    trace being read, so leftover segments from a previous run are
    removed first.  Only files the storage layer recognises (the
    manifest and ``*.rseg`` segments) are touched.
    """
    directory = Path(directory)
    if directory.exists():
        _wipe(directory)
    return SegmentStore.create(directory, exist_ok=True)


def spool_flow_store(
    store: FlowStore,
    directory: Union[str, Path],
    *,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
    max_gather_rows: Optional[int] = None,
) -> StoreView:
    """Write ``store``'s rows into segments under ``directory``.

    Returns a :class:`StoreView` over the result.  If ``directory``
    already holds a spool of this exact store (same row count, same
    mutation version, same process), it is reused as-is; anything else
    found there is replaced.
    """
    directory = Path(directory)
    key = _source_key(store)
    if (directory / MANIFEST_NAME).exists():
        try:
            existing = SegmentStore.open(directory)
        except StorageError:
            existing = None
        if (
            existing is not None
            and existing.source == key
            and existing.total_rows == len(store)
        ):
            logger.info(
                "reusing existing spool at %s (%d rows, %d segments)",
                directory,
                existing.total_rows,
                existing.n_segments,
            )
            return StoreView(existing, max_gather_rows=max_gather_rows)
        directory.mkdir(parents=True, exist_ok=True)
        _wipe(directory)

    target = SegmentStore.create(directory, exist_ok=True)
    with target.writer(segment_rows=segment_rows) as writer:
        for flow in store:
            writer.add(flow)
    target.set_source(key)
    logger.info(
        "spooled %d rows into %d segment(s) at %s",
        len(store),
        target.n_segments,
        directory,
    )
    return StoreView(target, max_gather_rows=max_gather_rows)
