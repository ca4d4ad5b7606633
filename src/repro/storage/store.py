"""The segment catalog: pruned, mmap'd, compactable.

:class:`SegmentStore` owns one directory of segment files.  A
segment's atomic rename into place is its commit: segments are named
``seg-<id>`` in the order they are appended, and each lands complete
or not at all (:func:`~repro.resilience.io.atomic_write`).  The
catalog is a **snapshot** (``manifest.json``, which orders the
segments it lists) plus the unbroken run of ``seg-<next_id>``,
``seg-<next_id + 1>``, … files committed after it.  An append writes
its segment and nothing else; the snapshot is rewritten only when the
catalog changes shape (create, compaction, truncation, repair, a
spool's source key), so the cost of a commit does not grow with the
store.  A crash at any point leaves either the old catalog or the new
one — never a catalog holding a half-written segment.  The
``generation`` counter bumps on every catalog change (the snapshot's
generation plus one per segment in the run); readers key caches on it
exactly as engines key on :attr:`repro.flows.store.FlowStore.version`.

Reading is a **gather**: callers name the hosts (and optionally the
time range) they need and the store scans only the segments whose
zone maps could contain matching rows, reads just the needed columns
from each segment's mapping, and assembles host-grouped, start-ordered
arrays with the same ordering contract as
:meth:`repro.flows.store.FlowStore.columnar` — stable sort by start
time, arrival order breaking ties — so every downstream kernel is
bit-identical to the in-memory plane.  :class:`StoreChain` gathers
over several stores' segments in turn, as if they were one store's.

Compaction merges runs of small segments (ingest tails, per-window
spools) into fewer larger ones, preserving row order; it rewrites data
files but never changes any gather result.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger
from ..resilience import faults
from ..resilience.io import atomic_write
from .format import (
    SEGMENT_SUFFIX,
    Segment,
    SegmentMeta,
    StorageBudgetError,
    StorageError,
    StorageVersionError,
    TornSegmentError,
    open_segment,
    write_segment,
)
from .writer import SegmentWriter, _Codes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .view import StoreView

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Gathered",
    "SegmentStore",
    "StoreChain",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-segment-store"

#: Version of the catalog snapshot, kept apart from the segment
#: :data:`~repro.storage.format.FORMAT_VERSION` so segment bytes do not
#: change with it.  A version-2 snapshot may be followed by segments it
#: does not list, so a build that reads only version 1 refuses it
#: instead of reading the snapshot alone.
MANIFEST_VERSION = 2
#: A version-1 manifest (written before the rename commit) lists every
#: segment: the run after it is empty, and it reads unchanged.
_READABLE_VERSIONS = (1, MANIFEST_VERSION)

_SEGMENT_NAME = re.compile(r"seg-(\d{6,})" + re.escape(SEGMENT_SUFFIX))

logger = get_logger("storage.store")

_SEGMENTS_WRITTEN = obs_metrics.counter(
    "repro_storage_segments_written_total", "Segments committed to a store"
)
_ROWS_SPOOLED = obs_metrics.counter(
    "repro_storage_rows_spooled_total", "Flow rows written into segments"
)
_BYTES_WRITTEN = obs_metrics.counter(
    "repro_storage_bytes_written_total", "Bytes of segment files written"
)
_SCANS = obs_metrics.counter(
    "repro_storage_segment_scans_total",
    "Segments considered by gathers, by outcome",
    labels=("result",),
)
_ROWS_READ = obs_metrics.counter(
    "repro_storage_rows_read_total", "Flow rows materialised by gathers"
)
_GATHERS = obs_metrics.counter(
    "repro_storage_gathers_total", "Gather calls served by segment stores"
)
_COMPACTIONS = obs_metrics.counter(
    "repro_storage_compactions_total", "Segment groups merged by compaction"
)
_TORN = obs_metrics.counter(
    "repro_storage_torn_segments_total",
    "Torn/corrupt segments detected (and dropped when repairing)",
)
_HOOK_FAILURES = obs_metrics.counter(
    "repro_storage_commit_hook_failures_total",
    "Catalog commit hooks that raised, by event",
    labels=("event",),
)
_SEGMENTS_GAUGE = obs_metrics.gauge(
    "repro_storage_segments", "Segments in the last touched store"
)
_ROWS_GAUGE = obs_metrics.gauge(
    "repro_storage_rows", "Rows in the last touched store"
)


def _segment_name(segment_id: int) -> str:
    return f"seg-{segment_id:06d}{SEGMENT_SUFFIX}"


def _run_after(directory: Path, next_id: int) -> List[str]:
    """The segments committed after a snapshot, in commit order.

    Appends take ids in order and commit by rename alone, so these are
    the ``seg-<next_id>…`` files, unbroken.  A file below ``next_id``
    that the snapshot does not list is inert: an id a compaction
    reserved and never catalogued, or a segment whose unlink failed
    after truncation.  ``*.tmp`` files never match.  A gap — a later
    segment present, an earlier one gone — means a committed segment
    is lost, and raises as a missing catalogued segment does.
    """
    ids = []
    for name in os.listdir(directory):
        match = _SEGMENT_NAME.fullmatch(name)
        if match is not None:
            segment_id = int(match.group(1))
            if segment_id >= next_id and name == _segment_name(segment_id):
                ids.append(segment_id)
    ids.sort()
    for expected, found in zip(range(next_id, next_id + len(ids)), ids):
        if found != expected:
            raise StorageError(
                f"{directory / _segment_name(expected)}: committed segment "
                f"is missing, but {_segment_name(found)} after it is present"
            )
    return [_segment_name(segment_id) for segment_id in ids]


@dataclass(frozen=True)
class Gathered:
    """Host-grouped, start-ordered columns assembled by one gather.

    Matches the layout contract of
    :class:`repro.flows.store.ColumnarFlows`: ``hosts`` is sorted, host
    ``hosts[i]`` owns ``counts[i]`` consecutive rows, rows within a
    host ascend by start time with arrival order breaking ties.
    ``success`` is int64 (not the on-disk uint8) so downstream
    reductions cannot overflow; ``dst_codes`` index the reader's
    destination table ``dsts`` — any bijection yields identical
    features, and :meth:`repro.storage.view.StoreView.columnar` recodes
    them to the in-memory plane's first-appearance order when exact
    snapshot equality matters.

    The scan counters record how selective the zone maps were; tests
    and the benchmark assert pruning through them.
    """

    hosts: Tuple[str, ...]
    counts: np.ndarray
    starts: np.ndarray
    src_bytes: np.ndarray
    success: np.ndarray
    dst_codes: np.ndarray
    n_destinations: int
    #: Destination strings indexed by ``dst_codes`` (the synthetic-flow
    #: path needs the addresses back; kernels never touch them).
    dsts: Tuple[str, ...]
    segments_read: int
    segments_pruned_host: int
    segments_pruned_time: int

    @property
    def n_rows(self) -> int:
        return len(self.starts)


def _empty_gather(pruned_host: int = 0, pruned_time: int = 0) -> Gathered:
    return Gathered(
        hosts=(),
        counts=np.zeros(0, dtype=np.int64),
        starts=np.zeros(0, dtype=np.float64),
        src_bytes=np.zeros(0, dtype=np.int64),
        success=np.zeros(0, dtype=np.int64),
        dst_codes=np.zeros(0, dtype=np.int64),
        n_destinations=0,
        dsts=(),
        segments_read=0,
        segments_pruned_host=pruned_host,
        segments_pruned_time=pruned_time,
    )


class _CodeTables:
    """One reader's host and destination tables for one catalog
    generation, and each read segment's string tables coded in them.

    A segment's strings are looked up once, by the first gather that
    reads it, not once per gather (feature extraction gathers once per
    shard).  Between gathers the tables are only the code arrays and
    the names in code order; the lookup dictionaries live while new
    segments are being coded.
    """

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.host_names: List[str] = []
        self.dst_names: List[str] = []
        self._by_segment: Dict[Path, Tuple[np.ndarray, np.ndarray]] = {}

    def codes(
        self, segments: Sequence[Segment]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Each segment's (host codes, destination codes)."""
        new = [s for s in segments if s.path not in self._by_segment]
        if new:
            hosts = _Codes(zip(self.host_names, count()))
            dsts = _Codes(zip(self.dst_names, count()))
            for segment in new:
                self._by_segment[segment.path] = (
                    np.fromiter(
                        map(hosts.__getitem__, segment.hosts),
                        np.int64,
                        len(segment.hosts),
                    ),
                    np.fromiter(
                        map(dsts.__getitem__, segment.dsts),
                        np.int64,
                        len(segment.dsts),
                    ),
                )
            self.host_names = list(hosts)
            self.dst_names = list(dsts)
        return [self._by_segment[segment.path] for segment in segments]


class _SegmentReads:
    """Zone-map counts and pruned gathers over an ordered segment run.

    Defined once over :meth:`segments` — the catalogued segments in
    arrival order — and shared by one :class:`SegmentStore` and a
    :class:`StoreChain` of several: a chain's gather is one store's
    gather over the concatenated catalogs.
    """

    _code_tables: Optional[_CodeTables] = None

    @property
    def generation(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def segments(self) -> List[Segment]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _tables(self) -> _CodeTables:
        tables = self._code_tables
        if tables is None or tables.generation != self.generation:
            tables = self._code_tables = _CodeTables(self.generation)
        return tables

    def host_counts(
        self, t0: Optional[float] = None, t1: Optional[float] = None
    ) -> Dict[str, int]:
        """Rows per initiator.

        Without a time restriction this is a pure footer aggregation.
        With one, segments fully inside the range still aggregate from
        footers; only boundary-straddling segments read their ``starts``
        column (sliced per host, so the scan is bounded).
        """
        counts: Dict[str, int] = {}
        for segment in self.segments():
            if t0 is not None and segment.t_max < t0:
                continue
            if t1 is not None and segment.t_min >= t1:
                continue
            inside = (t0 is None or segment.t_min >= t0) and (
                t1 is None or segment.t_max < t1
            )
            if inside:
                for host, rows in zip(segment.hosts, segment.host_rows):
                    counts[host] = counts.get(host, 0) + int(rows)
            else:
                starts = segment.starts
                mask = np.ones(segment.rows, dtype=bool)
                if t0 is not None:
                    mask &= starts >= t0
                if t1 is not None:
                    mask &= starts < t1
                per_host = np.bincount(
                    segment.src_codes[mask], minlength=len(segment.hosts)
                )
                for host, rows in zip(segment.hosts, per_host):
                    if rows:
                        counts[host] = counts.get(host, 0) + int(rows)
        return counts

    def gather(
        self,
        hosts: Optional[Iterable[str]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        *,
        prune: bool = True,
        max_rows: Optional[int] = None,
    ) -> Gathered:
        """Materialise host-grouped, start-ordered columns for ``hosts``.

        ``prune=False`` disables zone-map pruning (every segment is
        scanned and row-filtered) — results are identical; the flag
        exists so the benchmark can measure what pruning buys.
        ``max_rows`` is a hard materialisation budget: a gather that
        would exceed it raises :class:`StorageBudgetError` *before*
        concatenating.
        """
        faults.io_point("store-read")
        _GATHERS.inc()
        segments = self.segments()
        wanted: Optional[frozenset] = None
        if hosts is not None:
            wanted = frozenset(hosts)
            if not wanted:
                return _empty_gather()
        # A segment whose time range misses the window is skipped whole;
        # each other one's wanted hosts are read off its own host table.
        in_window = [
            not prune
            or not (
                (t0 is not None and segment.t_max < t0)
                or (t1 is not None and segment.t_min >= t1)
            )
            for segment in segments
        ]
        keeps: List[Optional[np.ndarray]] = [
            None
            if wanted is None or not inside
            else np.fromiter(
                map(wanted.__contains__, segment.hosts),
                bool,
                len(segment.hosts),
            )
            for segment, inside in zip(segments, in_window)
        ]

        # Budget pre-check from zone maps alone: exact when there is no
        # time restriction, skipped (in favour of the exact running
        # check below) when there is.
        if max_rows is not None and t0 is None and t1 is None:
            estimate = sum(
                segment.rows if keep is None else int(segment.host_rows[keep].sum())
                for segment, keep in zip(segments, keeps)
            )
            if estimate > max_rows:
                raise StorageBudgetError(
                    f"gather would materialise {estimate} rows, over the "
                    f"budget of {max_rows}"
                )

        pruned_host = 0
        pruned_time = 0
        read: List[Tuple[Segment, Optional[np.ndarray]]] = []
        for segment, inside, keep in zip(segments, in_window, keeps):
            if not inside:
                pruned_time += 1
                _SCANS.inc(result="pruned-time")
                continue
            if prune and keep is not None:
                # Per-host time zone maps: a segment overlapping the
                # window may still hold none of *these* hosts' rows
                # inside it.
                live = keep
                if t0 is not None:
                    live = live & (segment.host_t_max >= t0)
                if t1 is not None:
                    live = live & (segment.host_t_min < t1)
                if not live.any():
                    pruned_host += 1
                    _SCANS.inc(result="pruned-host")
                    continue
            _SCANS.inc(result="read")
            read.append((segment, keep))

        tables = self._tables()
        codes = tables.codes([segment for segment, _ in read])
        rows_total = 0
        chunk_host: List[np.ndarray] = []
        chunk_starts: List[np.ndarray] = []
        chunk_bytes: List[np.ndarray] = []
        chunk_success: List[np.ndarray] = []
        chunk_dst: List[np.ndarray] = []
        for (segment, keep), (host_codes, dst_codes) in zip(read, codes):
            src_codes = segment.src_codes
            mask = None if keep is None else keep[src_codes]
            if t0 is not None or t1 is not None:
                starts_col = segment.starts
                tmask = np.ones(segment.rows, dtype=bool)
                if t0 is not None:
                    tmask &= starts_col >= t0
                if t1 is not None:
                    tmask &= starts_col < t1
                mask = tmask if mask is None else (mask & tmask)
            if mask is None:
                seg_host = host_codes[src_codes]
                seg_starts = segment.starts
                seg_bytes = segment.src_bytes
                seg_success = segment.success.astype(np.int64)
                seg_dst = dst_codes[segment.dst_codes]
            elif not mask.any():
                continue
            else:
                seg_host = host_codes[src_codes[mask]]
                seg_starts = segment.starts[mask]
                seg_bytes = segment.src_bytes[mask]
                seg_success = segment.success[mask].astype(np.int64)
                seg_dst = dst_codes[segment.dst_codes[mask]]
            rows_total += len(seg_starts)
            if max_rows is not None and rows_total > max_rows:
                raise StorageBudgetError(
                    f"gather exceeded the materialisation budget of "
                    f"{max_rows} rows at segment {segment.path.name}"
                )
            chunk_host.append(seg_host)
            chunk_starts.append(seg_starts)
            chunk_bytes.append(seg_bytes)
            chunk_success.append(seg_success)
            chunk_dst.append(seg_dst)

        if not chunk_starts:
            return _empty_gather(pruned_host, pruned_time)
        _ROWS_READ.inc(rows_total)

        host_idx = np.concatenate(chunk_host)
        starts_arr = np.concatenate(chunk_starts)
        bytes_arr = np.concatenate(chunk_bytes)
        success_arr = np.concatenate(chunk_success)
        dst_arr = np.concatenate(chunk_dst)

        # Present hosts in sorted order, renumbered densely: the codes
        # in ``host_idx`` index the reader's table in first-seen order.
        names = tables.host_names
        per_code = np.bincount(host_idx, minlength=len(names))
        present = np.flatnonzero(per_code)
        present_names = [names[code] for code in present.tolist()]
        by_name = np.array(
            sorted(range(len(present_names)), key=present_names.__getitem__),
            dtype=np.int64,
        )
        translate = np.empty(len(names), dtype=np.int64)
        translate[present[by_name]] = np.arange(len(by_name), dtype=np.int64)
        host_idx = translate[host_idx]

        # The in-memory plane's ordering contract, reproduced: a single
        # stable sort by start time over arrival order (FlowStore's
        # global sort), then a stable group-by host — within each host,
        # rows ascend by start with arrival order breaking ties.
        order = np.argsort(starts_arr, kind="stable")
        order = order[np.argsort(host_idx[order], kind="stable")]

        return Gathered(
            hosts=tuple(present_names[i] for i in by_name.tolist()),
            counts=per_code[present[by_name]].astype(np.int64),
            starts=starts_arr[order],
            src_bytes=bytes_arr[order],
            success=success_arr[order],
            dst_codes=dst_arr[order],
            n_destinations=len(tables.dst_names),
            dsts=tuple(tables.dst_names),
            segments_read=len(chunk_starts),
            segments_pruned_host=pruned_host,
            segments_pruned_time=pruned_time,
        )


def _read_snapshot(directory: Path) -> Dict[str, object]:
    """The catalog snapshot at ``directory``, validated."""
    manifest_path = directory / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except FileNotFoundError:
        raise StorageError(
            f"{directory}: not a segment store (no {MANIFEST_NAME})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(
            f"{manifest_path}: cannot read store manifest: {exc}"
        ) from exc
    if (
        not isinstance(snapshot, dict)
        or snapshot.get("format") != _MANIFEST_FORMAT
    ):
        raise StorageError(f"{manifest_path}: not a segment-store manifest")
    if snapshot.get("version") not in _READABLE_VERSIONS:
        raise StorageVersionError(
            f"{manifest_path}: store format version "
            f"{snapshot.get('version')!r} is not supported (this build "
            f"reads versions {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    return snapshot


class SegmentStore(_SegmentReads):
    """One directory of segments: a catalog snapshot and the run of
    segments committed after it.

    The parsed catalog lives in memory, so :attr:`metas`,
    :meth:`segments` and :attr:`total_rows` cost nothing per entry.
    """

    def __init__(
        self, directory: Union[str, Path], snapshot: Dict[str, object]
    ) -> None:
        self.directory = Path(directory)
        self._metas: List[SegmentMeta] = [
            SegmentMeta.from_json(entry) for entry in snapshot["segments"]
        ]
        self._total_rows = sum(meta.rows for meta in self._metas)
        self._generation = int(snapshot["generation"])
        self._next_id = int(snapshot["next_id"])
        #: Version of the snapshot on disk: the first append rewrites
        #: an older one, so no older build reads this store partially.
        self._snapshot_version = snapshot["version"]
        #: What the store was spooled from (:func:`spool_flow_store`
        #: keys reuse on it); ``None`` for any other store.
        self.source: Optional[Dict[str, object]] = snapshot.get("source")
        self._segments: Dict[str, Segment] = {}
        self._commit_hooks: List[
            Callable[["SegmentStore", str, List[SegmentMeta]], None]
        ] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: Union[str, Path], *, exist_ok: bool = False
    ) -> "SegmentStore":
        """Initialise a fresh store directory (an empty snapshot).

        With ``exist_ok`` an existing store is opened instead — the
        spill/spool paths use this to append across runs.
        """
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            if exist_ok:
                return cls.open(directory)
            raise StorageError(f"{directory}: segment store already exists")
        directory.mkdir(parents=True, exist_ok=True)
        store = cls(
            directory,
            {
                "version": MANIFEST_VERSION,
                "generation": 0,
                "next_id": 0,
                "segments": [],
            },
        )
        store._save_snapshot()
        return store

    @classmethod
    def open(
        cls, directory: Union[str, Path], *, repair: bool = False
    ) -> "SegmentStore":
        """Open an existing store: its snapshot, then the run after it.

        Every segment footer — catalogued or in the run — is validated
        up front (magic, version, CRC, declared sizes), so format drift
        or torn files surface here as :class:`StorageVersionError` /
        :class:`TornSegmentError` — not as a numpy shape error five
        stages later.  With ``repair=True`` torn segments are dropped
        from the catalog (logged, counted in
        ``repro_storage_torn_segments_total``, and a new snapshot
        written) instead of failing the open; version errors and
        missing segments are never repaired away.
        """
        directory = Path(directory)
        store = cls(directory, _read_snapshot(directory))
        run = _run_after(directory, store._next_id)
        store._next_id += len(run)
        store._generation += len(run)
        catalog: List[Tuple[str, Optional[SegmentMeta]]] = [
            (meta.name, meta) for meta in store._metas
        ] + [(name, None) for name in run]
        healthy: List[SegmentMeta] = []
        dropped = 0
        for name, meta in catalog:
            try:
                segment = store._segment(name)
            except TornSegmentError as exc:
                _TORN.inc()
                if not repair:
                    raise
                dropped += 1
                logger.warning("dropping torn segment from catalog: %s", exc)
                continue
            healthy.append(segment.meta() if meta is None else meta)
        store._metas = healthy
        store._total_rows = sum(meta.rows for meta in healthy)
        if dropped:
            store._generation += 1
            store._save_snapshot()
            store._fire_commit_hooks("repair", [])
        store._set_gauges()
        return store

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Catalog mutation counter (cache key for readers/pools)."""
        return self._generation

    @property
    def metas(self) -> List[SegmentMeta]:
        """Catalog entries in arrival order."""
        return list(self._metas)

    @property
    def n_segments(self) -> int:
        return len(self._metas)

    @property
    def total_rows(self) -> int:
        return self._total_rows

    @property
    def t_min(self) -> float:
        return min((m.t_min for m in self._metas), default=0.0)

    @property
    def t_max(self) -> float:
        return max((m.t_max for m in self._metas), default=0.0)

    def set_source(self, source: Dict[str, object]) -> None:
        """Record what this store was spooled from, in a new snapshot."""
        self.source = source
        self._save_snapshot()

    # ------------------------------------------------------------------
    # Commit hooks (the query plane's index-maintenance seam)
    # ------------------------------------------------------------------
    def add_commit_hook(
        self,
        hook: Callable[["SegmentStore", str, List[SegmentMeta]], None],
    ) -> None:
        """Register ``hook(store, event, new_metas)`` on catalog commits.

        Fired *after* the commit is durable — the segment's rename for
        an append, the snapshot otherwise — with ``event`` one of
        ``"append"`` (``new_metas`` holds the one new segment),
        ``"compact"``, ``"truncate"`` or ``"repair"`` (``new_metas``
        empty — the catalog changed shape and incremental maintenance
        is not possible).  Hooks maintain *derived* state (secondary
        indexes); a hook failure is logged and counted but never fails
        the commit itself — the derived state is rebuildable, the
        catalog is the truth.
        """
        self._commit_hooks.append(hook)

    def remove_commit_hook(self, hook) -> None:
        """Unregister a previously added commit hook (missing = no-op)."""
        try:
            self._commit_hooks.remove(hook)
        except ValueError:
            pass

    def _fire_commit_hooks(self, event: str, new_metas: List[SegmentMeta]) -> None:
        for hook in list(self._commit_hooks):
            try:
                hook(self, event, new_metas)
            except Exception:
                _HOOK_FAILURES.inc(event=event)
                logger.exception(
                    "commit hook %r failed on %s of %s (derived state may "
                    "be stale; it will be rebuilt on next open)",
                    hook,
                    event,
                    self.directory,
                )

    def _save_snapshot(self) -> None:
        """Atomically replace ``manifest.json`` with the catalog as it
        stands: every segment, and ``next_id`` past each id in use."""
        faults.io_point("store-manifest")
        snapshot: Dict[str, object] = {
            "format": _MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "generation": self._generation,
            "next_id": self._next_id,
            "segments": [meta.to_json() for meta in self._metas],
        }
        if self.source is not None:
            snapshot["source"] = self.source
        with atomic_write(self.directory / MANIFEST_NAME, "w") as fh:
            fh.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        self._snapshot_version = MANIFEST_VERSION

    def _set_gauges(self) -> None:
        if obs_metrics.is_enabled():
            _SEGMENTS_GAUGE.set(self.n_segments)
            _ROWS_GAUGE.set(self.total_rows)

    def _segment(self, name: str) -> Segment:
        segment = self._segments.get(name)
        if segment is None:
            segment = open_segment(self.directory / name)
            self._segments[name] = segment
        return segment

    def segments(self) -> List[Segment]:
        """All catalogued segments, opened, in arrival order."""
        return [self._segment(meta.name) for meta in self._metas]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_segment(
        self,
        *,
        starts: np.ndarray,
        src_bytes: np.ndarray,
        success: np.ndarray,
        src_codes: np.ndarray,
        dst_codes: np.ndarray,
        hosts: Sequence[str],
        dsts: Sequence[str],
    ) -> SegmentMeta:
        """Write one segment file; its atomic rename commits it.

        Rows must continue the store's arrival order — appends are how
        arrival order is *defined* across segments.  The snapshot is
        not rewritten (unless an older build wrote it), so a commit
        costs the same in a store of any size.
        """
        if self._snapshot_version != MANIFEST_VERSION:
            self._save_snapshot()
        meta = write_segment(
            self.directory / _segment_name(self._next_id),
            starts=starts,
            src_bytes=src_bytes,
            success=success,
            src_codes=src_codes,
            dst_codes=dst_codes,
            hosts=hosts,
            dsts=dsts,
        )
        self._next_id += 1
        self._metas.append(meta)
        self._total_rows += meta.rows
        self._generation += 1
        _SEGMENTS_WRITTEN.inc()
        _ROWS_SPOOLED.inc(meta.rows)
        _BYTES_WRITTEN.inc(meta.file_bytes)
        self._set_gauges()
        self._fire_commit_hooks("append", [meta])
        return meta

    def truncate_rows(self, expected_rows: int) -> int:
        """Drop trailing segments until ``total_rows == expected_rows``.

        The reconciliation primitive for journaled writers: a client of
        the store that records "N rows durable" *after* each atomic
        segment commit can, after a crash, find the catalog ahead of
        its journal — whole trailing segments whose commit record never
        landed.  Because every commit is segment-aligned, the excess is
        exactly a suffix of the catalog; this pops that suffix (one
        snapshot, whose ``next_id`` keeps the dropped ids out of any
        later run; then the files are unlinked) and returns the number
        of rows dropped.

        Raises :class:`StorageError` if no suffix sums to the excess —
        that means the store was written by something that does not
        journal per segment, and blind truncation would destroy
        acknowledged data.
        """
        if expected_rows < 0:
            raise ValueError("expected_rows must be >= 0")
        excess = self.total_rows - expected_rows
        if excess < 0:
            raise StorageError(
                f"{self.directory}: store has {self.total_rows} rows but "
                f"{expected_rows} were journaled — rows are missing, refusing "
                "to reconcile"
            )
        if excess == 0:
            return 0
        kept = list(self._metas)
        dropped: List[SegmentMeta] = []
        remaining = excess
        while remaining > 0 and kept:
            meta = kept.pop()
            dropped.append(meta)
            remaining -= meta.rows
        if remaining != 0:
            raise StorageError(
                f"{self.directory}: no segment suffix sums to the "
                f"{excess}-row excess over the journal — refusing to truncate"
            )
        self._metas = kept
        self._total_rows = expected_rows
        self._generation += 1
        self._save_snapshot()
        for meta in dropped:
            self._segments.pop(meta.name, None)
            try:
                os.unlink(self.directory / meta.name)
            except OSError:
                pass  # below next_id and uncatalogued: inert
        self._set_gauges()
        self._fire_commit_hooks("truncate", [])
        logger.warning(
            "truncated %d orphan row(s) in %d segment(s) from %s",
            excess,
            len(dropped),
            self.directory,
        )
        return excess

    # ------------------------------------------------------------------
    # Catalog-level queries (zone maps only — no column reads)
    # ------------------------------------------------------------------
    def hosts(self) -> List[str]:
        """Sorted union of every segment's initiator table."""
        seen: Dict[str, None] = {}
        for segment in self.segments():
            for host in segment.hosts:
                seen[host] = None
        return sorted(seen)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self, *, min_rows: int, target_rows: Optional[int] = None
    ) -> int:
        """Merge consecutive small segments; return segments removed.

        Adjacent segments with fewer than ``min_rows`` rows are merged
        (preserving arrival order) into segments of up to
        ``target_rows`` (default ``4 * min_rows``).  The merged
        segments' ids are reserved in a snapshot before any is written,
        so a crash before the final snapshot leaves them below
        ``next_id`` — outside the catalog and outside the run — and the
        old catalog intact.  The final snapshot swaps them in; the old
        files are unlinked only afterwards.
        """
        if min_rows < 1:
            raise ValueError("min_rows must be >= 1")
        if target_rows is None:
            target_rows = 4 * min_rows
        metas = list(self._metas)
        groups: List[List[SegmentMeta]] = []
        current: List[SegmentMeta] = []
        current_rows = 0
        for meta in metas:
            small = meta.rows < min_rows
            if small and (current_rows + meta.rows) <= target_rows:
                current.append(meta)
                current_rows += meta.rows
            else:
                if len(current) > 1:
                    groups.append(current)
                current = [meta] if small else []
                current_rows = meta.rows if small else 0
        if len(current) > 1:
            groups.append(current)
        if not groups:
            return 0

        first_id = self._next_id
        self._next_id += len(groups)
        self._save_snapshot()
        merged_for: Dict[str, SegmentMeta] = {}
        obsolete: List[str] = []
        for offset, group in enumerate(groups):
            merged_for[group[0].name] = self._write_merged(
                group, _segment_name(first_id + offset)
            )
            obsolete.extend(m.name for m in group)

        skip = frozenset(obsolete)
        self._metas = [
            merged_for.get(meta.name, meta)
            for meta in metas
            if meta.name in merged_for or meta.name not in skip
        ]
        self._generation += 1
        self._save_snapshot()
        _COMPACTIONS.inc(len(groups))
        removed = 0
        for name in obsolete:
            self._segments.pop(name, None)
            try:
                os.unlink(self.directory / name)
            except OSError:
                # Orphaned data files are harmless: they sit below
                # next_id and no snapshot lists them.
                pass
            removed += 1
        self._set_gauges()
        self._fire_commit_hooks("compact", [])
        logger.info(
            "compacted %d segment(s) into %d (store now has %d)",
            removed,
            len(groups),
            self.n_segments,
        )
        return removed - len(groups)

    def _write_merged(
        self, group: Sequence[SegmentMeta], name: str
    ) -> SegmentMeta:
        """Concatenate a group of segments into one new segment file."""
        hosts = _Codes()
        dsts = _Codes()
        starts: List[np.ndarray] = []
        src_bytes: List[np.ndarray] = []
        success: List[np.ndarray] = []
        src_codes: List[np.ndarray] = []
        dst_codes: List[np.ndarray] = []
        for meta in group:
            segment = self._segment(meta.name)
            host_map = np.fromiter(
                map(hosts.__getitem__, segment.hosts),
                np.int32,
                len(segment.hosts),
            )
            dst_map = np.fromiter(
                map(dsts.__getitem__, segment.dsts), np.int32, len(segment.dsts)
            )
            starts.append(segment.starts)
            src_bytes.append(segment.src_bytes)
            success.append(segment.success)
            src_codes.append(host_map[segment.src_codes])
            dst_codes.append(dst_map[segment.dst_codes])
        meta = write_segment(
            self.directory / name,
            starts=np.concatenate(starts),
            src_bytes=np.concatenate(src_bytes),
            success=np.concatenate(success),
            src_codes=np.concatenate(src_codes),
            dst_codes=np.concatenate(dst_codes),
            hosts=list(hosts),
            dsts=list(dsts),
        )
        _SEGMENTS_WRITTEN.inc()
        _BYTES_WRITTEN.inc(meta.file_bytes)
        return meta

    # ------------------------------------------------------------------
    # Writers / views
    # ------------------------------------------------------------------
    def writer(self, **kwargs) -> SegmentWriter:
        """A :class:`~repro.storage.writer.SegmentWriter` into this store."""
        return SegmentWriter(self, **kwargs)

    def view(self, **kwargs) -> "StoreView":
        """A :class:`~repro.storage.view.StoreView` over this store."""
        from .view import StoreView

        return StoreView(self, **kwargs)


class StoreChain(_SegmentReads):
    """A read-only catalog over several stores, in the order given.

    Its segments are each store's segments in catalog order, one store
    after another, so one gather over the chain sorts the rows with the
    tie order a :class:`~repro.flows.store.FlowStore` gets from
    ``extend``-ing each store's rows in turn.  A
    :class:`~repro.storage.view.StoreView` reads a chain as it reads
    one store; the serve drain scores every epoch's spool through
    one.
    """

    def __init__(self, stores: Sequence[SegmentStore]) -> None:
        self.stores = tuple(stores)

    @property
    def generation(self) -> int:
        """Sum of the stores' generations: each only grows, so the sum
        changes whenever any catalog does."""
        return sum(store.generation for store in self.stores)

    def segments(self) -> List[Segment]:
        return [
            segment for store in self.stores for segment in store.segments()
        ]
