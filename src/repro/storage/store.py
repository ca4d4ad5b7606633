"""The manifest-backed segment catalog: pruned, mmap'd, compactable.

:class:`SegmentStore` owns one directory of segment files plus a
``manifest.json`` that orders them.  The manifest is the unit of
atomicity: segments are written first (themselves atomic), then the
manifest is atomically swapped, so a crash at any point leaves either
the old catalog or the new one — never a catalog pointing at a
half-written segment.  The ``generation`` counter bumps on every
catalog change; readers key caches on it exactly as engines key on
:attr:`repro.flows.store.FlowStore.version`.

Reading is a **gather**: callers name the hosts (and optionally the
time range) they need and the store scans only the segments whose
zone maps could contain matching rows, memory-maps just the needed
columns, and assembles host-grouped, start-ordered arrays with the
same ordering contract as :meth:`repro.flows.store.FlowStore.columnar`
— stable sort by start time, arrival order breaking ties — so every
downstream kernel is bit-identical to the in-memory plane.
:class:`StoreChain` gathers over several stores' segments in turn, as
if they were one store's.

Compaction merges runs of small segments (ingest tails, per-window
spools) into fewer larger ones, preserving row order; it rewrites data
files but never changes any gather result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
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
    FORMAT_VERSION,
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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .view import StoreView
    from .writer import SegmentWriter

__all__ = [
    "MANIFEST_NAME",
    "Gathered",
    "SegmentStore",
    "StoreChain",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-segment-store"

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


@dataclass(frozen=True)
class Gathered:
    """Host-grouped, start-ordered columns assembled by one gather.

    Matches the layout contract of
    :class:`repro.flows.store.ColumnarFlows`: ``hosts`` is sorted, host
    ``hosts[i]`` owns ``counts[i]`` consecutive rows, rows within a
    host ascend by start time with arrival order breaking ties.
    ``success`` is int64 (not the on-disk uint8) so downstream
    reductions cannot overflow; ``dst_codes`` are store-global dense
    codes — any bijection yields identical features, and
    :meth:`repro.storage.view.StoreView.columnar` recodes them to the
    in-memory plane's first-appearance order when exact snapshot
    equality matters.

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


class _SegmentReads:
    """Zone-map counts and pruned gathers over an ordered segment run.

    Defined once over :meth:`segments` — the catalogued segments in
    arrival order — and shared by one :class:`SegmentStore` and a
    :class:`StoreChain` of several: a chain's gather is one store's
    gather over the concatenated catalogs.
    """

    def segments(self) -> List[Segment]:  # pragma: no cover - abstract
        raise NotImplementedError

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

        # Budget pre-check from zone maps alone: exact when there is no
        # time restriction, skipped (in favour of the exact running
        # check below) when there is.
        if max_rows is not None and t0 is None and t1 is None:
            estimate = 0
            for segment in segments:
                if wanted is None:
                    estimate += segment.rows
                else:
                    index = segment.host_index
                    estimate += sum(
                        int(segment.host_rows[index[h]])
                        for h in wanted
                        if h in index
                    )
            if estimate > max_rows:
                raise StorageBudgetError(
                    f"gather would materialise {estimate} rows, over the "
                    f"budget of {max_rows}"
                )

        pruned_host = 0
        pruned_time = 0
        rows_total = 0
        chunk_host: List[np.ndarray] = []
        chunk_starts: List[np.ndarray] = []
        chunk_bytes: List[np.ndarray] = []
        chunk_success: List[np.ndarray] = []
        chunk_dst: List[np.ndarray] = []
        global_hosts: Dict[str, int] = {}
        global_dsts: Dict[str, int] = {}

        for segment in segments:
            if prune:
                if (t0 is not None and segment.t_max < t0) or (
                    t1 is not None and segment.t_min >= t1
                ):
                    pruned_time += 1
                    _SCANS.inc(result="pruned-time")
                    continue
                if wanted is not None:
                    index = segment.host_index
                    present = [h for h in wanted if h in index]
                    if not present:
                        pruned_host += 1
                        _SCANS.inc(result="pruned-host")
                        continue
                    if t0 is not None or t1 is not None:
                        # Per-host time zone maps: a segment overlapping
                        # the window may still hold none of *these*
                        # hosts' rows inside it.
                        live = [
                            h
                            for h in present
                            if not (
                                (
                                    t0 is not None
                                    and segment.host_t_max[index[h]] < t0
                                )
                                or (
                                    t1 is not None
                                    and segment.host_t_min[index[h]] >= t1
                                )
                            )
                        ]
                        if not live:
                            pruned_host += 1
                            _SCANS.inc(result="pruned-host")
                            continue
            _SCANS.inc(result="read")

            src_codes = segment.src_codes
            if wanted is None:
                remap = np.empty(len(segment.hosts), dtype=np.int64)
                for local, host in enumerate(segment.hosts):
                    remap[local] = global_hosts.setdefault(
                        host, len(global_hosts)
                    )
                mask = None
            else:
                remap = np.full(len(segment.hosts), -1, dtype=np.int64)
                index = segment.host_index
                for host in wanted:
                    local = index.get(host)
                    if local is not None:
                        remap[local] = global_hosts.setdefault(
                            host, len(global_hosts)
                        )
                mask = remap[src_codes] >= 0
            if t0 is not None or t1 is not None:
                starts_col = segment.starts
                tmask = np.ones(segment.rows, dtype=bool)
                if t0 is not None:
                    tmask &= starts_col >= t0
                if t1 is not None:
                    tmask &= starts_col < t1
                mask = tmask if mask is None else (mask & tmask)
            if mask is not None and not mask.any():
                continue

            dst_remap = np.empty(len(segment.dsts), dtype=np.int64)
            for local, dst in enumerate(segment.dsts):
                dst_remap[local] = global_dsts.setdefault(
                    dst, len(global_dsts)
                )

            if mask is None:
                seg_host = remap[src_codes]
                seg_starts = np.asarray(segment.starts, dtype=np.float64)
                seg_bytes = np.asarray(segment.src_bytes, dtype=np.int64)
                seg_success = segment.success.astype(np.int64)
                seg_dst = dst_remap[segment.dst_codes]
            else:
                seg_host = remap[src_codes[mask]]
                seg_starts = np.asarray(
                    segment.starts[mask], dtype=np.float64
                )
                seg_bytes = np.asarray(
                    segment.src_bytes[mask], dtype=np.int64
                )
                seg_success = segment.success[mask].astype(np.int64)
                seg_dst = dst_remap[segment.dst_codes[mask]]
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

        # Present hosts in sorted order, renumbered densely.  The codes
        # in ``host_idx`` are first-appearance order; translate them to
        # sorted order before grouping.
        ordered_hosts = sorted(global_hosts)
        translate = np.empty(len(global_hosts), dtype=np.int64)
        for rank, host in enumerate(ordered_hosts):
            translate[global_hosts[host]] = rank
        host_idx = translate[host_idx]

        # The in-memory plane's ordering contract, reproduced: a single
        # stable sort by start time over arrival order (FlowStore's
        # global sort), then a stable group-by host — within each host,
        # rows ascend by start with arrival order breaking ties.
        order = np.argsort(starts_arr, kind="stable")
        order = order[np.argsort(host_idx[order], kind="stable")]

        host_idx = host_idx[order]
        counts = np.bincount(host_idx, minlength=len(ordered_hosts)).astype(
            np.int64
        )
        present = counts > 0
        kept_hosts = tuple(
            h for h, keep in zip(ordered_hosts, present) if keep
        )
        counts = counts[present]

        return Gathered(
            hosts=kept_hosts,
            counts=counts,
            starts=starts_arr[order],
            src_bytes=bytes_arr[order],
            success=success_arr[order],
            dst_codes=dst_arr[order],
            n_destinations=len(global_dsts),
            dsts=tuple(global_dsts),
            segments_read=len(chunk_starts),
            segments_pruned_host=pruned_host,
            segments_pruned_time=pruned_time,
        )


class SegmentStore(_SegmentReads):
    """One directory of segments plus the manifest ordering them."""

    def __init__(self, directory: Union[str, Path], manifest: Dict[str, object]):
        self.directory = Path(directory)
        self._manifest = manifest
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
        """Initialise a fresh store directory (atomically manifested).

        With ``exist_ok`` an existing store is opened instead — the
        spill/spool paths use this to append across runs.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            if exist_ok:
                return cls.open(directory)
            raise StorageError(f"{directory}: segment store already exists")
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, object] = {
            "format": _MANIFEST_FORMAT,
            "version": FORMAT_VERSION,
            "generation": 0,
            "next_id": 0,
            "segments": [],
        }
        store = cls(directory, manifest)
        store._save_manifest()
        return store

    @classmethod
    def open(
        cls, directory: Union[str, Path], *, repair: bool = False
    ) -> "SegmentStore":
        """Open an existing store, validating manifest and segments.

        Every segment footer is validated up front (magic, version,
        CRC, declared sizes), so format drift or torn files surface
        here as :class:`StorageVersionError` / :class:`TornSegmentError`
        — not as a numpy shape error five stages later.  With
        ``repair=True`` torn segments are dropped from the catalog
        (logged, counted in ``repro_storage_torn_segments_total``)
        instead of failing the open; version errors are never
        repaired away.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise StorageError(
                f"{directory}: not a segment store (no {MANIFEST_NAME})"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"{manifest_path}: cannot read store manifest: {exc}"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != _MANIFEST_FORMAT
        ):
            raise StorageError(
                f"{manifest_path}: not a segment-store manifest"
            )
        if manifest.get("version") != FORMAT_VERSION:
            raise StorageVersionError(
                f"{manifest_path}: store format version "
                f"{manifest.get('version')!r} is not supported (this build "
                f"reads version {FORMAT_VERSION})"
            )
        store = cls(directory, manifest)
        healthy: List[Dict[str, object]] = []
        dropped = 0
        for entry in store._manifest["segments"]:
            meta = SegmentMeta.from_json(entry)
            try:
                store._segment(meta.name)
            except TornSegmentError as exc:
                _TORN.inc()
                if not repair:
                    raise
                dropped += 1
                logger.warning(
                    "dropping torn segment from catalog: %s", exc
                )
                continue
            healthy.append(entry)
        if dropped:
            store._manifest["segments"] = healthy
            store._bump_generation()
            store._save_manifest()
            store._fire_commit_hooks("repair", [])
        store._set_gauges()
        return store

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Catalog mutation counter (cache key for readers/pools)."""
        return int(self._manifest["generation"])

    @property
    def metas(self) -> List[SegmentMeta]:
        """Catalog entries in arrival (manifest) order."""
        return [
            SegmentMeta.from_json(entry)
            for entry in self._manifest["segments"]
        ]

    @property
    def n_segments(self) -> int:
        return len(self._manifest["segments"])

    @property
    def total_rows(self) -> int:
        return sum(int(entry["rows"]) for entry in self._manifest["segments"])

    @property
    def t_min(self) -> float:
        metas = self.metas
        return min((m.t_min for m in metas), default=0.0)

    @property
    def t_max(self) -> float:
        metas = self.metas
        return max((m.t_max for m in metas), default=0.0)

    def _bump_generation(self) -> None:
        self._manifest["generation"] = self.generation + 1

    # ------------------------------------------------------------------
    # Commit hooks (the query plane's index-maintenance seam)
    # ------------------------------------------------------------------
    def add_commit_hook(
        self,
        hook: Callable[["SegmentStore", str, List[SegmentMeta]], None],
    ) -> None:
        """Register ``hook(store, event, new_metas)`` on catalog commits.

        Fired *after* the manifest is atomically saved, with ``event``
        one of ``"append"`` (``new_metas`` holds the one new segment),
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

    def _save_manifest(self) -> None:
        faults.io_point("store-manifest")
        with atomic_write(self.directory / MANIFEST_NAME, "w") as fh:
            fh.write(json.dumps(self._manifest, indent=2, sort_keys=True) + "\n")

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
        return [self._segment(m.name) for m in self.metas]

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
        """Write one segment file and commit it to the catalog.

        Rows must continue the store's arrival order — appends are how
        arrival order is *defined* across segments.
        """
        next_id = int(self._manifest["next_id"])
        name = f"seg-{next_id:06d}{SEGMENT_SUFFIX}"
        meta = write_segment(
            self.directory / name,
            starts=starts,
            src_bytes=src_bytes,
            success=success,
            src_codes=src_codes,
            dst_codes=dst_codes,
            hosts=hosts,
            dsts=dsts,
        )
        self._manifest["next_id"] = next_id + 1
        self._manifest["segments"].append(meta.to_json())
        self._bump_generation()
        self._save_manifest()
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
        atomic manifest swap, then the files are unlinked) and returns
        the number of rows dropped.

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
        entries = list(self._manifest["segments"])
        dropped: List[Dict[str, object]] = []
        remaining = excess
        while remaining > 0 and entries:
            entry = entries.pop()
            dropped.append(entry)
            remaining -= int(entry["rows"])
        if remaining != 0:
            raise StorageError(
                f"{self.directory}: no segment suffix sums to the "
                f"{excess}-row excess over the journal — refusing to truncate"
            )
        self._manifest["segments"] = entries
        self._bump_generation()
        self._save_manifest()
        for entry in dropped:
            name = str(entry["name"])
            self._segments.pop(name, None)
            try:
                os.unlink(self.directory / name)
            except OSError:
                pass  # manifest no longer references it; file is orphaned
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
        for meta in self.metas:
            for host in self._segment(meta.name).hosts:
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
        ``target_rows`` (default ``4 * min_rows``).  Merged files are
        committed through a single atomic manifest swap; the old files
        are unlinked only afterwards, so a crash mid-compaction leaves
        a consistent catalog (at worst with orphaned files a later
        compaction cleans up).
        """
        if min_rows < 1:
            raise ValueError("min_rows must be >= 1")
        if target_rows is None:
            target_rows = 4 * min_rows
        metas = self.metas
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

        merged_for: Dict[str, Tuple[List[SegmentMeta], SegmentMeta]] = {}
        obsolete: List[str] = []
        for group in groups:
            merged_meta = self._write_merged(group)
            merged_for[group[0].name] = (group, merged_meta)
            obsolete.extend(m.name for m in group)

        entries: List[Dict[str, object]] = []
        skip: frozenset = frozenset(obsolete)
        for meta in metas:
            if meta.name in merged_for:
                entries.append(merged_for[meta.name][1].to_json())
            elif meta.name not in skip:
                entries.append(meta.to_json())
        self._manifest["segments"] = entries
        self._bump_generation()
        self._save_manifest()
        _COMPACTIONS.inc(len(groups))
        removed = 0
        for name in obsolete:
            self._segments.pop(name, None)
            try:
                os.unlink(self.directory / name)
            except OSError:
                # Orphaned data files are harmless: the manifest no
                # longer references them.
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

    def _write_merged(self, group: Sequence[SegmentMeta]) -> SegmentMeta:
        """Concatenate a group of segments into one new segment file."""
        hosts: Dict[str, int] = {}
        dsts: Dict[str, int] = {}
        starts: List[np.ndarray] = []
        src_bytes: List[np.ndarray] = []
        success: List[np.ndarray] = []
        src_codes: List[np.ndarray] = []
        dst_codes: List[np.ndarray] = []
        for meta in group:
            segment = self._segment(meta.name)
            host_map = np.empty(len(segment.hosts), dtype=np.int32)
            for local, host in enumerate(segment.hosts):
                host_map[local] = hosts.setdefault(host, len(hosts))
            dst_map = np.empty(len(segment.dsts), dtype=np.int32)
            for local, dst in enumerate(segment.dsts):
                dst_map[local] = dsts.setdefault(dst, len(dsts))
            starts.append(np.asarray(segment.starts))
            src_bytes.append(np.asarray(segment.src_bytes))
            success.append(np.asarray(segment.success))
            src_codes.append(host_map[segment.src_codes])
            dst_codes.append(dst_map[segment.dst_codes])
        next_id = int(self._manifest["next_id"])
        name = f"seg-{next_id:06d}{SEGMENT_SUFFIX}"
        self._manifest["next_id"] = next_id + 1
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
    def writer(self, **kwargs) -> "SegmentWriter":
        """A :class:`~repro.storage.writer.SegmentWriter` into this store."""
        from .writer import SegmentWriter

        return SegmentWriter(self, **kwargs)

    def view(self, **kwargs) -> "StoreView":
        """A :class:`~repro.storage.view.StoreView` over this store."""
        from .view import StoreView

        return StoreView(self, **kwargs)


class StoreChain(_SegmentReads):
    """A read-only catalog over several stores, in the order given.

    Its segments are each store's segments in manifest order, one
    store after another, so one gather over the chain sorts the rows
    with the tie order a :class:`~repro.flows.store.FlowStore` gets
    from ``extend``-ing each store's rows in turn.  A
    :class:`~repro.storage.view.StoreView` reads a chain as it reads
    one store; the serve drain scores every epoch's shard spools
    through one.
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
