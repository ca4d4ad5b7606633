"""The per-shard detection worker process.

Each worker owns one :class:`~repro.detection.incremental.OnlineDetector`
over its shard's hosts and speaks a tiny command protocol with the
coordinator over a pair of multiprocessing queues (fresh queues per
incarnation — a SIGKILLed producer can leave a queue unusable, so a
replacement worker never inherits its predecessor's):

inbox (coordinator → worker)
    ``("flows", seq, (segment, rows))`` — ingest this shard's ``rows``
    rows of the epoch spool's newly cut ``segment``;
    ``("evaluate", seq, at)`` — score the current (unfinished) window;
    ``("finalize", seq, at)`` — tumble the current window early
    (drain / rebalance barrier);
    ``("stop", seq)`` — ship everything unshipped and exit.

outbox (worker → coordinator), one shape for every message:
    ``(kind, shard, incarnation, seq, payload, finals, delta)`` where
    ``finals`` is the list of finalised-window verdicts not yet
    shipped and ``delta`` is the worker registry's metric delta since
    the previous ship (:meth:`~repro.obs.metrics.MetricsRegistry.delta_since`),
    which the coordinator folds in with
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_delta`.

Rows never travel through the queue: the coordinator cuts each acked
chunk into the epoch spool (one store for every shard) and names the
segment, and the worker reads from it the rows whose host maps to its
shard under its epoch's shard count — passed at spawn, since a
rebalance changes it.  The rows come in segment order, which is the
chunk's order, as :class:`FlowRow` tuples — the five attributes the
streaming extractor reads, nothing rebuilt or re-validated — fed to
the detector in one ``ingest_many`` call, so ingest telemetry is
counted once per segment.

Workers are intentionally stateless beyond the current window: a
killed worker's replacement replays its shard's rows of the epoch
spool from the last finalised window boundary (``replay_t0``) on the
same window grid (``window_origin``) and ends up scoring the identical
window the dead worker was filling.  :func:`segment_rows` and
:func:`replay_rows` build their rows with one helper, so live ingest
and spool replay feed the detector identical values.  A segment that
the replay already covered (cut after the spawn, before the replay
opened the spool) is acknowledged without being ingested twice.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from itertools import repeat
from pathlib import Path
from queue import Empty
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from ..detection.incremental import OnlineDetector
from ..obs import metrics as obs_metrics
from ..resilience import faults
from ..storage import SegmentStore
from ..storage.format import StorageError, open_segment
from .config import ServeConfig
from .sharding import ShardMap

__all__ = ["FlowRow", "segment_rows", "replay_rows", "worker_main"]


class FlowRow(NamedTuple):
    """One flow as the detector reads it: the attributes
    :meth:`~repro.flows.streaming.StreamingFeatureExtractor.update`
    uses, and no others."""

    src: str
    dst: str
    start: float
    src_bytes: int
    failed: bool


#: ``hosts -> bool array``: which of the hosts belong to this shard.
InShard = Callable[[Sequence[str]], np.ndarray]


def in_shard(shard: int, n_shards: int) -> InShard:
    """The shard-membership test of ``shard`` under ``n_shards``."""
    shard_map = ShardMap(n_shards)
    return lambda hosts: shard_map.shards(hosts) == shard


def _flow_rows(src, dst, start, src_bytes, success) -> List[FlowRow]:
    """Aligned columns (``src``/``dst`` as object arrays of str) as
    rows, in the columns' order."""
    # tuple.__new__ builds each FlowRow in C; the named tuple's own
    # __new__ is a Python call per row, ~40% of the read.
    return list(
        map(
            tuple.__new__,
            repeat(FlowRow),
            zip(
                src.tolist(),
                dst.tolist(),
                start.tolist(),
                src_bytes.tolist(),
                (success == 0).tolist(),
            ),
        )
    )


def segment_rows(path: Path, mine: InShard) -> List[FlowRow]:
    """One spool segment's rows whose host is ``mine``, in segment order.

    The segment's mapping is never closed explicitly — numpy views may
    still export it — it goes when the last reference does.
    """
    segment = open_segment(path)
    codes = segment.src_codes
    rows = np.flatnonzero(mine(segment.hosts)[codes])
    hosts = np.array(segment.hosts, dtype=object)
    dsts = np.array(segment.dsts, dtype=object)
    return _flow_rows(
        hosts[codes[rows]],
        dsts[segment.dst_codes[rows]],
        segment.starts[rows],
        segment.src_bytes[rows],
        segment.success[rows],
    )


def replay_rows(
    store: SegmentStore, mine: InShard, replay_t0: Optional[float]
) -> List[FlowRow]:
    """The spool's rows of ``mine`` hosts from ``replay_t0`` on,
    time-ordered.

    The gather returns rows grouped by host; tumbling-window ingest
    needs global time order (a late host group would straddle an
    already-tumbled boundary), so the rows are stable-sorted by start
    — per-host order is already start-sorted and survives.
    """
    gathered = store.gather(t0=replay_t0)
    keep = np.repeat(mine(gathered.hosts), gathered.counts)
    src = np.repeat(np.array(gathered.hosts, dtype=object), gathered.counts)
    dsts = np.array(gathered.dsts, dtype=object)
    rows = _flow_rows(
        src[keep],
        dsts[gathered.dst_codes[keep]],
        gathered.starts[keep],
        gathered.src_bytes[keep],
        gathered.success[keep],
    )
    rows.sort(key=lambda row: row.start)
    return rows


def worker_main(
    shard: int,
    incarnation: int,
    config: ServeConfig,
    inbox,
    outbox,
    spool_dir: str,
    n_shards: int,
    replay_t0: Optional[float],
) -> None:
    """Run one shard's detection loop until told to stop (or killed).

    ``spool_dir`` is the epoch spool and ``n_shards`` the epoch's
    shard count, which after a rebalance is not ``config.n_shards``.
    """
    obs_metrics.enable()
    registry = obs_metrics.get_registry()
    baseline = registry.state()

    score_all = config.internal_hosts is None
    detector = OnlineDetector(
        internal_hosts=(
            set() if score_all else set(config.internal_hosts)
        ),
        window=config.window,
        config=config.pipeline,
        window_origin=config.window_origin,
    )

    def ingest(rows: List[FlowRow]) -> None:
        if score_all:
            detector.internal_hosts.update(row.src for row in rows)
        detector.ingest_many(rows)

    mine = in_shard(shard, n_shards)
    # A missing, unreadable or empty spool replays nothing.
    try:
        store: Optional[SegmentStore] = SegmentStore.open(spool_dir)
    except (StorageError, OSError):
        store = None
    replayed = [] if store is None else replay_rows(store, mine, replay_t0)
    covered = set() if store is None else {meta.name for meta in store.metas}
    del store
    ingest(replayed)

    shipped = 0

    def ship(kind: str, seq: int, payload: object) -> None:
        nonlocal baseline, shipped
        finals = [
            json.loads(verdict.to_json())
            for verdict in detector.history[shipped:]
        ]
        shipped = len(detector.history)
        delta = registry.delta_since(baseline)
        baseline = registry.state()
        outbox.put((kind, shard, incarnation, seq, payload, finals, delta))

    ship("hello", 0, {"pid": os.getpid(), "replayed": len(replayed)})

    # Orphan watchdog: if the coordinator is SIGKILLed it can never
    # send "stop", and a worker blocked forever on the inbox would
    # linger as an orphan holding the coordinator's inherited pipes
    # (hanging anything that waits for their EOF).  A reparented
    # worker's state is unreachable anyway — the promoted standby
    # spawns fresh workers over the same spool — so exit quietly.
    # The coordinator's pid is the one recorded when it spawned us, not
    # os.getppid() read here: a coordinator killed while this process
    # was still importing has already been replaced by the reaper.
    parent = multiprocessing.parent_process().pid
    while True:
        try:
            message = inbox.get(timeout=1.0)
        except Empty:
            if os.getppid() != parent:
                return
            continue
        command, seq = message[0], message[1]
        if command == "flows":
            name, count = message[2]
            if name not in covered:
                # Segments arrive in cut order: once one is past the
                # replay, every later one is too.
                covered = set()
                rows = segment_rows(Path(spool_dir) / name, mine)
                ingest(rows)
                count = len(rows)
            # The injected OOM-kill strikes here — after a segment's
            # rows are in window state but before anything ships — so
            # recovery tests exercise the full replay path, not a
            # lucky already-shipped corner.
            faults.serve_worker_exit_once()
            ship("ack", seq, {"rows": count})
        elif command == "evaluate":
            verdict = detector.evaluate(message[2])
            ship("evaluated", seq, json.loads(verdict.to_json()))
        elif command == "finalize":
            verdict = detector.finalize_window(message[2])
            ship(
                "finalized",
                seq,
                None if verdict is None else json.loads(verdict.to_json()),
            )
        elif command == "stop":
            ship("stopped", seq, None)
            break
        else:  # pragma: no cover - protocol misuse is a programming error
            ship("error", seq, {"unknown_command": str(command)})
