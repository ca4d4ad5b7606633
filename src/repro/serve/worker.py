"""The per-shard detection worker process.

Each worker owns one :class:`~repro.detection.incremental.OnlineDetector`
over its shard's hosts and speaks a tiny command protocol with the
coordinator over a pair of multiprocessing queues (fresh queues per
incarnation — a SIGKILLed producer can leave a queue unusable, so a
replacement worker never inherits its predecessor's):

inbox (coordinator → worker)
    ``("flows", seq, rows)`` — ingest projected flow rows;
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

Workers are intentionally stateless beyond the current window: the
coordinator owns the per-shard spool, so a killed worker's replacement
simply replays the spool from the last finalised window boundary
(``replay_t0``) on the same window grid (``window_origin``) and ends up
scoring the identical window the dead worker was filling.  Flows
travel as rows of the storage plane's five columns — the coordinator
zips them from the columns it decodes and has already validated;
:func:`row_of` is the same projection of one record.  The worker feeds
its detector each inbox batch in one ``ingest_many`` call, as
:class:`FlowRow` tuples — the five attributes the streaming extractor
reads, nothing rebuilt or re-validated — so ingest telemetry is counted
once per batch; :func:`replay_rows` turns the spool's gathered columns into
the same rows, so live ingest and spool replay feed the detector
identical values.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from queue import Empty
from typing import List, NamedTuple, Optional, Tuple

from ..detection.incremental import OnlineDetector
from ..flows.record import FlowRecord
from ..obs import metrics as obs_metrics
from ..resilience import faults
from ..storage import SegmentStore
from ..storage.format import StorageError
from .config import ServeConfig

__all__ = ["FlowRow", "row_of", "replay_rows", "worker_main"]

#: The projected row a flow travels as: (src, dst, start, src_bytes,
#: success) — exactly the columns the storage plane keeps and the
#: features consume.
Row = Tuple[str, str, float, int, bool]


class FlowRow(NamedTuple):
    """One flow as the detector reads it: the attributes
    :meth:`~repro.flows.streaming.StreamingFeatureExtractor.update`
    uses, and no others."""

    src: str
    dst: str
    start: float
    src_bytes: int
    failed: bool


def row_of(flow: FlowRecord) -> Row:
    """Project a flow onto the wire/storage columns."""
    return (
        flow.src,
        flow.dst,
        flow.start,
        flow.src_bytes,
        not flow.state.failed,
    )


def replay_rows(spool_dir: str, replay_t0: Optional[float]) -> List[FlowRow]:
    """The shard spool's rows from ``replay_t0`` on, time-ordered.

    The gather returns rows grouped by host; tumbling-window ingest
    needs global time order (a late host group would straddle an
    already-tumbled boundary), so the rows are stable-sorted by start
    — per-host order is already start-sorted and survives.  Returns
    ``[]`` when the spool is missing, unreadable or empty: a fresh
    worker with nothing to replay.
    """
    try:
        store = SegmentStore.open(spool_dir)
    except (StorageError, OSError):
        return []
    gathered = store.gather(t0=replay_t0)
    dsts = gathered.dsts
    srcs: List[str] = []
    for host, count in zip(gathered.hosts, gathered.counts.tolist()):
        srcs.extend([host] * count)
    rows = [
        FlowRow(src, dsts[dcode], start, size, not ok)
        for src, dcode, start, size, ok in zip(
            srcs,
            gathered.dst_codes.tolist(),
            gathered.starts.tolist(),
            gathered.src_bytes.tolist(),
            gathered.success.tolist(),
        )
    ]
    rows.sort(key=lambda row: row.start)
    return rows


def worker_main(
    shard: int,
    incarnation: int,
    config: ServeConfig,
    inbox,
    outbox,
    spool_dir: str,
    replay_t0: Optional[float],
) -> None:
    """Run one shard's detection loop until told to stop (or killed)."""
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

    replayed = replay_rows(spool_dir, replay_t0)
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
            rows = message[2]
            ingest(
                [
                    FlowRow(src, dst, start, src_bytes, not success)
                    for src, dst, start, src_bytes, success in rows
                ]
            )
            # The injected OOM-kill strikes here — after a batch is in
            # window state but before anything ships — so recovery
            # tests exercise the full replay path, not a lucky
            # already-shipped corner.
            faults.serve_worker_exit_once()
            ship("ack", seq, {"rows": len(rows)})
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
