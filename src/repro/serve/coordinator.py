"""The serve coordinator: ingest, supervision, drain, rebalance.

One :class:`ServeCoordinator` owns everything durable and everything
shared; workers are disposable.  The invariants it maintains:

**Spool-before-queue.**  ``ingest`` cuts every accepted chunk into the
epoch spool — one segment store per shard-topology epoch, holding
every shard's rows in arrival order — and journals it *before* it
tells any worker, under the topology lock.  A worker is handed only
the new segment's name and reads its own shard's rows from it; no row
travels through a queue.  A worker can die at any instant without
losing a row: its replacement replays its shard's rows of the spool
from the last finalised window boundary.  The writer never holds a
row between requests, so nothing the coordinator has acknowledged is
outside the spool.

**One verdict per window.**  Workers ship finalised-window verdicts;
the coordinator keys them by ``(epoch, shard, grid-index)`` on the
absolute window grid (``window_origin``) and accepts the first,
counting the rest as duplicates — restart replay can therefore never
double-report a window.

**Drain = batch.**  Per-shard online verdicts cannot equal a global
batch run (the pipeline's percentile thresholds are population-wide),
so the drained verdict is computed by re-scoring the *union* of every
epoch's spool — read as one :class:`~repro.storage.StoreView`
over a :class:`~repro.storage.StoreChain`, never as records — with the
exact batch pipeline (:func:`~repro.detection.pipeline.find_plotters`)
under the service's own
:class:`~repro.detection.pipeline.PipelineConfig`.  The storage
projection is lossless for features, so this is bit-identical to a
batch run over the same flows.

**Rebalance is an epoch barrier.**  Changing the shard count finalises
every in-flight window (synchronised early tumble on the shared grid),
retires the workers, and starts a fresh epoch with a new spool and a
new :class:`~repro.serve.sharding.ShardMap`; old epochs' spools stay
on disk, where the drain rescore — which is shard-agnostic — still
unions them in.

**The coordinator itself is disposable.**  A durable ack makes three
fsyncs: two for the chunk's segment cut (file and directory) and one
for its record in the coordinator log (:mod:`repro.serve.journal`),
both before the HTTP 200; every accepted verdict and epoch barrier is
journaled too.  ``start`` resumes from that log: it rebuilds the
dedupe set, the applied-chunk map and the topology, enumerates every
epoch's spool from disk, truncates any spool suffix a crash left
unjournaled (the owning chunk was never acked; its client resends),
and spawns workers replaying from the last finalised window boundary
— which is exactly what HA promotion (:mod:`repro.serve.ha`) does
under a new fencing incarnation.  A log or spool written in the older
one-spool-per-shard layout is refused.

**Backpressure and quarantine.**  ``max_backlog_rows`` bounds the rows
forwarded to workers but not yet acknowledged by them; over the
watermark, ingest raises :class:`BacklogFull` (HTTP 429 +
``Retry-After``) instead of queueing unboundedly.  A shard whose
workers die ``respawn_max_failures`` times inside ``respawn_window``
trips a per-shard circuit breaker and is **quarantined**: it keeps
spooling durably (the drain rescore still covers every row) but is no
longer respawned or scored live — reported, not crash-looped.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue as queue_mod
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..detection.pipeline import PipelineResult, find_plotters
from ..flows.argus import FlowColumns, loads_columns
from ..obs import metrics as obs_metrics
from ..obs.http import MetricsServer
from ..obs.ledger import suspects_checksum
from ..obs.logconf import get_logger
from ..resilience import StageGuard, atomic_write_text, faults
from ..storage import DEFAULT_SEGMENT_ROWS, SegmentStore, StoreChain, StoreView
from ..storage.format import StorageError
from .config import ServeConfig
from .journal import COORD_LOG_NAME, CoordinatorLog, LogState
from .sharding import ShardMap
from .worker import worker_main

__all__ = ["ServeCoordinator", "BacklogFull", "NotLeader"]

logger = get_logger("serve.coordinator")

_INGEST_ROWS = obs_metrics.counter(
    "repro_serve_ingest_rows_total",
    "Flow rows accepted by the ingest endpoint",
)
_INGEST_REQUESTS = obs_metrics.counter(
    "repro_serve_ingest_requests_total",
    "POST /ingest requests handled",
)
_VERDICTS = obs_metrics.counter(
    "repro_serve_verdicts_total",
    "Finalised-window verdicts received from workers, by outcome",
    labels=("result",),
)
_RESTARTS = obs_metrics.counter(
    "repro_serve_worker_restarts_total",
    "Worker processes restarted after an unexpected death",
)
_WORKERS = obs_metrics.gauge(
    "repro_serve_workers", "Live detection worker processes"
)
_EPOCH = obs_metrics.gauge(
    "repro_serve_epoch", "Current shard-topology epoch"
)
_SPOOLED = obs_metrics.gauge(
    "repro_serve_spooled_rows", "Rows ingested into the epoch spools"
)
_INCARNATION = obs_metrics.gauge(
    "repro_serve_incarnation",
    "Fencing incarnation this coordinator leads under (0 = non-HA)",
)
_BACKLOG = obs_metrics.gauge(
    "repro_serve_backlog_rows",
    "Rows forwarded to workers but not yet acknowledged by them",
)
_REJECTED = obs_metrics.counter(
    "repro_serve_ingest_rejected_total",
    "Ingest chunks rejected by admission control, by reason",
    labels=("reason",),
)
_DUP_CHUNKS = obs_metrics.counter(
    "repro_serve_duplicate_chunks_total",
    "Resent ingest chunks deduplicated by client sequence number",
)
_QUARANTINED = obs_metrics.gauge(
    "repro_serve_quarantined_shards",
    "Shards quarantined by the worker-respawn circuit breaker",
)
_SINK_ERRORS = obs_metrics.counter(
    "repro_serve_verdict_sink_errors_total",
    "Verdict-DB sink writes that failed (verdict still accepted)",
)


class BacklogFull(RuntimeError):
    """Ingest admission control rejected a chunk (HTTP 429).

    ``retry_after`` is the advisory backoff in seconds the HTTP layer
    publishes as the ``Retry-After`` header.
    """

    def __init__(self, backlog_rows: int, watermark: int) -> None:
        self.backlog_rows = backlog_rows
        self.watermark = watermark
        # Rough worker drain rate; the client treats this as a hint,
        # its RetryPolicy still owns the actual schedule.
        self.retry_after = max(0.2, min(30.0, backlog_rows / 20_000.0))
        super().__init__(
            f"ingest backlog {backlog_rows} rows over the "
            f"{watermark}-row watermark"
        )


class NotLeader(RuntimeError):
    """This coordinator has been fenced out of leadership (HTTP 409)."""


class _Worker:
    """One shard's current worker incarnation (coordinator-side)."""

    def __init__(
        self,
        shard: int,
        incarnation: int,
        epoch: int,
        process,
        inbox,
        outbox,
    ) -> None:
        self.shard = shard
        self.incarnation = incarnation
        self.epoch = epoch
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.retired = False


class ServeCoordinator:
    """Shard hosts across resident detection workers; own the spools."""

    def __init__(self, config: ServeConfig, *, incarnation: int = 0) -> None:
        self.config = config
        self.root = Path(config.spool_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.epoch = 0
        self.shard_map = ShardMap(config.n_shards)
        self.restarts = 0
        self.rows_ingested = 0
        #: Fencing counter this coordinator leads under (the lease
        #: fence in HA mode, 0 for a plain single coordinator).
        self.incarnation = incarnation
        #: HA hook: when set (by :mod:`repro.serve.ha`), ingest calls
        #: it before durable side effects and answers 409 once it
        #: returns ``False`` — a fenced-out ex-primary stops accepting
        #: writes the moment the standby takes over.
        self.fence_guard: Optional[Callable[[], bool]] = None
        #: Degradation reporting for the respawn circuit breakers.
        self.guard = StageGuard(name="serve")
        self.server: Optional[MetricsServer] = None
        #: Set by ``POST /drain`` or a signal handler; whoever runs the
        #: service (the CLI main loop, a test) waits on it and then
        #: calls :meth:`drain` — the HTTP handler itself cannot, since
        #: draining tears the server down.
        self.drain_requested = threading.Event()

        # _lock orders topology + spool writes (ingest, restart,
        # rebalance, drain).  _state_lock guards the verdict/reply
        # state that the supervisor thread and HTTP threads both touch;
        # it is always taken after _lock, never around a blocking call.
        self._lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._mp = mp.get_context("spawn")
        self._workers: Dict[int, _Worker] = {}
        #: The epoch spool's writer; it never holds rows between acks.
        self._writer = None
        self._spool_dirs: List[Path] = []
        self._accepted: Dict[Tuple[int, int, int], Dict] = {}
        self._last_final_end: Dict[Tuple[int, int], float] = {}
        self._duplicates = 0
        #: client id -> (last applied chunk seq, its ack payload)
        self._applied: Dict[str, Tuple[int, Dict]] = {}
        self._duplicate_chunks = 0
        #: shard -> rows forwarded to the worker but not yet acked
        self._pending: Dict[int, int] = defaultdict(int)
        self._quarantined: Set[int] = set()
        self._breakers: Dict[int, object] = {}
        self._log: Optional[CoordinatorLog] = None
        self._seq = 0
        self._eval_replies: Dict[int, Dict[int, Dict]] = {}
        self._reply_cond = threading.Condition(self._state_lock)
        #: Optional query-plane sink: every accepted verdict (and the
        #: drain rescore) is recorded into this VerdictDB.  Sink
        #: failures degrade to logging — the verdict path never fails
        #: on a DB error.
        self._verdict_db = None
        self._draining = threading.Event()
        self._stop_supervisor = threading.Event()
        self._supervisor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, log_state: Optional[LogState] = None) -> None:
        """Resume from the coordinator log, then spawn workers + routes.

        ``log_state`` lets a warm standby hand over the journal state
        it has been tailing (promotion without re-reading the file);
        otherwise the log is read from disk.  On a fresh spool both
        paths are empty and this is a plain cold start.
        """
        from .http import build_routes

        obs_metrics.enable()
        if self.config.verdict_db is not None and self._verdict_db is None:
            try:
                from ..query.verdicts import VerdictDB

                self._verdict_db = VerdictDB(self.config.verdict_db)
            except Exception:
                _SINK_ERRORS.inc()
                logger.exception(
                    "cannot open verdict DB %s; serving without the sink",
                    self.config.verdict_db,
                )
        with self._lock:
            self._resume(log_state)
            self._log = CoordinatorLog(self.root / COORD_LOG_NAME)
            if self._log_epoch_needed:
                self._log.append(
                    {
                        "kind": "epoch",
                        "epoch": self.epoch,
                        "n_shards": self.shard_map.n_shards,
                    }
                )
            _EPOCH.set(self.epoch)
            _INCARNATION.set(self.incarnation)
            _SPOOLED.set(self.rows_ingested)
            self._spawn_epoch()
        self.server = MetricsServer(
            port=self.config.port,
            host=self.config.host,
            routes=build_routes(self),
            extra_summary=self._summary_state,
        )
        self._supervisor = threading.Thread(
            target=self._supervise,
            name="repro-serve-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        logger.info(
            "serve coordinator up: %d shard(s), window=%ss, url=%s",
            self.shard_map.n_shards,
            self.config.window,
            self.server.url,
        )

    def _resume(self, log_state: Optional[LogState]) -> None:
        """Rebuild coordinator state from the journal (caller holds lock).

        Restores topology, the verdict dedupe set, the applied-chunk
        map and the ingest row count; enumerates every epoch's spool
        from disk; and truncates the current epoch's spool suffix
        whose chunk record never landed (the crash window between
        segment cut and journal append; the owning client never got
        its ack and resends).  Refuses a log or spool in the
        one-spool-per-shard layout of older builds: its rows cannot be
        reconciled against per-epoch watermarks.
        """
        state = log_state
        if state is None:
            state = CoordinatorLog.load_state(self.root / COORD_LOG_NAME)
        if state.drained:
            raise RuntimeError(
                f"{self.root}: spool was already drained; refusing to serve "
                "over a finalised report"
            )
        if state.per_shard_layout or any(self.root.glob("epoch-*/shard-*")):
            raise RuntimeError(
                f"{self.root}: spool is in the one-spool-per-shard layout "
                "(epoch-*/shard-* directories, per-shard 'cum' journal "
                "records); drain it with the build that wrote it"
            )
        self._log_epoch_needed = state.epoch is None
        if state.epoch is not None:
            # The journaled topology wins over the config: promotion
            # must honour a rebalance the previous leader performed.
            self.epoch = state.epoch
            self.shard_map = ShardMap(state.n_shards or self.config.n_shards)
        self._accepted = dict(state.accepted)
        self._last_final_end = dict(state.last_final_end)
        self._applied = dict(state.applied)
        self.rows_ingested = state.rows_ingested
        self._spool_dirs = sorted(
            d for d in self.root.glob("epoch-*") if d.is_dir()
        )
        try:
            store = SegmentStore.open(self._epoch_dir(), repair=True)
        except (StorageError, OSError):
            pass  # no spool yet: nothing to reconcile
        else:
            store.truncate_rows(state.cum.get(self.epoch, 0))
        if state.records:
            logger.info(
                "resumed from coordinator log: epoch %d, %d row(s), "
                "%d finalised window(s), %d client(s), incarnation %d",
                self.epoch,
                self.rows_ingested,
                len(self._accepted),
                len(self._applied),
                self.incarnation,
            )

    def close(self) -> None:
        """Stop the control plane, supervisor and workers (idempotent).

        A drained coordinator's workers are already gone; closing an
        undrained one stops them without finalising — ``close`` is the
        "just shut it down" path, :meth:`drain` the graceful one.
        """
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        with self._lock:
            if any(not worker.retired for worker in self._workers.values()):
                self._draining.set()
                self._stop_workers(finalize=False)
        if self.server is not None:
            self.server.close()
            self.server = None
        if self._log is not None:
            self._log.close()
            self._log = None
        if self._verdict_db is not None:
            try:
                self._verdict_db.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
            self._verdict_db = None

    def __enter__(self) -> "ServeCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def verdict_db(self):
        """The attached :class:`~repro.query.verdicts.VerdictDB`, if
        any — the ``/query/*`` routes answer 404 without one."""
        return self._verdict_db

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _epoch_dir(self) -> Path:
        return self.root / f"epoch-{self.epoch:03d}"

    def _spawn_epoch(self) -> None:
        """Create this epoch's spool and one worker per shard.

        Idempotent against resume: a spool that already exists on disk
        is reopened and each worker replays its shard's rows from the
        last journaled finalised-window boundary — a promoted
        coordinator's workers rebuild exactly the unfinalised window
        state the dead primary's workers held.
        """
        spool_dir = self._epoch_dir()
        # The ack path cuts every chunk itself, in runs of at most
        # segment_rows rows, so the writer's own thresholds never fire.
        self._writer = SegmentStore.create(spool_dir, exist_ok=True).writer(
            segment_rows=sys.maxsize, segment_bytes=sys.maxsize
        )
        if spool_dir not in self._spool_dirs:
            self._spool_dirs.append(spool_dir)
        for shard in range(self.shard_map.n_shards):
            self._breakers[shard] = self.guard.breaker(
                "serve-worker-respawn",
                max_failures=self.config.respawn_max_failures,
                window=self.config.respawn_window or None,
                from_mode="respawn",
                to_mode="quarantined",
                name=f"worker-respawn:{self.epoch}.{shard}",
            )
            replay_t0 = self._last_final_end.get((self.epoch, shard))
            self._spawn_worker(shard, incarnation=0, replay_t0=replay_t0)

    def _spawn_worker(
        self, shard: int, incarnation: int, replay_t0: Optional[float]
    ) -> None:
        inbox = self._mp.Queue()
        outbox = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(
                shard,
                incarnation,
                self.config,
                inbox,
                outbox,
                str(self._epoch_dir()),
                self.shard_map.n_shards,
                replay_t0,
            ),
            name=f"repro-serve-worker-{shard}.{incarnation}",
            daemon=True,
        )
        process.start()
        self._workers[shard] = _Worker(
            shard,
            incarnation,
            self.epoch,
            process,
            inbox,
            outbox,
        )
        _WORKERS.set(len(self._workers))

    def _restart_worker(self, worker: _Worker) -> None:
        """Replace a dead worker (caller holds ``_lock``).

        Re-checks the draining/stop flags *under the lock*: ``close``
        sets them and then takes the same lock to stop workers, so
        without this check a supervisor pass that saw the worker dead
        just before ``close`` could spawn a replacement behind the
        shutdown — a leaked live process after ``close`` returned.
        """
        if self._draining.is_set() or self._stop_supervisor.is_set():
            return  # shutdown has begun; never spawn behind it
        current = self._workers.get(worker.shard)
        if current is not worker or worker.retired:
            return  # already replaced (or deliberately retired)
        self._drain_outbox(worker)  # salvage shipped-but-unread messages
        worker.process.join(timeout=1.0)
        worker.retired = True
        # The dead worker's unacked segments are replayed from the
        # spool, not re-forwarded, so they leave the backlog.
        with self._state_lock:
            self._pending[worker.shard] = 0
            _BACKLOG.set(sum(self._pending.values()))
        breaker = self._breakers[worker.shard]
        if breaker.record_failure(
            f"worker {worker.shard}.{worker.incarnation} died"
        ):
            # Poisoned shard: stop crash-looping.  Rows keep spooling
            # durably (the drain rescore still covers them); live
            # scoring for this shard stops until an operator
            # rebalances into a fresh epoch.
            self._quarantined.add(worker.shard)
            _QUARANTINED.set(len(self._quarantined))
            logger.error(
                "shard %d quarantined after %d worker death(s); "
                "spooling continues, live scoring suspended",
                worker.shard,
                self.config.respawn_max_failures,
            )
            return
        replay_t0 = self._last_final_end.get((self.epoch, worker.shard))
        logger.warning(
            "worker for shard %d died (incarnation %d); restarting "
            "with replay from t0=%s",
            worker.shard,
            worker.incarnation,
            replay_t0,
        )
        self._spawn_worker(worker.shard, worker.incarnation + 1, replay_t0)
        self.restarts += 1
        _RESTARTS.inc()

    def _stop_workers(self, finalize: bool) -> None:
        """Finalise + stop every worker and reap it (caller holds lock)."""
        for worker in self._workers.values():
            try:
                if finalize:
                    self._seq += 1
                    worker.inbox.put(("finalize", self._seq, None))
                self._seq += 1
                worker.inbox.put(("stop", self._seq))
            except (OSError, ValueError):  # queue already broken: reap below
                pass
        deadline = time.monotonic() + 30.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - last resort
                logger.warning(
                    "worker %d.%d did not stop; terminating",
                    worker.shard,
                    worker.incarnation,
                )
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            self._drain_outbox(worker)
            worker.retired = True

    def rebalance(self, n_shards: int) -> Dict[str, object]:
        """Change the shard count: epoch barrier + fresh workers.

        Every in-flight window is finalised first (a synchronised early
        tumble — all workers share the absolute window grid, so the
        finalised windows line up), then the epoch increments and a new
        spool and workers start.  Old spools are left in place for the
        drain rescore.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        with self._lock:
            if self._draining.is_set():
                raise RuntimeError("cannot rebalance while draining")
            previous = self.shard_map.n_shards
            self._stop_workers(finalize=True)
            self._workers = {}
            self._breakers = {}
            with self._state_lock:
                self._pending = defaultdict(int)
                _BACKLOG.set(0)
            self._quarantined = set()
            _QUARANTINED.set(0)
            self.epoch += 1
            self.shard_map = ShardMap(n_shards)
            if self._log is not None:
                # Journal the barrier before any new-epoch spool exists:
                # a crash after this record resumes in the new epoch
                # with empty spools, one before it resumes in the old —
                # either way consistent.
                self._log.append(
                    {
                        "kind": "epoch",
                        "epoch": self.epoch,
                        "n_shards": n_shards,
                    }
                )
            _EPOCH.set(self.epoch)
            self._spawn_epoch()
        logger.info(
            "rebalanced %d -> %d shard(s); now epoch %d",
            previous,
            n_shards,
            self.epoch,
        )
        return {
            "epoch": self.epoch,
            "n_shards": n_shards,
            "previous_n_shards": previous,
        }

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Collect worker messages as they arrive; respawn the dead.

        Sleeps on every outbox's read end, so an ack or verdict is
        handled the moment it lands; the 50 ms timeout paces only the
        liveness check.  A dead worker cannot make the loop spin: its
        outbox is drained on every pass and never reaches EOF, since
        this process holds the queue's write end too.
        """
        while not self._stop_supervisor.is_set():
            workers = list(self._workers.values())
            for worker in workers:
                self._drain_outbox(worker)
                if (
                    not worker.retired
                    and not worker.process.is_alive()
                    and not self._draining.is_set()
                ):
                    with self._lock:
                        self._restart_worker(worker)
            # mp.Queue exposes no public handle to wait on; _reader is
            # the pipe end its get() reads.
            mp_connection.wait(
                [worker.outbox._reader for worker in workers], timeout=0.05
            )

    def _drain_outbox(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.outbox.get_nowait()
            except queue_mod.Empty:
                return
            except (EOFError, OSError):  # queue broken by a killed writer
                return
            try:
                self._handle_message(worker, message)
            except Exception:  # pragma: no cover - never kill supervision
                logger.exception("bad worker message from shard %d", worker.shard)

    def _handle_message(self, worker: _Worker, message) -> None:
        kind, shard, incarnation, seq, payload, finals, delta = message
        if delta:
            obs_metrics.get_registry().merge_delta(delta)
        for verdict in finals:
            self._accept_final(worker.epoch, shard, verdict)
        if kind == "ack":
            rows = int((payload or {}).get("rows", 0))
            with self._state_lock:
                self._pending[shard] = max(0, self._pending[shard] - rows)
                _BACKLOG.set(sum(self._pending.values()))
        elif kind == "evaluated":
            with self._reply_cond:
                self._eval_replies.setdefault(seq, {})[shard] = payload
                self._reply_cond.notify_all()

    def _grid_index(self, evaluated_at: float) -> int:
        """The absolute window-grid slot a finalised verdict ends."""
        return round(
            (evaluated_at - self.config.window_origin) / self.config.window
        )

    def _accept_final(self, epoch: int, shard: int, verdict: Dict) -> None:
        end = float(verdict["evaluated_at"])
        key = (epoch, shard, self._grid_index(end))
        with self._state_lock:
            if key in self._accepted:
                self._duplicates += 1
                _VERDICTS.inc(result="duplicate")
                return
            self._accepted[key] = verdict
            previous = self._last_final_end.get((epoch, shard), float("-inf"))
            self._last_final_end[(epoch, shard)] = max(previous, end)
        if self._log is not None:
            # The journaled verdict is what lets a promoted standby
            # resume the same dedupe set and replay boundary.
            self._log.append(
                {
                    "kind": "verdict",
                    "epoch": epoch,
                    "shard": shard,
                    "grid": key[2],
                    "verdict": verdict,
                }
            )
        if self._verdict_db is not None:
            # The DB's own (source, epoch, shard, window) identity
            # deduplicates a second time, so failover replays that
            # bypass this coordinator's in-memory set still record once.
            try:
                self._verdict_db.record_serve_verdict(
                    epoch, f"shard-{shard:02d}", verdict
                )
            except Exception:
                _SINK_ERRORS.inc()
                logger.exception(
                    "verdict-DB sink write failed (epoch %d shard %d)",
                    epoch,
                    shard,
                )
        _VERDICTS.inc(result="accepted")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def backlog_rows(self) -> int:
        """Rows forwarded to workers but not yet acknowledged by them."""
        with self._state_lock:
            return sum(self._pending.values())

    def ingest(
        self,
        text: str,
        *,
        client: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Dict[str, object]:
        """Parse an Argus-CSV payload, cut it into the epoch spool,
        hand the segment to the workers.

        ``client``/``seq`` opt the chunk into exactly-once delivery:
        an already-applied ``(client, seq)`` returns its original ack
        with ``duplicate: true`` and does nothing else, so a client
        that resends after a lost ack (coordinator death, dropped
        connection) can never double-ingest.  The ack ordering is
        spool-append → segment cut → journal append → hand-off → ack;
        every crash interleaving either truncates an unacked suffix at
        promotion or deduplicates the resend.
        """
        if self._draining.is_set():
            raise RuntimeError("service is draining; ingest is closed")
        if self.fence_guard is not None and not self.fence_guard():
            _REJECTED.inc(reason="fenced")
            raise NotLeader(
                "coordinator has been fenced out of leadership; rediscover "
                "the primary"
            )
        if client is not None and seq is None:
            raise ValueError("a client id requires a chunk sequence number")
        if client is not None:
            with self._state_lock:
                entry = self._applied.get(client)
                if entry is not None and seq <= entry[0]:
                    self._duplicate_chunks += 1
                    _DUP_CHUNKS.inc()
                    reply = dict(entry[1])
                    reply["duplicate"] = True
                    return reply
        if self.config.max_backlog_rows is not None:
            backlog = self.backlog_rows()
            if backlog > self.config.max_backlog_rows:
                _REJECTED.inc(reason="backlog")
                raise BacklogFull(backlog, self.config.max_backlog_rows)
        columns, report = loads_columns(text, errors=self.config.on_parse_error)
        rows_ok = len(columns.src)
        with self._lock:
            cuts = self._cut(columns)
            per_shard = sum(
                (counts for _, counts in cuts),
                np.zeros(self.shard_map.n_shards, dtype=np.int64),
            )
            reply: Dict[str, object] = {
                "rows_ok": rows_ok,
                "rows_bad": report.rows_bad,
                "shards": {
                    str(shard): int(per_shard[shard])
                    for shard in np.flatnonzero(per_shard).tolist()
                },
            }
            # The injected coordinator SIGKILL strikes here — rows
            # durable, chunk not yet journaled — the exact window
            # promotion's orphan-segment truncation closes.
            faults.serve_coord_exit_once()
            if rows_ok or client is not None:
                self._log.append(
                    {
                        "kind": "chunk",
                        "client": client,
                        "seq": seq,
                        "epoch": self.epoch,
                        "rows": rows_ok,
                        "cum": self._writer.store.total_rows,
                        "reply": reply,
                    }
                )
            for name, counts in cuts:
                for shard in np.flatnonzero(counts).tolist():
                    if shard in self._quarantined:
                        continue  # durable in the spool; drain covers it
                    rows = int(counts[shard])
                    self._seq += 1
                    self._workers[shard].inbox.put(
                        ("flows", self._seq, (name, rows))
                    )
                    with self._state_lock:
                        self._pending[shard] += rows
            with self._state_lock:
                _BACKLOG.set(sum(self._pending.values()))
                if client is not None:
                    previous = self._applied.get(client)
                    if previous is None or seq > previous[0]:
                        self._applied[client] = (seq, dict(reply))
            self.rows_ingested += rows_ok
            _SPOOLED.set(self.rows_ingested)
        _INGEST_REQUESTS.inc()
        _INGEST_ROWS.inc(rows_ok)
        return reply

    def _cut(self, columns: FlowColumns) -> List[Tuple[str, np.ndarray]]:
        """Cut a chunk into the epoch spool (caller holds ``_lock``).

        One segment, or one per ``segment_rows`` rows of a larger
        chunk.  Returns each segment's name and its rows per shard,
        counted over the writer's host codes: each host of the segment
        is placed once, then one ``bincount`` runs over the rows.
        """
        step = self.config.segment_rows or DEFAULT_SEGMENT_ROWS
        cuts = []
        for start in range(0, len(columns.src), step):
            self._writer.append_columns(
                *columns.take(slice(start, start + step))
            )
            hosts, codes = self._writer.buffered_hosts()
            counts = np.bincount(
                self.shard_map.shards(hosts)[codes],
                minlength=self.shard_map.n_shards,
            )
            self._writer.cut()
            cuts.append((self._writer.last_segment.name, counts))
        return cuts

    # ------------------------------------------------------------------
    # Live verdicts
    # ------------------------------------------------------------------
    def evaluate(self, timeout: float = 15.0) -> Dict[str, object]:
        """Score every shard's current window, without tumbling it."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            shards = [
                shard
                for shard in self._workers
                if shard not in self._quarantined
            ]
            for shard in shards:
                self._workers[shard].inbox.put(("evaluate", seq, None))
        deadline = time.monotonic() + timeout
        with self._reply_cond:
            while (
                len(self._eval_replies.get(seq, {})) < len(shards)
                and time.monotonic() < deadline
            ):
                self._reply_cond.wait(0.1)
            replies = self._eval_replies.pop(seq, {})
        live: Set[str] = set()
        for verdict in replies.values():
            live.update(verdict["suspects"])
        return {
            "shards": {str(s): replies.get(s) for s in sorted(shards)},
            "replied": sorted(replies),
            "suspects": sorted(live),
        }

    def verdicts_doc(
        self,
        host: Optional[str] = None,
        since: Optional[float] = None,
    ) -> Dict[str, object]:
        """Finalised-window verdicts and the cumulative suspect set.

        ``host`` keeps only windows in which that host was evaluated
        (present in the window's ``reduced`` or ``suspects`` set);
        ``since`` keeps only windows finalised at/after that timestamp.
        Filters see the *deduplicated* verdict set — a window the
        dedupe path dropped as a duplicate can never reappear through a
        filter — and the ``duplicate_verdicts`` counter stays global so
        a filtered read still exposes replay pressure.
        """
        with self._state_lock:
            items = sorted(self._accepted.items())
            duplicates = self._duplicates
        suspects: Set[str] = set()
        finalized = []
        for (epoch, shard, grid), verdict in items:
            if since is not None and float(verdict["evaluated_at"]) < since:
                continue
            if host is not None and not (
                host in verdict.get("suspects", ())
                or host in verdict.get("reduced", ())
            ):
                continue
            suspects.update(verdict["suspects"])
            finalized.append(
                {"epoch": epoch, "shard": shard, "grid_window": grid, **verdict}
            )
        doc: Dict[str, object] = {
            "finalized": finalized,
            "windows_finalized": len(finalized),
            "suspects": sorted(suspects),
            "suspects_count": len(suspects),
            "duplicate_verdicts": duplicates,
            "duplicate_chunks": self._duplicate_chunks,
            "rows_ingested": self.rows_ingested,
            "incarnation": self.incarnation,
        }
        if host is not None or since is not None:
            doc["filter"] = {"host": host, "since": since}
        return doc

    def shards_doc(self) -> Dict[str, object]:
        """Topology and per-worker liveness (the recovery test's probe)."""
        with self._lock:
            hosts = self.shard_map.hosts_per_shard()
            workers = [
                {
                    "shard": worker.shard,
                    "incarnation": worker.incarnation,
                    "epoch": worker.epoch,
                    "pid": worker.process.pid,
                    "alive": worker.process.is_alive(),
                    "hosts": hosts[worker.shard],
                    "last_final_end": self._last_final_end.get(
                        (worker.epoch, worker.shard)
                    ),
                    "quarantined": worker.shard in self._quarantined,
                }
                for worker in sorted(
                    self._workers.values(), key=lambda w: w.shard
                )
            ]
            quarantined = sorted(self._quarantined)
        return {
            "epoch": self.epoch,
            "n_shards": self.shard_map.n_shards,
            "restarts": self.restarts,
            "draining": self.draining,
            "incarnation": self.incarnation,
            "backlog_rows": self.backlog_rows(),
            "quarantined": quarantined,
            "workers": workers,
        }

    def _summary_state(self) -> Dict[str, object]:
        with self._state_lock:
            windows = len(self._accepted)
        return {
            "epoch": self.epoch,
            "n_shards": self.shard_map.n_shards,
            "rows_ingested": self.rows_ingested,
            "windows_finalized": windows,
            "restarts": self.restarts,
            "draining": self.draining,
            "incarnation": self.incarnation,
            "backlog_rows": self.backlog_rows(),
            "quarantined_shards": len(self._quarantined),
        }

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self) -> Tuple[PipelineResult, Dict[str, object]]:
        """SIGTERM path: finalise everything, batch-rescore the spools.

        Closes ingest, tumbles and stops every worker, then runs :func:`find_plotters` over the union of all
        spooled rows — one :class:`~repro.storage.StoreView` over a
        :class:`~repro.storage.StoreChain` of the spools, scored as
        columns — under the service's pipeline config, producing
        the exact batch verdict for the service's whole lifetime of
        traffic.  Writes ``drain.json`` (suspects + order-independent
        checksum + funnel + service counters) and returns the pipeline
        result with the report.
        """
        self._draining.set()
        with self._lock:
            self._stop_workers(finalize=True)
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        # One final sweep: the supervisor is gone, so collect anything
        # the dying workers shipped after its last pass.
        for worker in self._workers.values():
            self._drain_outbox(worker)

        # Every epoch's spool, in epoch order, as one view: one gather
        # ties equal starts as FlowStore.extend over the spools in turn
        # would, so the rescore is the batch run's bit for bit.
        stores = []
        for spool_dir in self._spool_dirs:
            try:
                stores.append(SegmentStore.open(spool_dir))
            except (StorageError, OSError):
                continue
        spooled = StoreView(StoreChain(stores))
        hosts = (
            None
            if self.config.internal_hosts is None
            else set(self.config.internal_hosts)
        )
        result = find_plotters(spooled, hosts, self.config.pipeline)
        suspects = sorted(result.suspects)
        if self._verdict_db is not None:
            # The drain rescore is the service's authoritative batch
            # verdict — record it with full stage evidence.
            try:
                self._verdict_db.record_batch(
                    result,
                    evaluated_at=time.time(),
                    source="drain",
                    epoch=self.epoch,
                    run_id=f"drain-{self.root.name}-{self.incarnation}",
                )
            except Exception:
                _SINK_ERRORS.inc()
                logger.exception("verdict-DB drain record failed")
        doc = self.verdicts_doc()
        report = {
            "suspects": suspects,
            "suspects_sha256": suspects_checksum(suspects),
            "funnel": result.funnel(),
            "rows_rescored": len(spooled),
            "rows_ingested": self.rows_ingested,
            "windows_finalized": doc["windows_finalized"],
            "duplicate_verdicts": doc["duplicate_verdicts"],
            "duplicate_chunks": self._duplicate_chunks,
            "restarts": self.restarts,
            "epochs": self.epoch + 1,
            "incarnation": self.incarnation,
            "quarantined_shards": sorted(self._quarantined),
            "degradations": [str(d) for d in result.degradations]
            + [d.describe() for d in self.guard.degradations],
        }
        atomic_write_text(
            self.root / "drain.json",
            json.dumps(report, indent=2, sort_keys=True) + "\n",
        )
        if self._log is not None:
            # Terminal record: no standby may promote over a drained
            # spool — its report is already published.
            self._log.append({"kind": "drained"})
        logger.info(
            "drained: %d rows rescored, %d suspect(s), checksum %s",
            len(spooled),
            len(suspects),
            report["suspects_sha256"][:12],
        )
        return result, report
