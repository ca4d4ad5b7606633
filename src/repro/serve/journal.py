"""The coordinator log: one JSONL journal that makes promotion exact.

Workers are disposable — each replays its shard's rows from the epoch
spool.  The coordinator itself holds three pieces of state that would
otherwise live only in memory: the shard-topology epoch, the
``(epoch, shard, grid_index)`` verdict dedupe set, and which client
chunks had been acknowledged.
``coord.log`` journals all three, append-only with an fsync per
record, so a *coordinator* death (SIGKILL, OOM) is as recoverable as a
worker death: the warm standby tails this file and promotes with the
same dedupe, the same epoch, and exactly-once chunk accounting.

Record kinds (one JSON object per line):

``{"kind": "epoch", "epoch": E, "n_shards": N}``
    Topology: appended at first start and at every rebalance barrier.
``{"kind": "chunk", "client": C|null, "seq": S|null, "epoch": E,
"rows": R, "cum": N, "reply": {…}}``
    One acknowledged ingest chunk.  ``cum`` is the epoch spool's
    *durable* row count after the chunk's segment cut — the
    reconciliation watermark: at promotion, spool rows beyond the last
    journaled ``cum`` belong to a chunk that was never acknowledged
    and are truncated (the client will resend).  ``reply`` is the ack
    payload, replayed verbatim for idempotent duplicate resends.  A
    ``cum`` that maps shards to row counts was written by a build that
    kept one spool per shard; :attr:`LogState.per_shard_layout` flags
    it, and the coordinator refuses to resume over it.
``{"kind": "verdict", "epoch": E, "shard": S, "grid": G,
"verdict": {…}}``
    One accepted finalised-window verdict (the dedupe set + the
    replay boundary ``last_final_end`` are both rebuilt from these).
``{"kind": "drained"}``
    Terminal: the spool has been drained and reported; no contender
    may promote over it again.

Ordering is the correctness argument: a chunk's segment is cut
*before* its record is appended, and the record is appended *before*
the client is acked.  Crash between cut and append → durable-but-
unjournaled suffix → truncated at promotion, client resends, applied
once.  Crash between append and ack → client resends, journal says
seen, chunk deduplicated.  No interleaving loses or duplicates a row.

The reader side tolerates a torn final line (a crash mid-append):
:class:`LogTail` simply does not advance past it; the writer
physically truncates it before appending again.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..obs.logconf import get_logger

__all__ = ["COORD_LOG_NAME", "LogState", "LogTail", "CoordinatorLog"]

COORD_LOG_NAME = "coord.log"

logger = get_logger("serve.journal")


@dataclass
class LogState:
    """Everything a promoted coordinator rebuilds from the journal."""

    epoch: Optional[int] = None
    n_shards: Optional[int] = None
    #: client id -> (last applied seq, the ack payload it got)
    applied: Dict[str, Tuple[int, Dict]] = field(default_factory=dict)
    #: (epoch, shard, grid_index) -> verdict (the dedupe set)
    accepted: Dict[Tuple[int, int, int], Dict] = field(default_factory=dict)
    #: (epoch, shard) -> end of the last finalised window
    last_final_end: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: epoch -> journaled durable spool row count
    cum: Dict[int, int] = field(default_factory=dict)
    rows_ingested: int = 0
    records: int = 0
    drained: bool = False
    #: A chunk record counted its rows per shard spool (older builds).
    per_shard_layout: bool = False

    def apply(self, record: Dict) -> None:
        kind = record.get("kind")
        self.records += 1
        if kind == "epoch":
            self.epoch = int(record["epoch"])
            self.n_shards = int(record["n_shards"])
        elif kind == "chunk":
            epoch = int(record["epoch"])
            self.rows_ingested += int(record["rows"])
            client = record.get("client")
            if client is not None:
                self.applied[str(client)] = (
                    int(record["seq"]),
                    dict(record.get("reply") or {}),
                )
            cum = record.get("cum")
            if isinstance(cum, dict):
                self.per_shard_layout = True
            elif cum is not None:
                self.cum[epoch] = int(cum)
        elif kind == "verdict":
            epoch = int(record["epoch"])
            shard = int(record["shard"])
            grid = int(record["grid"])
            verdict = dict(record["verdict"])
            self.accepted[(epoch, shard, grid)] = verdict
            end = float(verdict["evaluated_at"])
            previous = self.last_final_end.get((epoch, shard), float("-inf"))
            self.last_final_end[(epoch, shard)] = max(previous, end)
        elif kind == "drained":
            self.drained = True
        # unknown kinds are skipped: the journal is forward-compatible

    def seen(self, client: str, seq: int) -> Optional[Dict]:
        """The original ack if ``(client, seq)`` was already applied."""
        entry = self.applied.get(client)
        if entry is not None and seq <= entry[0]:
            return entry[1]
        return None


class LogTail:
    """Incremental, torn-tail-tolerant reader of a coordinator log.

    The warm standby holds one of these: every poll calls
    :meth:`advance`, which reads any new *complete* lines and folds
    them into :attr:`state`.  An incomplete final line (the primary
    mid-append, or a crash) is left unread — the offset stays before
    it, so it is retried on the next poll.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.offset = 0
        self.state = LogState()

    def advance(self) -> int:
        """Fold in newly appended records; return how many."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except FileNotFoundError:
            return 0
        if not data:
            return 0
        complete = data.rfind(b"\n") + 1
        applied = 0
        for line in data[:complete].splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                logger.warning(
                    "skipping undecodable journal line at %s+%d",
                    self.path,
                    self.offset,
                )
                continue
            self.state.apply(record)
            applied += 1
        self.offset += complete
        return applied


class CoordinatorLog:
    """The writer side: truncate any torn tail, then append+fsync.

    Opened by exactly one live coordinator at a time (leadership is
    the lease's job, not this file's); appends from multiple threads
    of that coordinator are serialised by an internal lock.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._truncate_torn_tail()
        self._fh = open(self.path, "ab")

    def _truncate_torn_tail(self) -> None:
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        if size == 0:
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        keep = data.rfind(b"\n") + 1
        if keep != size:
            logger.warning(
                "truncating torn journal tail: %s (%d -> %d bytes)",
                self.path,
                size,
                keep,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(keep)
                fh.flush()
                os.fsync(fh.fileno())

    @classmethod
    def load_state(cls, path: Union[str, Path]) -> LogState:
        """One-shot read of the journal into a :class:`LogState`."""
        tail = LogTail(path)
        tail.advance()
        return tail.state

    def append(self, record: Dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "CoordinatorLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
