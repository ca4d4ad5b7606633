"""Warm-standby coordinator pair: lease leadership, promote, drain.

Two (or more) ``repro serve --ha`` processes share one spool directory.
Exactly one holds the leadership lease
(:class:`~repro.resilience.lease.FileLease` under ``<spool>/ha/``) and
runs the full coordinator — HTTP plane, spools, workers.  The others
are *warm standbys*: they tail ``coord.log`` with a
:class:`~repro.serve.journal.LogTail` (so their in-memory
:class:`~repro.serve.journal.LogState` is always seconds fresh) and
re-try the lease every ``standby_poll`` seconds.

When the primary dies (SIGKILL, OOM, power) its lease expires after
``lease_ttl``; the first standby to acquire it promotes:

1. fold in the journal's final records (torn tail tolerated);
2. refuse if the journal says ``drained`` — the report is published,
   contention is over;
3. build a :class:`~repro.serve.coordinator.ServeCoordinator` whose
   ``incarnation`` *is* the lease fence, resume from the journaled
   state (same epoch, same verdict-dedupe set, same per-client chunk
   accounting; orphan spool suffixes from unacked chunks truncated),
   replay only the unfinalised window grid;
4. rewrite ``serve.json`` so clients rediscover the new primary;
5. start a :class:`~repro.resilience.lease.LeaseKeeper` heartbeat.

If the keeper ever finds itself fenced (its own heartbeat stalled long
enough for another node to take over — the split-brain drill), the
ex-primary closes *without draining* and rejoins as a standby: the
fence check in the ingest path has already turned its answers into
409s, so no client ack was lost to the fenced side.

A drain (SIGTERM or ``POST /drain``) runs under a *held* lease — the
keeper renews throughout — and the terminal ``drained`` journal record
plus the lease release end the contention: every standby exits once it
reads the record.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger
from ..resilience import FileLease, LeaseKeeper, atomic_write_text
from .config import ServeConfig
from .coordinator import ServeCoordinator
from .journal import COORD_LOG_NAME, LogTail

__all__ = ["HA_DIR_NAME", "run_ha"]

#: Lease/fence state lives under ``<spool_dir>/ha/``.
HA_DIR_NAME = "ha"

logger = get_logger("serve.ha")

_FAILOVERS = obs_metrics.counter(
    "repro_serve_failovers_total",
    "Promotions of a standby over a dead or fenced ex-primary",
)
_PROMOTIONS = obs_metrics.counter(
    "repro_serve_promotions_total",
    "Coordinator promotions (first leadership included)",
)


def _write_discovery(
    config: ServeConfig, coordinator: ServeCoordinator, role: str
) -> None:
    atomic_write_text(
        Path(config.spool_dir) / "serve.json",
        json.dumps(
            {
                "url": coordinator.url,
                "port": coordinator.server.port,
                "pid": os.getpid(),
                "n_shards": config.n_shards,
                "window": config.window,
                "incarnation": coordinator.incarnation,
                "role": role,
            },
            sort_keys=True,
        )
        + "\n",
    )


def run_ha(
    config: ServeConfig,
    *,
    shutdown: Optional[threading.Event] = None,
    holder_id: Optional[str] = None,
    announce=None,
) -> Optional[Tuple[object, Dict]]:
    """Contend, serve, fail over; return the drain result if we drained.

    Blocks until one of:

    * this node drained (it held the lease and received SIGTERM or
      ``POST /drain``) → returns ``(PipelineResult, report_dict)``;
    * ``shutdown`` was set while this node was a standby, or the
      journal's terminal ``drained`` record appeared → returns
      ``None`` (another node owns the published report);

    A fenced ex-primary does **not** return: it closes without
    draining and rejoins the standby loop.

    Parameters
    ----------
    shutdown:
        Event a signal handler sets.  While primary it requests a
        drain; while standby it requests a clean exit.
    holder_id:
        Lease holder identity (defaults to ``host:pid``).
    announce:
        Optional ``callable(str)`` for operator-facing one-liners.
    """
    shutdown = shutdown or threading.Event()
    say = announce or (lambda message: None)
    root = Path(config.spool_dir)
    root.mkdir(parents=True, exist_ok=True)
    lease = FileLease(
        root / HA_DIR_NAME, holder_id=holder_id, ttl=config.lease_ttl
    )
    log_path = root / COORD_LOG_NAME

    while not shutdown.is_set():
        # ---- standby: tail the journal, contend for the lease -------
        tail = LogTail(log_path)
        fence: Optional[int] = None
        while not shutdown.is_set():
            tail.advance()
            if tail.state.drained:
                say("journal is drained; standing down")
                return None
            fence = lease.try_acquire()
            if fence is not None:
                break
            time.sleep(config.standby_poll)
        if fence is None:  # shutdown while standby
            return None

        # ---- promote ------------------------------------------------
        tail.advance()  # the dead primary's final complete records
        if tail.state.drained:
            lease.release(fence)
            say("journal is drained; standing down")
            return None
        _PROMOTIONS.inc()
        if fence > 1:
            _FAILOVERS.inc()
        say(
            f"acquired leadership lease (fence={fence}); promoting over "
            f"{tail.state.records} journal record(s)"
        )
        coordinator = ServeCoordinator(config, incarnation=fence)
        coordinator.fence_guard = lambda f=fence: lease.held_by_us(f)
        lost = threading.Event()
        try:
            coordinator.start(log_state=tail.state)
        except Exception:
            lease.release(fence)
            raise
        keeper = LeaseKeeper(lease, fence, on_lost=lost.set)
        keeper.start()
        _write_discovery(config, coordinator, role="primary")
        say(f"serving as primary on {coordinator.url} (fence={fence})")

        # ---- primary main loop --------------------------------------
        try:
            while True:
                if shutdown.is_set():
                    coordinator.drain_requested.set()
                if coordinator.drain_requested.is_set() or lost.is_set():
                    break
                coordinator.drain_requested.wait(timeout=0.1)
            if lost.is_set() and not coordinator.drain_requested.is_set():
                # Fenced: another node owns the spool now.  Close
                # without draining (the finally below) — our unacked
                # work is theirs to truncate, our acked work is in
                # the journal.
                logger.warning(
                    "fenced out of leadership (fence=%d); demoting", fence
                )
                say("fenced out of leadership; rejoining as standby")
                continue
            # Drain under a held lease: the keeper renews throughout,
            # so no standby can promote over a half-written report.
            say("draining")
            result, report = coordinator.drain()
            keeper.stop()
            lease.release(fence)
            return result, report
        finally:
            keeper.stop()
            coordinator.close()
    return None
