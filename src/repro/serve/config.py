"""Service configuration.

One frozen, picklable dataclass travels from the CLI through the
coordinator into every spawned worker — the same pattern as
:class:`~repro.detection.pipeline.PipelineConfig`, which it embeds, so
the service's detection thresholds can never drift from the batch
pipeline it must stay bit-identical to.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..detection.pipeline import PipelineConfig
from ..flows.argus import PARSE_ERROR_MODES

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything `repro serve` needs to run, in one picklable value.

    Parameters
    ----------
    spool_dir:
        Root directory of the service's durable state: one segment
        spool per shard-topology epoch at ``<spool_dir>/epoch-XXX``
        (every shard's rows, in arrival order), the coordinator log at
        ``<spool_dir>/coord.log``, the drain report at
        ``<spool_dir>/drain.json`` and the discovery file at
        ``<spool_dir>/serve.json``.  Every acknowledged ingest chunk is
        cut into the epoch spool as one segment and journaled in the
        coordinator log *before* the HTTP 200, so an acked chunk
        survives coordinator SIGKILL and a resent chunk (by client
        sequence number) is applied exactly once.
    n_shards:
        Worker processes; hosts map to shards by stable blake2b hash
        (:func:`repro.serve.sharding.shard_of`).
    window:
        Tumbling-window length in seconds (the paper's D).
    window_origin:
        Anchor of the absolute window grid.  All workers — and every
        restarted incarnation of a worker — tumble at
        ``origin + k·window``, so verdicts line up across shards,
        restarts and rebalances.
    port / host:
        Control-plane bind address (``port=0`` = ephemeral; the bound
        port is published in ``serve.json``).
    segment_rows:
        Most rows one spool segment holds (``None`` = the storage
        plane's default); a larger ingest chunk is cut into several
        segments.
    pipeline:
        Detection thresholds, shared verbatim with
        :func:`~repro.detection.pipeline.find_plotters` — the drain
        rescore runs under exactly this config.
    internal_hosts:
        Explicit candidate population, or ``None`` (the default) to
        score every source address the service sees — matching the
        batch pipeline's ``hosts=None`` → ``store.initiators``.
    on_parse_error:
        Ingest-endpoint policy for malformed CSV rows
        (``strict`` | ``skip`` | ``quarantine``); a resident service
        defaults to ``skip`` — one bad row must not poison a POST.
    max_backlog_rows:
        Admission-control watermark: when the rows forwarded to
        workers but not yet acknowledged by them exceed this, ingest
        answers 429 with a ``Retry-After`` hint until the workers
        catch up.  ``None`` (default) = unbounded.
    lease_ttl:
        HA leadership lease TTL in seconds; failover after a primary
        death takes at most this plus the standby's poll interval.
    standby_poll:
        How often a warm standby re-tries the lease and tails the
        coordinator log.
    verdict_db:
        Path of a :class:`~repro.query.verdicts.VerdictDB` (SQLite) to
        record every finalised window verdict into, live — the query
        plane's cross-window history.  ``None`` (default) disables the
        sink.  DB failures never fail ingest or verdict acceptance:
        the sink degrades to logging and counting.
    respawn_max_failures / respawn_window:
        Per-shard worker-respawn circuit breaker: this many worker
        deaths inside the window quarantine the shard (it keeps
        spooling durably but is no longer respawned or scored live)
        instead of crash-looping.  ``respawn_window=0`` disables the
        window (every death counts forever).
    """

    spool_dir: str
    n_shards: int = 2
    window: float = 6 * 3600.0
    window_origin: float = 0.0
    port: int = 0
    host: str = "127.0.0.1"
    segment_rows: Optional[int] = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    internal_hosts: Optional[Tuple[str, ...]] = None
    on_parse_error: str = "skip"
    max_backlog_rows: Optional[int] = None
    lease_ttl: float = 5.0
    standby_poll: float = 0.25
    respawn_max_failures: int = 5
    respawn_window: float = 60.0
    verdict_db: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.window <= 0:
            raise ValueError("window length must be positive")
        if self.segment_rows is not None and self.segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        if self.on_parse_error not in PARSE_ERROR_MODES:
            raise ValueError(
                f"on_parse_error must be one of {PARSE_ERROR_MODES}, "
                f"got {self.on_parse_error!r}"
            )
        if self.max_backlog_rows is not None and self.max_backlog_rows < 1:
            raise ValueError("max_backlog_rows must be >= 1 (or None)")
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.standby_poll <= 0:
            raise ValueError("standby_poll must be positive")
        if self.respawn_max_failures < 1:
            raise ValueError("respawn_max_failures must be >= 1")
        if self.respawn_window < 0:
            raise ValueError("respawn_window must be >= 0")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready form (what the run ledger records)."""
        return dataclasses.asdict(self)
