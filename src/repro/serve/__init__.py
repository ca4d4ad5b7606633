"""`repro serve` — the resident tracker/worker detection service.

The paper's classifier is meant to watch a live border, not a pcap
archive: flows arrive continuously, windows tumble on the clock, and
an operator asks "who looks like a Plotter *right now*?".  This
package turns the repo's batch-and-library planes into that resident
service:

* a :class:`~repro.serve.coordinator.ServeCoordinator` process owns
  ingest, shards internal hosts across persistent detection worker
  processes (:mod:`repro.serve.worker`, one
  :class:`~repro.detection.incremental.OnlineDetector` each), and
  cuts every accepted chunk into the epoch's one ``.rseg`` segment
  store (:mod:`repro.storage`) *before* naming the segment to the
  workers, which read their shards' rows from it — the spool, not any
  worker, is the durability boundary;
* the control plane is the PR 7 telemetry endpoint grown routes
  (:func:`repro.serve.http.build_routes` on
  :class:`repro.obs.http.MetricsServer`): ``POST /ingest``,
  ``GET /verdicts``, ``GET /shards``, ``POST /evaluate``,
  ``POST /rebalance``, ``POST /drain`` next to the built-in
  ``/metrics`` / ``/healthz`` / ``/summary``;
* workers ship finalised-window verdicts and metric deltas home
  (:meth:`~repro.obs.metrics.MetricsRegistry.delta_since`); a killed
  worker is restarted and replays its shard's spool rows from the last
  finalised window boundary, on the same window grid
  (``window_origin``), so no ingested flow is ever lost to a crash;
* SIGTERM (or ``POST /drain``) finalises every in-flight window and
  then re-scores the union of every epoch's spool with the exact batch
  pipeline (:func:`repro.detection.pipeline.find_plotters`) — the
  drained verdict is bit-identical to a batch run over the same
  flows, which is the service's acceptance invariant;
* the coordinator itself is disposable (PR 9): every acked ingest
  chunk is journaled in ``coord.log`` (:mod:`repro.serve.journal`), a
  warm standby (:mod:`repro.serve.ha`) tails it and promotes under a
  fenced leadership lease when the primary dies, ingest applies
  backpressure (429 + ``Retry-After``) past a backlog watermark, and
  :class:`~repro.serve.client.ServeClient` packages the
  retry/rediscovery/resend discipline that makes the whole path
  exactly-once.

See ``docs/service.md`` for the architecture and recovery semantics.
"""

from .client import ServeClient, ServeError
from .config import ServeConfig
from .coordinator import BacklogFull, NotLeader, ServeCoordinator
from .ha import run_ha
from .journal import CoordinatorLog, LogState, LogTail
from .sharding import ShardMap, rebalance_moves, shard_of

__all__ = [
    "BacklogFull",
    "CoordinatorLog",
    "LogState",
    "LogTail",
    "NotLeader",
    "ServeClient",
    "ServeConfig",
    "ServeCoordinator",
    "ServeError",
    "ShardMap",
    "rebalance_moves",
    "run_ha",
    "shard_of",
]
