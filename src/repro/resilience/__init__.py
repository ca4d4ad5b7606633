"""repro.resilience — fault tolerance for the long-running pipeline.

The paper's deployment story is continuous operation at a busy border
(~5000 flows/s over an eight-day trace, §I/§V); at that scale dirty
input and partial infrastructure failure are the steady state, not the
exception.  This package supplies the three mechanisms the rest of the
pipeline threads through:

* **Retry/backoff** (:mod:`repro.resilience.retry`) —
  :class:`RetryPolicy` with jittered exponential backoff in callable,
  decorator, and loop/context-manager forms, instrumented with
  retry/give-up counters.
* **Stage supervision** (:mod:`repro.resilience.guard`) —
  :class:`StageGuard` runs each stage down a declared fallback ladder
  for environmental faults (``store_dir`` spool → in-memory
  extraction) and records every step as a :class:`Degradation` on the
  log, metrics, and span channels at once.
* **Crash-safe writes** (:mod:`repro.resilience.io`) —
  write-temp / fsync / atomic-rename helpers behind every durable
  artifact.
* **Fault injection** (:mod:`repro.resilience.faults`) — the single
  ``REPRO_FAULT_*`` namespace (plus programmatic
  :func:`~repro.resilience.faults.injected`) powering the chaos test
  suite and the CI chaos-smoke job.

See ``docs/resilience.md`` for the failure-mode inventory and the
degradation ladder.
"""

from . import faults
from .breaker import CircuitBreaker
from .guard import Degradation, StageGuard
from .io import (
    atomic_write,
    atomic_write_bytes,
    atomic_write_text,
    fsync_directory,
)
from .lease import FileLease, LeaseKeeper, LeaseState
from .retry import Attempt, RetryError, RetryPolicy

__all__ = [
    "faults",
    "CircuitBreaker",
    "Degradation",
    "StageGuard",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "FileLease",
    "LeaseKeeper",
    "LeaseState",
    "Attempt",
    "RetryError",
    "RetryPolicy",
]
