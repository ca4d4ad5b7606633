"""Unified fault injection for chaos testing the pipeline.

Every deliberate failure the test suite and the CI chaos-smoke job can
inject lives here, behind one environment-variable namespace
(``REPRO_FAULT_*``) and one programmatic entry point
(:func:`injected`).  Production code never *sets* these knobs; it only
calls the tiny check helpers (:func:`parse_corruptor`,
:func:`stage_call`, :func:`io_point`, the ``serve_*`` claims) at the
points where real-world faults would strike, so chaos tests exercise
the exact degradation paths an operator would hit.

Environment knobs (all unset by default — zero injected faults):

``REPRO_FAULT_PARSE_CORRUPT_RATE``
    Probability in [0, 1] that a CSV row read by
    :func:`repro.flows.argus.read_flows` is mangled before parsing.
``REPRO_FAULT_PARSE_SEED``
    RNG seed for the corruption choice (default 0, deterministic).
``REPRO_FAULT_STAGE_FAIL``
    ``stage:N[,stage:N…]`` — the Nth guarded call of that stage raises
    :class:`InjectedFault` (1-based, counted process-wide; see
    :func:`stage_call`).  Because the counter keeps advancing, a
    declared fallback retrying the stage succeeds — failures are
    one-shot per N.
``REPRO_FAULT_IO_ERRORS``
    Comma-separated I/O tags (``dead-letter``, ``verdict-log``,
    ``verdict-db``, ``query-index``, ``segment``, ``store-manifest``,
    ``store-read``) whose I/O raises ``OSError``.
``REPRO_FAULT_IO_DELAY``
    Seconds of added latency at every tagged I/O point.
``REPRO_FAULT_SERVE_WORKER_EXIT_ONCE``
    Path to a sentinel file.  The first :mod:`repro.serve` detection
    worker to claim the sentinel (atomically, by deleting it)
    hard-exits after its next processed batch — modelling an OOM-kill
    of a resident worker so recovery tests exercise the coordinator's
    restart-and-replay path.  Exactly one death per sentinel.
``REPRO_FAULT_SERVE_COORD_EXIT_ONCE``
    Path to a sentinel file.  The *coordinator* process claims it at
    the nastiest instant of the ingest path — after a chunk's rows are
    durably cut into the shard spools but before the chunk record
    reaches the coordinator log — and hard-exits, so failover tests
    exercise promotion's orphan-segment reconciliation and the client
    library's idempotent resend.  Exactly one death per sentinel.
    Never set this in an in-process test: the exit kills the host
    process (it is meant for subprocess soaks).
``REPRO_FAULT_SERVE_LEASE_STALL``
    Path to a sentinel file.  The coordinator lease keeper that claims
    it stops renewing its heartbeat for the number of seconds written
    in the file (empty file = long enough to guarantee expiry), so the
    warm standby takes the lease over while the old primary is still
    alive — the split-brain drill.  The stalled primary must detect
    the fencing epoch moved on and step down.  One stall per sentinel.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "InjectedFault",
    "serve_worker_exit_once",
    "serve_coord_exit_once",
    "serve_lease_stall",
    "parse_corrupt_rate",
    "parse_corruptor",
    "stage_call",
    "reset_stage_calls",
    "io_point",
    "injected",
]


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault-injection layer."""


def _get(name: str) -> Optional[str]:
    """The knob's value, or ``None`` when unset or empty."""
    return os.environ.get(name) or None


# ----------------------------------------------------------------------
# Serve-process faults
# ----------------------------------------------------------------------
def serve_worker_exit_once() -> None:
    """Hard-exit this serve worker if the exit-once sentinel is claimable.

    The sentinel file is deleted *before* exiting, so among racing
    workers exactly one dies — the others find the sentinel gone.
    ``os._exit`` (not ``sys.exit``) models a SIGKILL/OOM death: no
    cleanup handlers run and the coordinator sees a dead worker.
    """
    sentinel = _get("REPRO_FAULT_SERVE_WORKER_EXIT_ONCE")
    if not sentinel:
        return
    try:
        os.remove(sentinel)
    except OSError:
        return  # already claimed (or never created): nobody else dies
    os._exit(1)


def serve_coord_exit_once() -> None:
    """Hard-exit the serve *coordinator* if its sentinel is claimable.

    The coordinator calls this in the ingest path after a chunk's rows
    are durably cut into the shard spools but *before* the chunk record
    is journaled — the exact crash window promotion's orphan-segment
    reconciliation exists for.  ``os._exit`` models a SIGKILL: the
    unacked client sees a dead connection and must resend.  Only ever
    set this for a subprocess soak; in-process it kills the test
    runner.
    """
    sentinel = _get("REPRO_FAULT_SERVE_COORD_EXIT_ONCE")
    if not sentinel:
        return
    try:
        os.remove(sentinel)
    except OSError:
        return  # already claimed (or never created): nobody dies
    os._exit(1)


def serve_lease_stall() -> Optional[float]:
    """Claim the lease-stall sentinel; return the stall in seconds.

    Returns ``None`` when the knob is unset or the sentinel was already
    claimed.  The sentinel file's content, if parseable as a float, is
    the stall duration; an empty file returns ``0.0`` and the caller
    (the lease keeper) substitutes a stall long enough to guarantee
    lease expiry.  One stall per sentinel, claimed by deleting it —
    the same protocol as every ``*_ONCE`` knob.
    """
    sentinel = _get("REPRO_FAULT_SERVE_LEASE_STALL")
    if not sentinel:
        return None
    try:
        with open(sentinel, encoding="utf-8") as fh:
            raw = fh.read().strip()
        os.remove(sentinel)
    except OSError:
        return None  # already claimed (or never created): no stall
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


# ----------------------------------------------------------------------
# Parse corruption
# ----------------------------------------------------------------------
def parse_corrupt_rate() -> float:
    """Configured row-corruption probability (0.0 = off)."""
    raw = _get("REPRO_FAULT_PARSE_CORRUPT_RATE")
    return float(raw) if raw else 0.0


def parse_corruptor() -> Optional[Callable[[List[str]], List[str]]]:
    """A row-mangling callable, or ``None`` when corruption is off.

    Call once per read session: the returned closure owns a seeded RNG
    so repeated reads corrupt the same rows the same way (deterministic
    chaos runs).  Mangling alternates between truncating the row and
    poisoning a numeric field — both must land in the quarantine path.
    """
    rate = parse_corrupt_rate()
    if rate <= 0.0:
        return None
    seed = int(_get("REPRO_FAULT_PARSE_SEED") or 0)
    rng = random.Random(seed)

    def corrupt(row: List[str]) -> List[str]:
        if rng.random() >= rate:
            return row
        if rng.random() < 0.5:
            return row[: max(1, len(row) // 2)]
        mangled = list(row)
        mangled[min(4, len(mangled) - 1)] = "\x00garbage"
        return mangled

    return corrupt


# ----------------------------------------------------------------------
# Stage failures
# ----------------------------------------------------------------------
_STAGE_LOCK = threading.Lock()
_STAGE_CALLS: Dict[str, int] = {}


def _stage_fail_plan() -> Dict[str, int]:
    raw = _get("REPRO_FAULT_STAGE_FAIL")
    if not raw:
        return {}
    plan: Dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        stage, _, nth = part.partition(":")
        plan[stage] = int(nth) if nth else 1
    return plan


def stage_call(stage: str) -> None:
    """Count one guarded call of ``stage``; raise if this is the Nth.

    The counter advances on every call, so after the injected failure
    the *next* attempt of the same stage (a declared fallback, a
    retry) passes — injected stage faults are transient by
    construction, which is exactly the failure mode graceful
    degradation is for.
    """
    plan = _stage_fail_plan()
    if not plan:
        return
    with _STAGE_LOCK:
        _STAGE_CALLS[stage] = _STAGE_CALLS.get(stage, 0) + 1
        count = _STAGE_CALLS[stage]
    if plan.get(stage) == count:
        raise InjectedFault(f"injected failure in stage {stage!r} (call {count})")


def reset_stage_calls() -> None:
    """Zero the per-stage call counters (test isolation)."""
    with _STAGE_LOCK:
        _STAGE_CALLS.clear()


# ----------------------------------------------------------------------
# I/O faults
# ----------------------------------------------------------------------
def io_point(tag: str) -> None:
    """Apply configured latency/errors at a tagged I/O site.

    Raises ``OSError`` (not :class:`InjectedFault`) when the tag is in
    ``REPRO_FAULT_IO_ERRORS``, so callers exercise the same handling
    path a real disk failure would take.
    """
    delay = _get("REPRO_FAULT_IO_DELAY")
    if delay:
        import time

        time.sleep(float(delay))
    raw = _get("REPRO_FAULT_IO_ERRORS")
    if raw and tag in {part.strip() for part in raw.split(",") if part.strip()}:
        raise OSError(f"injected I/O error at {tag!r}")


# ----------------------------------------------------------------------
# Programmatic installation
# ----------------------------------------------------------------------
_KNOB_FOR_KWARG: Mapping[str, str] = {
    "parse_corrupt_rate": "REPRO_FAULT_PARSE_CORRUPT_RATE",
    "parse_seed": "REPRO_FAULT_PARSE_SEED",
    "stage_fail": "REPRO_FAULT_STAGE_FAIL",
    "io_errors": "REPRO_FAULT_IO_ERRORS",
    "io_delay": "REPRO_FAULT_IO_DELAY",
    "serve_worker_exit_once": "REPRO_FAULT_SERVE_WORKER_EXIT_ONCE",
    "serve_coord_exit_once": "REPRO_FAULT_SERVE_COORD_EXIT_ONCE",
    "serve_lease_stall": "REPRO_FAULT_SERVE_LEASE_STALL",
}


def _encode(value: object) -> str:
    if isinstance(value, Mapping):
        return ",".join(f"{k}:{v}" for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return ",".join(str(v) for v in sorted(value))
    return str(value)


@contextmanager
def injected(**knobs: object):
    """Install faults for the duration of a ``with`` block.

    Keyword names mirror the env knobs (``parse_corrupt_rate=0.01``,
    ``stage_fail={"extract_features": 1}``, ``io_errors=["store-read"]``,
    …).  Values are written to the ``REPRO_FAULT_*`` environment
    variables — the environment is the one channel that reaches forked
    *and* spawned worker processes alike — and restored on exit.  Stage-call counters are
    reset on entry and exit so every block starts from call zero.
    """
    unknown = set(knobs) - set(_KNOB_FOR_KWARG)
    if unknown:
        raise TypeError(f"unknown fault knobs: {sorted(unknown)}")
    saved: List[Tuple[str, Optional[str]]] = []
    reset_stage_calls()
    try:
        for kwarg, value in knobs.items():
            name = _KNOB_FOR_KWARG[kwarg]
            saved.append((name, os.environ.get(name)))
            os.environ[name] = _encode(value)
        yield
    finally:
        for name, previous in reversed(saved):
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous
        reset_stage_calls()
