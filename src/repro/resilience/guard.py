"""Stage supervision with declared, loudly-reported degradation.

A long detection run should survive an *environmental* fault — a spool
directory that cannot be written, a torn segment, a verdict log on a
full disk — by stepping down to a mode that does not need the failed
resource, never by silently producing different results and never by
dying.  A failing computation is a bug to surface, not to degrade
around, so no ladder steps between implementations of one computation.
:class:`StageGuard` encodes that policy: each guarded stage declares an
ordered ladder of modes, the guard runs them first-to-last, and every
step down is recorded as a :class:`Degradation` and emitted three ways
at once (a WARNING log line, the ``repro_stage_degradations_total``
counter, and a structured ``degradation`` span event for JSONL sinks)
so a fallback can never pass unnoticed.

With ``enabled=False`` (the ``--no-degrade`` CLI flag) the guard is a
transparent pass-through: the first failure propagates, which is what
you want under a debugger or in a correctness bisect.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger
from ..obs.tracing import span
from . import faults

__all__ = ["Degradation", "StageGuard"]

T = TypeVar("T")

logger = get_logger("resilience.guard")

_DEGRADATIONS = obs_metrics.counter(
    "repro_stage_degradations_total",
    "Stage fallbacks applied by StageGuard",
    labels=("stage", "to_mode"),
)


@dataclass(frozen=True)
class Degradation:
    """One recorded step down a stage's fallback ladder."""

    stage: str
    from_mode: str
    to_mode: str
    error: str

    def describe(self) -> str:
        return (
            f"{self.stage}: {self.from_mode} failed "
            f"({self.error}); degraded to {self.to_mode}"
        )


class StageGuard:
    """Run pipeline stages down a declared fallback ladder.

    One guard instance accompanies one run (a ``find_plotters`` call,
    an :class:`~repro.detection.incremental.OnlineDetector` lifetime);
    its :attr:`degradations` list *is* the run's resilience summary.
    """

    def __init__(self, *, enabled: bool = True, name: str = "pipeline") -> None:
        self.enabled = enabled
        self.name = name
        self._degradations: List[Degradation] = []

    @property
    def degradations(self) -> Tuple[Degradation, ...]:
        """Every degradation recorded so far, in order."""
        return tuple(self._degradations)

    @property
    def degraded(self) -> bool:
        return bool(self._degradations)

    def note(self, stage: str, from_mode: str, to_mode: str, error: str) -> None:
        """Record one degradation and report it on every channel.

        Also the callback hook for components that degrade outside a
        ladder (e.g. the online detector dropping a failing verdict
        log) — they report here so the run summary stays complete.
        """
        event = Degradation(
            stage=stage, from_mode=from_mode, to_mode=to_mode, error=error
        )
        self._degradations.append(event)
        logger.warning("DEGRADED %s", event.describe())
        _DEGRADATIONS.inc(stage=stage, to_mode=to_mode)
        # A zero-duration span is the structured-event form: it reaches
        # every registered JSONL sink with no extra export machinery.
        with span("degradation", **asdict(event)):
            pass

    def run(
        self,
        stage: str,
        attempts: Sequence[Tuple[str, Callable[[], T]]],
    ) -> T:
        """Run ``stage`` through its ladder of ``(mode, thunk)`` attempts.

        Returns the first thunk's result that succeeds.  A failure with
        a next rung available is recorded via :meth:`note` and the
        ladder continues; the last rung's failure (or any failure while
        the guard is disabled) propagates.  Each attempt passes through
        :func:`repro.resilience.faults.stage_call`, the chaos-test
        injection point for stage failures.
        """
        if not attempts:
            raise ValueError(f"stage {stage!r} declared no attempts")
        last = len(attempts) - 1
        for position, (mode, thunk) in enumerate(attempts):
            try:
                faults.stage_call(stage)
                return thunk()
            except Exception as exc:
                if not self.enabled or position == last:
                    raise
                next_mode = attempts[position + 1][0]
                self.note(
                    stage, mode, next_mode, f"{type(exc).__name__}: {exc}"
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def breaker(
        self,
        stage: str,
        *,
        max_failures: int,
        window: Optional[float] = None,
        from_mode: str = "retry",
        to_mode: str = "quarantined",
        name: Optional[str] = None,
    ):
        """A :class:`~repro.resilience.breaker.CircuitBreaker` rung.

        The breaker sits *below* the ladder's last resort: it counts
        failures of an operation the caller keeps retrying outside the
        guard (a supervisor's worker respawns), and when it opens, the
        caller must degrade to ``to_mode`` instead of retrying again.
        Opening is reported through :meth:`note`, so a quarantine shows
        up in the run summary, the degradation counter, the log and the
        span channel exactly like a ladder step-down.
        """
        from .breaker import CircuitBreaker

        def on_open(breaker: CircuitBreaker) -> None:
            self.note(
                stage,
                from_mode,
                to_mode,
                f"circuit breaker {breaker.name} opened after "
                f"{breaker.max_failures} failure(s)",
            )

        return CircuitBreaker(
            name or stage,
            max_failures=max_failures,
            window=window,
            on_open=on_open,
        )

    def summary(self) -> Dict[str, object]:
        """Plain-dict run summary, embeddable in reports and JSONL."""
        return {
            "name": self.name,
            "degraded": self.degraded,
            "degradations": [asdict(d) for d in self._degradations],
        }
