"""Retry with jittered exponential backoff, as policy objects.

A :class:`RetryPolicy` owns every decision an ad-hoc retry loop would
otherwise hard-code: how many attempts, how long to wait between them
(exponential with full jitter, capped), which exceptions are worth
retrying, and an advisory per-attempt timeout for callees that accept
one (``future.result(timeout=attempt.timeout)``).  Three call forms
share the same accounting:

* :meth:`RetryPolicy.call` — run a callable, return its result;
* :meth:`RetryPolicy.retrying` — the decorator form;
* :meth:`RetryPolicy.attempts` — the loop/context-manager form, for
  bodies too entangled to lift into a callable::

      for attempt in policy.attempts("verdict-write"):
          with attempt:
              write_verdict(...)

Every attempt lands in the ``repro_retry_attempts_total`` counter
(labelled by call-site name and outcome ``ok``/``retried``/``giveup``)
and every exhausted policy in ``repro_retry_giveups_total`` — so a
dashboard shows which sites are *quietly* retrying long before one of
them finally gives up.  When attempts are exhausted the policy raises
:class:`RetryError`, which carries the attempt count and the message
of every failure (the last one as ``__cause__``); non-retryable
exceptions propagate unchanged on first occurrence.

``sleep`` is injectable so tests assert the exact backoff schedule
without waiting for it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..obs import metrics as obs_metrics
from ..obs.logconf import get_logger

__all__ = ["RetryError", "RetryPolicy", "Attempt"]

T = TypeVar("T")

logger = get_logger("resilience.retry")

_ATTEMPTS = obs_metrics.counter(
    "repro_retry_attempts_total",
    "Retry-policy attempts by call-site name and outcome",
    labels=("name", "outcome"),
)
_GIVEUPS = obs_metrics.counter(
    "repro_retry_giveups_total",
    "Retry policies that exhausted every attempt",
    labels=("name",),
)


def _default_retryable(exc: BaseException) -> bool:
    """Retry ordinary errors; never retry cancellation/exit signals."""
    return isinstance(exc, Exception)


class RetryError(RuntimeError):
    """Raised when a :class:`RetryPolicy` exhausts its attempts.

    Attributes
    ----------
    name:
        The call-site name the policy was invoked under.
    attempts:
        How many attempts ran (== the policy's ``max_attempts``).
    errors:
        One ``"Type: message"`` string per failed attempt, in order.
    """

    def __init__(self, name: str, attempts: int, errors: Sequence[str]) -> None:
        self.name = name
        self.attempts = attempts
        self.errors: Tuple[str, ...] = tuple(errors)
        last = self.errors[-1] if self.errors else "unknown error"
        super().__init__(
            f"{name}: gave up after {attempts} attempt(s); last error: {last}"
        )


@dataclass
class _RetryState:
    """Shared bookkeeping between a policy and its yielded attempts."""

    succeeded: bool = False
    errors: List[str] = field(default_factory=list)


class Attempt:
    """One try of the ``attempts()`` loop; use as a context manager.

    Exiting cleanly marks the loop finished.  Exiting with a retryable
    exception (with attempts remaining) swallows it, sleeps the
    policy's backoff, and lets the loop continue; otherwise the
    exception propagates — wrapped in :class:`RetryError` when the
    policy is exhausted.
    """

    __slots__ = ("policy", "number", "name", "_state")

    def __init__(
        self, policy: "RetryPolicy", number: int, name: str, state: _RetryState
    ) -> None:
        self.policy = policy
        self.number = number
        self.name = name
        self._state = state

    @property
    def timeout(self) -> Optional[float]:
        """Advisory per-attempt timeout, for callees that accept one."""
        return self.policy.attempt_timeout

    @property
    def is_last(self) -> bool:
        return self.number >= self.policy.max_attempts

    def __enter__(self) -> "Attempt":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is None:
            self._state.succeeded = True
            _ATTEMPTS.inc(name=self.name, outcome="ok")
            return False
        self._state.errors.append(f"{type(exc).__name__}: {exc}")
        if not self.policy.retryable(exc):
            _ATTEMPTS.inc(name=self.name, outcome="giveup")
            _GIVEUPS.inc(name=self.name)
            return False
        if self.is_last:
            _ATTEMPTS.inc(name=self.name, outcome="giveup")
            _GIVEUPS.inc(name=self.name)
            raise RetryError(
                self.name, self.number, self._state.errors
            ) from exc
        _ATTEMPTS.inc(name=self.name, outcome="retried")
        delay = self.policy.delay(self.number)
        logger.warning(
            "%s: attempt %d/%d failed (%s); retrying in %.2fs",
            self.name,
            self.number,
            self.policy.max_attempts,
            self._state.errors[-1],
            delay,
        )
        if self.policy.on_retry is not None:
            self.policy.on_retry(exc, self.number)
        if delay > 0:
            self.policy.sleep(delay)
        return True


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry/backoff configuration.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (must be >= 1).
    base_delay, multiplier, max_delay:
        Backoff after the Nth failure is
        ``min(base_delay * multiplier**(N-1), max_delay)`` seconds…
    jitter:
        …scaled by a uniform factor in ``[1 - jitter, 1]`` (full
        decorrelation at ``jitter=1.0``, deterministic at ``0.0``).
    attempt_timeout:
        Advisory per-attempt budget, surfaced as ``Attempt.timeout``
        for callees that accept a timeout (e.g. ``future.result``);
        timeouts they raise are retried like any other failure.
    retryable:
        Predicate deciding whether an exception is worth another try.
        Defaults to every ``Exception`` (never ``KeyboardInterrupt`` /
        ``SystemExit``).
    sleep:
        Injectable sleeper, for tests that assert the schedule.
    on_retry:
        Optional hook ``(exception, attempt_number)`` invoked before
        each backoff sleep — callers keep their own retry telemetry.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    attempt_timeout: Optional[float] = None
    retryable: Callable[[BaseException], bool] = _default_retryable
    sleep: Callable[[float], None] = time.sleep
    on_retry: Optional[Callable[[BaseException, int], None]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, failed_attempt: int) -> float:
        """Backoff in seconds after the Nth (1-based) failed attempt."""
        raw = min(
            self.base_delay * self.multiplier ** (failed_attempt - 1),
            self.max_delay,
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = random.Random(self.seed) if self.seed is not None else random
        return raw * (1.0 - self.jitter * rng.random())

    def attempts(self, name: str = "call"):
        """Yield :class:`Attempt` context managers until one succeeds."""
        state = _RetryState()
        for number in range(1, self.max_attempts + 1):
            yield Attempt(self, number, name, state)
            if state.succeeded:
                return

    def call(self, fn: Callable[..., T], *args, name: Optional[str] = None, **kwargs) -> T:
        """Run ``fn`` under this policy and return its result."""
        label = name or getattr(fn, "__name__", "call")
        result: List[T] = []
        for attempt in self.attempts(label):
            with attempt:
                result.append(fn(*args, **kwargs))
        return result[-1]

    def retrying(self, name: Optional[str] = None):
        """Decorator form: ``@policy.retrying()``."""

        def decorate(fn: Callable[..., T]) -> Callable[..., T]:
            label = name or getattr(fn, "__name__", "call")

            def wrapper(*args, **kwargs) -> T:
                return self.call(fn, *args, name=label, **kwargs)

            wrapper.__name__ = getattr(fn, "__name__", "wrapper")
            wrapper.__doc__ = fn.__doc__
            wrapper.__wrapped__ = fn
            return wrapper

        return decorate
