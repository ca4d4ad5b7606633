"""StageGuard: fallback ladders and degradation reporting."""

import logging

import pytest

from repro.resilience import StageGuard
from repro.resilience.faults import InjectedFault, injected


def failing(message):
    def thunk():
        raise ValueError(message)

    return thunk


class TestRun:
    def test_first_rung_success_records_nothing(self):
        guard = StageGuard()
        result = guard.run("s", [("fast", lambda: 42), ("slow", failing("never"))])
        assert result == 42
        assert guard.degradations == ()
        assert not guard.degraded

    def test_falls_through_to_next_rung(self):
        guard = StageGuard()
        result = guard.run(
            "extract", [("parallel", failing("pool died")), ("seq", lambda: "ok")]
        )
        assert result == "ok"
        (event,) = guard.degradations
        assert event.stage == "extract"
        assert event.from_mode == "parallel"
        assert event.to_mode == "seq"
        assert event.error == "ValueError: pool died"
        assert guard.degraded

    def test_walks_whole_ladder(self):
        guard = StageGuard()
        result = guard.run(
            "s",
            [("a", failing("1")), ("b", failing("2")), ("c", lambda: "last")],
        )
        assert result == "last"
        assert [d.from_mode for d in guard.degradations] == ["a", "b"]
        assert [d.to_mode for d in guard.degradations] == ["b", "c"]

    def test_last_rung_failure_propagates(self):
        guard = StageGuard()
        with pytest.raises(ValueError, match="final"):
            guard.run("s", [("a", failing("first")), ("b", failing("final"))])
        # The fall from a to b was still recorded before b failed.
        assert [d.to_mode for d in guard.degradations] == ["b"]

    def test_disabled_guard_is_transparent(self):
        guard = StageGuard(enabled=False)
        with pytest.raises(ValueError, match="first"):
            guard.run("s", [("a", failing("first")), ("b", lambda: "unused")])
        assert guard.degradations == ()

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="no attempts"):
            StageGuard().run("s", [])

    def test_injected_stage_fault_is_one_shot(self):
        guard = StageGuard()
        with injected(stage_fail={"theta_hm": 1}):
            result = guard.run(
                "theta_hm", [("vectorized", lambda: 1), ("loop", lambda: 2)]
            )
        # First call raised InjectedFault, fallback rung succeeded.
        assert result == 2
        (event,) = guard.degradations
        assert "InjectedFault" in event.error

    def test_injected_fault_fatal_when_disabled(self):
        guard = StageGuard(enabled=False)
        with injected(stage_fail={"theta_hm": 1}):
            with pytest.raises(InjectedFault):
                guard.run("theta_hm", [("vectorized", lambda: 1)])


class TestReporting:
    def test_note_logs_at_warning(self):
        # The repro.* logger does not propagate once configured, so
        # capture with a handler on the logger itself, not caplog.
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        target = logging.getLogger("repro.resilience.guard")
        handler = Capture(level=logging.WARNING)
        target.addHandler(handler)
        old_level = target.level
        target.setLevel(logging.WARNING)
        try:
            StageGuard().note("stage", "fast", "slow", "OSError: disk full")
        finally:
            target.removeHandler(handler)
            target.setLevel(old_level)
        messages = [r.getMessage() for r in records]
        assert any("DEGRADED" in m for m in messages)
        assert any("disk full" in m for m in messages)
        assert all(r.levelno == logging.WARNING for r in records)

    def test_summary_shape(self):
        guard = StageGuard(name="my-run")
        guard.note("a", "x", "y", "err")
        summary = guard.summary()
        assert summary["name"] == "my-run"
        assert summary["degraded"] is True
        assert summary["degradations"] == [
            {"stage": "a", "from_mode": "x", "to_mode": "y", "error": "err"}
        ]

    def test_describe_is_readable(self):
        guard = StageGuard()
        guard.note("theta_hm", "parallel", "loop", "RuntimeError: boom")
        text = guard.degradations[0].describe()
        assert "theta_hm" in text
        assert "parallel" in text and "loop" in text and "boom" in text
