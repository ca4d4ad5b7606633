"""Fault-injection layer: knobs, determinism, restoration."""

import os

import pytest

from repro.resilience.faults import (
    InjectedFault,
    injected,
    io_point,
    parse_corrupt_rate,
    parse_corruptor,
    reset_stage_calls,
    stage_call,
)


@pytest.fixture(autouse=True)
def clean_counters():
    reset_stage_calls()
    yield
    reset_stage_calls()


class TestDefaults:
    def test_everything_off_by_default(self):
        assert parse_corrupt_rate() == 0.0
        assert parse_corruptor() is None
        stage_call("anything")  # no-op
        io_point("store-read")  # no-op


class TestInjectedContext:
    def test_sets_and_restores_environment(self):
        name = "REPRO_FAULT_IO_ERRORS"
        assert name not in os.environ
        with injected(io_errors=["segment", "store-read"]):
            assert os.environ[name] == "segment,store-read"
            with pytest.raises(OSError):
                io_point("store-read")
        assert name not in os.environ
        io_point("store-read")  # restored: no-op again

    def test_restores_preexisting_value(self, monkeypatch):
        name = "REPRO_FAULT_IO_DELAY"
        monkeypatch.setenv(name, "0.25")
        with injected(io_delay=0.5):
            assert os.environ[name] == "0.5"
        assert os.environ[name] == "0.25"

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError, match="unknown fault knobs"):
            with injected(bogus=True):
                pass

    def test_mapping_knob_encoding(self):
        with injected(stage_fail={"theta_hm": 2, "extract_features": 1}):
            value = os.environ["REPRO_FAULT_STAGE_FAIL"]
        assert value == "extract_features:1,theta_hm:2"


class TestParseCorruption:
    def test_corruptor_is_deterministic_per_seed(self):
        row = ["0.0", "1.0", "tcp", "10.0.0.1", "1", "8.8.8.8", "53",
               "1", "1", "10", "10", "est", ""]
        with injected(parse_corrupt_rate=0.5, parse_seed=42):
            first = [parse_corruptor()(list(row)) for _ in range(50)]
            second = [parse_corruptor()(list(row)) for _ in range(50)]
        assert first == second

    def test_corruption_rate_roughly_honoured(self):
        row = ["0.0", "1.0", "tcp", "10.0.0.1", "1", "8.8.8.8", "53",
               "1", "1", "10", "10", "est", ""]
        with injected(parse_corrupt_rate=0.3, parse_seed=7):
            corrupt = parse_corruptor()
            mangled = sum(corrupt(list(row)) != row for _ in range(1000))
        assert 200 < mangled < 400

    def test_mangled_rows_fail_row_parsing(self):
        from repro.flows.argus import row_to_flow

        row = ["0.0", "1.0", "tcp", "10.0.0.1", "1", "8.8.8.8", "53",
               "1", "1", "10", "10", "est", ""]
        with injected(parse_corrupt_rate=1.0, parse_seed=0):
            corrupt = parse_corruptor()
            for _ in range(20):
                with pytest.raises(ValueError):
                    row_to_flow(corrupt(list(row)))


class TestStageFaults:
    def test_nth_call_raises_once(self):
        with injected(stage_fail={"s": 2}):
            stage_call("s")  # call 1: fine
            with pytest.raises(InjectedFault, match="call 2"):
                stage_call("s")
            stage_call("s")  # call 3: fine — faults are one-shot
            stage_call("other")  # other stages unaffected

    def test_reset_restarts_counting(self):
        with injected(stage_fail={"s": 1}):
            with pytest.raises(InjectedFault):
                stage_call("s")
            reset_stage_calls()
            with pytest.raises(InjectedFault):
                stage_call("s")


class TestIoFaults:
    def test_matching_tag_raises_oserror(self):
        with injected(io_errors=["store-read", "segment"]):
            io_point("verdict-log")  # untagged: fine
            with pytest.raises(OSError, match="store-read"):
                io_point("store-read")
            with pytest.raises(OSError, match="segment"):
                io_point("segment")

    def test_oserror_not_injectedfault(self):
        # Callers must exercise the same handler a real disk error hits.
        with injected(io_errors=["store-read"]):
            try:
                io_point("store-read")
            except OSError as exc:
                assert not isinstance(exc, InjectedFault)
