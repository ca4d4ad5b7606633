"""Graceful degradation: environmental faults change wall time, never suspects.

Every test injects a fault through :mod:`repro.resilience.faults`,
runs the pipeline (batch or online), and asserts the run either
(a) completes with exactly the clean run's suspects and reports the
degradation — for faults of an environmental resource (the
``store_dir`` spool, the verdict log) — or (b) raises, for a failing
computation that has no resource to fall back from.  No silent
fallback, no changed verdicts.
"""

from unittest.mock import patch

import pytest

from repro import obs
from repro.detection.incremental import OnlineDetector
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.resilience.faults import InjectedFault, injected

from .test_torn_checkpoint import CONFIG, HOSTS, WINDOW, flow, window_flows


@pytest.fixture(scope="module")
def clean_result(overlaid_day, campus_day):
    return find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)


class TestBatchPipeline:
    def test_clean_run_reports_no_degradations(self, clean_result):
        assert clean_result.degradations == ()
        assert not clean_result.degraded

    def test_theta_hm_failure_raises(self, overlaid_day, campus_day):
        # θ_hm has no fallback ladder: a failing backend is a bug to
        # surface, not to degrade around.
        with patch(
            "repro.detection.pipeline.theta_hm", side_effect=RuntimeError("boom")
        ):
            with pytest.raises(RuntimeError, match="boom"):
                find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)

    def test_extraction_failure_falls_back_identically(
        self, overlaid_day, campus_day, clean_result, tmp_path
    ):
        with injected(stage_fail={"extract_features": 1}):
            result = find_plotters(
                overlaid_day.store,
                hosts=campus_day.all_hosts,
                config=PipelineConfig(store_dir=str(tmp_path / "spool")),
            )
        assert result.suspects == clean_result.suspects
        assert result.volume.selected_set == clean_result.volume.selected_set
        (event,) = result.degradations
        assert event.stage == "extract_features"
        assert (event.from_mode, event.to_mode) == ("store", "in-memory")
        assert "InjectedFault" in event.error

    def test_in_memory_extraction_failure_raises(
        self, overlaid_day, campus_day
    ):
        # Without store_dir there is no environmental resource to lose,
        # so the one extraction rung fails the run.
        with injected(stage_fail={"extract_features": 1}):
            with pytest.raises(InjectedFault):
                find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)

    def test_no_degrade_makes_first_failure_fatal(
        self, overlaid_day, campus_day, tmp_path
    ):
        config = PipelineConfig(store_dir=str(tmp_path / "spool"), degrade=False)
        with injected(stage_fail={"extract_features": 1}):
            with pytest.raises(InjectedFault):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=config,
                )

    def test_degradations_counted_in_metrics(
        self, overlaid_day, campus_day, tmp_path
    ):
        obs.clear_sinks()
        obs.get_registry().reset()
        obs.enable()
        try:
            with injected(io_errors=["store-read"]):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=PipelineConfig(store_dir=str(tmp_path / "spool")),
                )
            counter = obs.get_registry().counter(
                "repro_stage_degradations_total",
                labels=("stage", "to_mode"),
            )
            assert (
                counter.value(stage="extract_features", to_mode="in-memory")
                == 1.0
            )
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.clear_sinks()

    def test_degradation_span_event_reaches_sinks(
        self, overlaid_day, campus_day, tmp_path
    ):
        events = []

        class Sink:
            def on_span(self, record):
                events.append(record)

        obs.clear_sinks()
        obs.get_registry().reset()
        obs.enable()
        obs.add_sink(Sink())
        try:
            with injected(io_errors=["store-read"]):
                find_plotters(
                    overlaid_day.store,
                    hosts=campus_day.all_hosts,
                    config=PipelineConfig(store_dir=str(tmp_path / "spool")),
                )
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.clear_sinks()
        degradations = [e for e in events if e.get("name") == "degradation"]
        assert len(degradations) == 1
        attrs = degradations[0]["attrs"]
        assert attrs["stage"] == "extract_features"
        assert attrs["to_mode"] == "in-memory"


class TestOnlineDetector:
    def run_windows(self, detector, n=2):
        for w in range(n):
            detector.ingest_many(window_flows(w))
        detector.ingest(flow("bot0", start=n * WINDOW + 1.0))

    def test_verdict_log_failure_degrades_not_dies(self, tmp_path):
        detector = OnlineDetector(
            HOSTS, window=WINDOW, config=CONFIG, checkpoint_dir=tmp_path
        )
        with injected(io_errors=["verdict-log"]):
            self.run_windows(detector)
        # The run completed: both windows concluded in memory…
        assert len(detector.history) == 2
        # …the log was dropped loudly…
        assert any(d.stage == "verdict_log" for d in detector.degradations)
        assert detector._verdict_log is None
        # …and nothing half-written hit the disk.
        log = tmp_path / "verdicts.jsonl"
        assert not log.exists() or log.read_text() == ""

    def test_verdict_log_failure_fatal_without_degrade(self, tmp_path):
        config = PipelineConfig(
            reduction_percentile=10.0, vol_percentile=90.0, degrade=False
        )
        detector = OnlineDetector(
            HOSTS, window=WINDOW, config=config, checkpoint_dir=tmp_path
        )
        with injected(io_errors=["verdict-log"]):
            with pytest.raises(OSError):
                self.run_windows(detector)
