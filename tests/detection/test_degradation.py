"""Graceful degradation: environmental faults change wall time, never suspects.

Every test injects a fault through :mod:`repro.resilience.faults`,
runs the batch pipeline, and asserts the run either (a) completes with
exactly the clean run's suspects and reports the degradation — for
faults of an environmental resource (the ``store_dir`` spool) — or
(b) raises, for a failing computation that has no resource to fall
back from.  No silent fallback, no changed verdicts.
"""

from unittest.mock import patch

import pytest

from repro import obs
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.resilience.faults import InjectedFault, injected


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

