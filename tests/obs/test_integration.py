"""The acceptance path: one observed FindPlotters run, end to end.

With observability enabled, a single :func:`find_plotters` call must
produce a JSONL trace containing all four stage spans with durations
and the host-count funnel (input → reduction → vol/churn → hm), a
valid Prometheus exposition, and — after an :class:`OnlineDetector`
pass — the online counters, with the same stage spans nested under
``online_evaluate``.  With it disabled, the same call must emit
nothing.
"""

import json

import pytest

from repro import obs
from repro.detection import OnlineDetector, find_plotters

STAGES = ("reduction", "theta_vol", "theta_churn", "theta_hm")


class TestObservedPipelineRun:
    @pytest.fixture
    def observed_run(self, enabled_obs, overlaid_day, campus_day, tmp_path):
        memory = obs.InMemorySink()
        jsonl = obs.JsonlSink(tmp_path / "metrics.jsonl")
        obs.add_sink(memory)
        obs.add_sink(jsonl)
        result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        jsonl.write_event(obs.metrics_event())
        obs.remove_sink(jsonl)
        jsonl.close()
        prom_path = obs.write_prom(tmp_path / "metrics.prom")
        return result, memory, tmp_path / "metrics.jsonl", prom_path

    def test_all_stage_spans_present_with_durations(self, observed_run):
        _result, memory, _jsonl, _prom = observed_run
        for stage in STAGES:
            spans = memory.by_name(stage)
            assert len(spans) == 1, f"expected one {stage} span"
            assert spans[0]["wall_seconds"] >= 0.0
            assert spans[0]["cpu_seconds"] >= 0.0
            assert spans[0]["status"] == "ok"

    def test_funnel_matches_pipeline_result(self, observed_run):
        result, memory, _jsonl, _prom = observed_run
        reduction = memory.by_name("reduction")[0]["attrs"]
        assert reduction["input_hosts"] == len(result.input_hosts)
        assert reduction["surviving_hosts"] == len(result.reduced_hosts)
        hm = memory.by_name("theta_hm")[0]["attrs"]
        assert hm["input_hosts"] == len(result.union_vol_churn)
        assert hm["surviving_hosts"] == len(result.suspects)
        # The funnel narrows at each step.
        vol = memory.by_name("theta_vol")[0]["attrs"]
        assert vol["input_hosts"] == len(result.reduced_hosts)
        assert vol["surviving_hosts"] <= vol["input_hosts"]
        assert hm["surviving_hosts"] <= hm["input_hosts"]

    def test_stage_spans_nest_under_root(self, observed_run):
        _result, memory, _jsonl, _prom = observed_run
        root = memory.by_name("find_plotters")[0]
        for stage in STAGES:
            assert memory.by_name(stage)[0]["parent_id"] == root["span_id"]
        # θ_hm's internals nest deeper: clustering under the stage span.
        cluster = memory.by_name("cluster_hosts")[0]
        assert cluster["parent_id"] == memory.by_name("theta_hm")[0]["span_id"]
        assert memory.by_name("emd_matrix")[0]["parent_id"] == cluster["span_id"]

    def test_jsonl_file_parses_and_carries_funnel(self, observed_run):
        _result, _memory, jsonl, _prom = observed_run
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert set(STAGES) <= span_names
        snapshots = [r for r in records if r["type"] == "metrics"]
        assert snapshots
        funnel = snapshots[-1]["metrics"]["repro_stage_surviving_hosts"]
        assert set(f"stage={s}" for s in STAGES) == set(funnel)

    def test_prom_file_has_funnel_and_kernel_metrics(self, observed_run):
        _result, _memory, _jsonl, prom = observed_run
        text = prom.read_text()
        assert "# TYPE repro_stage_input_hosts gauge" in text
        assert 'repro_stage_input_hosts{stage="reduction"}' in text
        assert 'repro_stage_threshold{stage="theta_hm"}' in text
        assert "repro_emd_pairs_total" in text
        assert "repro_pipeline_runs_total 1.0" in text
        assert 'repro_span_seconds_bucket{span="theta_hm",le="+Inf"}' in text

    def test_funnel_gauges_match_result(self, observed_run):
        result, _memory, _jsonl, _prom = observed_run
        s = obs.summary()
        surviving = s["repro_stage_surviving_hosts"]
        assert surviving["stage=reduction"] == len(result.reduced_hosts)
        assert surviving["stage=theta_hm"] == len(result.suspects)
        assert (
            s["repro_emd_backend_selected_total"].get("backend=vectorized", 0)
            >= 1
        )


class TestOnlineDetectorTelemetry:
    def test_online_counters_reach_registry(
        self, enabled_obs, overlaid_day, campus_day
    ):
        detector = OnlineDetector(
            campus_day.all_hosts,
            window=campus_day.window + 1.0,
            reservoir_size=512,
        )
        detector.ingest_many(overlaid_day.store)
        detector.evaluate()
        detector.evaluate()
        s = obs.summary()
        assert s["repro_online_evaluations_total"][""] == 2.0
        assert s["repro_online_reservoir_samples"][""] > 0
        assert s["repro_online_tracked_hosts"][""] > 0
        assert s["repro_flows_ingested_total"][""] == len(
            list(overlaid_day.store)
        )

    def test_stage_spans_nest_under_online_evaluate(
        self, enabled_obs, overlaid_day, campus_day
    ):
        memory = obs.InMemorySink()
        obs.add_sink(memory)
        detector = OnlineDetector(
            campus_day.all_hosts, window=campus_day.window + 1.0
        )
        detector.ingest_many(overlaid_day.store)
        verdict = detector.evaluate()
        root = memory.by_name("online_evaluate")[-1]
        for stage in STAGES:
            assert memory.by_name(stage)[-1]["parent_id"] == root["span_id"]
        assert root["attrs"]["suspects"] == len(verdict.suspects)
        assert memory.by_name("find_plotters") == []

    def test_window_tumbles_counted(self, enabled_obs, overlaid_day, campus_day):
        detector = OnlineDetector(
            campus_day.all_hosts, window=campus_day.window / 3
        )
        detector.ingest_many(overlaid_day.store)
        tumbles = obs.counter("repro_online_window_tumbles_total").value()
        assert tumbles == len(detector.history) > 0


class TestDisabledModeSilence:
    def test_no_spans_no_metrics(self, clean_obs, overlaid_day, campus_day):
        memory = obs.InMemorySink()
        obs.add_sink(memory)
        result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        assert result.suspects is not None
        assert memory.spans == []
        assert obs.summary()["repro_pipeline_runs_total"] == {}

    def test_same_verdicts_enabled_or_disabled(
        self, clean_obs, overlaid_day, campus_day
    ):
        """Instrumentation must not perturb detection results."""
        disabled = find_plotters(
            overlaid_day.store, hosts=campus_day.all_hosts
        )
        obs.enable()
        enabled = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        obs.disable()
        assert disabled.suspects == enabled.suspects
        assert disabled.reduced_hosts == enabled.reduced_hosts
