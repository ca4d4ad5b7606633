"""Tests for the FindPlotters pipeline and its reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.detection.report import average_reports, evaluate_pipeline


class TestPipelineStructure:
    def test_stage_containment(self, overlaid_day, campus_day):
        result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        assert result.reduced_hosts <= set(result.input_hosts)
        assert result.volume.selected_set <= result.reduced_hosts
        assert result.churn.selected_set <= result.reduced_hosts
        assert result.union_vol_churn == (
            result.volume.selected_set | result.churn.selected_set
        )
        assert result.suspects <= result.union_vol_churn

    def test_reduction_can_be_disabled(self, overlaid_day, campus_day):
        config = PipelineConfig(apply_reduction=False)
        result = find_plotters(
            overlaid_day.store, hosts=campus_day.all_hosts, config=config
        )
        assert result.reduction is None
        assert result.reduced_hosts == campus_day.all_hosts

    def test_defaults_match_paper_operating_point(self):
        config = PipelineConfig()
        assert config.vol_percentile == 50.0
        assert config.churn_percentile == 50.0
        assert config.reduction_percentile == 50.0
        assert config.apply_reduction

    def test_pipeline_deterministic(self, overlaid_day, campus_day):
        a = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        b = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        assert a.suspects == b.suspects

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(segment_rows=0)


class TestEvaluation:
    @pytest.fixture
    def report(self, overlaid_day, campus_day):
        result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        return evaluate_pipeline(
            result,
            {
                "storm": overlaid_day.plotters_of("storm"),
                "nugache": overlaid_day.plotters_of("nugache"),
            },
            campus_day.trader_hosts,
        )

    def test_stage_counts_monotone_after_reduction(self, report):
        by_name = {s.stage: s for s in report.stages}
        assert by_name["input"].total >= by_name["reduction"].total
        assert by_name["vol-or-churn"].total >= by_name["hm"].total

    def test_rates_bounded(self, report):
        assert 0.0 <= report.false_positive_rate <= 1.0
        assert 0.0 <= report.trader_survival <= 1.0
        for value in report.tpr_per_class.values():
            assert 0.0 <= value <= 1.0

    def test_composition_reduces_nonplotters(self, report):
        by_name = {s.stage: s for s in report.stages}
        input_nonplotters = by_name["input"].total - (
            by_name["input"].per_class["storm"]
            + by_name["input"].per_class["nugache"]
        )
        final_nonplotters = by_name["hm"].total - (
            by_name["hm"].per_class["storm"]
            + by_name["hm"].per_class["nugache"]
        )
        assert final_nonplotters < input_nonplotters * 0.3

    def test_tpr_accessor(self, report):
        assert report.tpr("storm") == report.tpr_per_class["storm"]
        assert report.tpr("not-a-botnet") == 0.0


class TestAverageReports:
    def test_averaging(self, overlaid_day, campus_day):
        result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
        report = evaluate_pipeline(
            result,
            {"storm": overlaid_day.plotters_of("storm")},
            campus_day.trader_hosts,
        )
        summary = average_reports([report, report])
        assert summary["tpr_storm"] == report.tpr("storm")
        assert summary["fpr"] == report.false_positive_rate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_reports([])


def test_pipeline_import_loads_no_scipy():
    """scipy is a test-only dependency: the detector must not import it."""
    code = (
        "import sys, repro.detection.pipeline;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
    )
    assert child.stdout.strip() == "[]"
