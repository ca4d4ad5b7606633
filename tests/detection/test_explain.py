"""Tests for per-host evidence reports."""

import pytest

from repro.detection import (
    explain_host,
    find_plotters,
    format_explanation,
)


@pytest.fixture(scope="module")
def explained(overlaid_day, campus_day):
    result = find_plotters(overlaid_day.store, hosts=campus_day.all_hosts)
    return result, campus_day


class TestExplainHost:
    def test_flagged_host_has_full_trail(self, explained):
        result, campus = explained
        if not result.suspects:
            pytest.skip("no suspects at this tiny scale")
        host = sorted(result.suspects)[0]
        explanation = explain_host(result, host)
        assert explanation.flagged
        stage_names = [s.stage for s in explanation.stages]
        assert stage_names[0] == "reduction"
        assert "human-machine" in stage_names
        # A flagged host passed the reduction and at least one of
        # volume/churn, and its hm stage passed.
        by_name = {s.stage: s for s in explanation.stages}
        assert by_name["reduction"].passed
        assert by_name["volume"].passed or by_name["churn"].passed
        assert by_name["human-machine"].passed

    def test_unflagged_host_names_failed_stage(self, explained):
        result, campus = explained
        cleared = sorted(campus.all_hosts - result.suspects)[0]
        explanation = explain_host(result, cleared)
        assert not explanation.flagged
        assert explanation.failed_stage is not None

    def test_silent_host_not_evaluated(self, explained):
        result, _campus = explained
        explanation = explain_host(result, "10.99.99.99")
        assert not explanation.flagged
        assert all(not s.passed for s in explanation.stages)

    def test_cluster_members_are_other_hosts(self, explained):
        result, _campus = explained
        for host in sorted(result.suspects):
            explanation = explain_host(result, host)
            assert host not in explanation.cluster_members
            # Flagged hosts sit in >= 2-host clusters by construction.
            assert explanation.cluster_members


class TestClusterReuse:
    def test_result_carries_the_pipeline_clustering(self, explained):
        from repro.detection.humanmachine import HmClustering

        result, _campus = explained
        assert isinstance(result.hm.detail, HmClustering)

    def test_explain_reuses_it_without_reclustering(
        self, explained, monkeypatch
    ):
        import repro.detection.humanmachine as hm_mod

        result, _campus = explained
        if not result.suspects:
            pytest.skip("no suspects at this tiny scale")

        def boom(*args, **kwargs):
            raise AssertionError("explain_host re-ran cluster_hosts")

        monkeypatch.setattr(hm_mod, "cluster_hosts", boom)
        monkeypatch.setattr(hm_mod, "host_histograms", boom)
        host = sorted(result.suspects)[0]
        explanation = explain_host(result, host)
        assert explanation.flagged
        assert explanation.cluster_members


class TestFormatting:
    def test_render_contains_verdict_and_comparisons(self, explained):
        result, campus = explained
        host = sorted(campus.all_hosts)[0]
        text = format_explanation(explain_host(result, host))
        assert text.startswith(f"host {host}:")
        assert "reduction" in text
        assert "<" in text or ">" in text or "not evaluated" in text

    def test_comparison_string(self):
        from repro.detection.explain import StageEvidence

        evidence = StageEvidence(
            stage="volume", metric_name="avg", value=10.0, threshold=20.0,
            keep_below=True, passed=True,
        )
        assert evidence.comparison == "10 < 20"
        missing = StageEvidence(
            stage="volume", metric_name="avg", value=None, threshold=20.0,
            keep_below=True, passed=False,
        )
        assert missing.comparison == "not evaluated"
