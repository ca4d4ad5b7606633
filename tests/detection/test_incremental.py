"""Tests for the sliding-window online detector."""

import dataclasses

import numpy as np
import pytest

from repro.detection.incremental import OnlineDetector
from repro.detection.pipeline import PipelineConfig, find_plotters
from repro.flows import FlowRecord, FlowState, FlowStore, Protocol


def flow(src, dst="d", start=0.0, src_bytes=100, failed=False):
    return FlowRecord(
        src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
        start=start, end=start + 1, src_bytes=src_bytes,
        state=FlowState.TIMEOUT if failed else FlowState.ESTABLISHED,
    )


class TestWindowing:
    def test_tumbles_on_window_boundary(self):
        detector = OnlineDetector({"h"}, window=100.0)
        detector.ingest(flow("h", start=10.0))
        detector.ingest(flow("h", start=50.0))
        assert detector.history == []
        detector.ingest(flow("h", start=120.0))  # past 10+100
        assert len(detector.history) == 1
        assert detector.history[0].window_index == 0

    def test_long_gap_skips_empty_windows(self):
        detector = OnlineDetector({"h"}, window=100.0)
        detector.ingest(flow("h", start=0.0))
        detector.ingest(flow("h", start=5000.0))
        assert len(detector.history) == 1  # no verdict spam for silence

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OnlineDetector(set(), window=0.0)


class TestAgreementWithBatch:
    def test_matches_batch_pipeline_on_synthetic_day(
        self, overlaid_day, campus_day
    ):
        """Streamed verdicts ≈ batch verdicts on the same window.

        Scalar metrics are exact; θ_hm uses reservoir sampling, so the
        comparison allows a small symmetric difference.
        """
        config = PipelineConfig()
        batch = find_plotters(
            overlaid_day.store, hosts=campus_day.all_hosts, config=config
        )
        online = OnlineDetector(
            campus_day.all_hosts,
            window=campus_day.window + 1.0,
            config=config,
            reservoir_size=100_000,  # effectively uncapped: exact samples
        )
        online.ingest_many(overlaid_day.store)
        verdict = online.evaluate()
        assert verdict.reduced == batch.reduced_hosts
        # With an uncapped reservoir the interstitial sample sets are
        # identical, so θ_hm agrees exactly.
        assert verdict.suspects == batch.suspects

    def test_reservoir_approximation_close(self, overlaid_day, campus_day):
        config = PipelineConfig()
        batch = find_plotters(
            overlaid_day.store, hosts=campus_day.all_hosts, config=config
        )
        online = OnlineDetector(
            campus_day.all_hosts,
            window=campus_day.window + 1.0,
            config=config,
            reservoir_size=512,
        )
        online.ingest_many(overlaid_day.store)
        verdict = online.evaluate()
        # The reduction and vol/churn stages are exact regardless of the
        # reservoir; only θ_hm's clustering sees sampled interstitials,
        # and its cluster boundaries are sensitive at this tiny test
        # scale — require meaningful but not perfect agreement.
        assert verdict.reduced == batch.reduced_hosts
        union = verdict.suspects | batch.suspects
        if union:
            overlap = len(verdict.suspects & batch.suspects) / len(union)
            assert overlap > 0.15

    def test_external_sources_never_scored(self):
        detector = OnlineDetector({"internal"}, window=1000.0)
        detector.ingest(flow("internal", failed=True, start=1.0))
        detector.ingest(flow("internal", start=2.0))
        detector.ingest(flow("8.8.8.8", start=3.0))
        verdict = detector.evaluate()
        assert verdict.hosts_seen == 1

    def test_empty_window_verdict(self):
        detector = OnlineDetector({"h"}, window=100.0)
        verdict = detector.evaluate()
        assert verdict.suspects == frozenset()
        assert verdict.hosts_seen == 0


def _mixed_population_flows(window=1000.0):
    """One window of timer bots plus irregular hosts; with
    ``_MIXED_CONFIG`` several hosts reach the θ_hm histogram stage."""
    rng = np.random.default_rng(42)
    flows = []
    for b in range(4):
        period = 8.0 + b * 0.01
        for k in range(60):
            flows.append(
                flow(
                    f"bot{b}",
                    dst="peer",
                    start=k * period,
                    src_bytes=40 + 3 * b,
                    failed=(k % (3 + b) == 0),
                )
            )
    for h in range(4):
        start = 0.0
        for k in range(60):
            start += float(rng.uniform(2.0, 14.0))
            flows.append(
                flow(
                    f"human{h}",
                    dst="site",
                    start=start,
                    src_bytes=200 + 10 * h,
                    failed=(k % (20 + 5 * h) == 0),
                )
            )
    assert all(f.start < window for f in flows)
    return sorted(flows, key=lambda f: f.start)


_MIXED_HOSTS = {f"bot{b}" for b in range(4)} | {f"human{h}" for h in range(4)}

#: Permissive thresholds so most of the mixed population reaches θ_hm.
_MIXED_CONFIG = PipelineConfig(reduction_percentile=10.0, vol_percentile=90.0)


class TestOnlineEqualsBatch:
    """Online scoring runs the batch core: with every interstitial in the
    reservoir, a window's verdict is exactly find_plotters on its flows."""

    @pytest.mark.parametrize("apply_reduction", [True, False])
    @pytest.mark.parametrize("thresholds", ["default", "mixed"])
    def test_uncapped_reservoir_matches_find_plotters(
        self, thresholds, apply_reduction
    ):
        base = _MIXED_CONFIG if thresholds == "mixed" else PipelineConfig()
        config = dataclasses.replace(base, apply_reduction=apply_reduction)
        flows = _mixed_population_flows()
        batch = find_plotters(FlowStore(flows), _MIXED_HOSTS, config)
        online = OnlineDetector(
            _MIXED_HOSTS, window=1000.0, config=config, reservoir_size=100_000
        )
        online.ingest_many(flows)
        verdict = online.evaluate()
        assert verdict.hosts_seen == len(batch.input_hosts)
        assert verdict.reduced == batch.reduced_hosts
        assert verdict.suspects == batch.suspects

    def test_comparison_reaches_theta_hm(self):
        """The population is not vacuous: some settings flag hosts."""
        config = dataclasses.replace(_MIXED_CONFIG, apply_reduction=False)
        batch = find_plotters(
            FlowStore(_mixed_population_flows()), _MIXED_HOSTS, config
        )
        assert batch.suspects

