"""Tests for θ_vol and θ_churn."""

import pytest

from repro.detection.churn import churn_metric, theta_churn
from repro.detection.volume import theta_vol, volume_metric
from repro.flows import FlowRecord, FlowStore, Protocol
from repro.flows.metrics import extract_all_features


def features_of(records):
    return extract_all_features(FlowStore(records))


@pytest.fixture(scope="module")
def day_features(overlaid_day):
    return extract_all_features(overlaid_day.store)


def flow(src, dst, start=0.0, src_bytes=100):
    return FlowRecord(
        src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
        start=start, end=start + 1, src_bytes=src_bytes,
    )


class TestThetaVol:
    def test_selects_low_volume_hosts(self):
        features = features_of(
            [flow("tiny", "d", src_bytes=10)] * 1
            + [flow("small", "d", src_bytes=100)]
            + [flow("big", "d", src_bytes=10_000)]
            + [flow("huge", "d", src_bytes=1_000_000)]
        )
        result = theta_vol(features, {"tiny", "small", "big", "huge"}, 50.0)
        assert result.selected == frozenset({"tiny", "small"})
        assert result.name == "volume"

    def test_empty_hosts(self):
        result = theta_vol(features_of([]), set(), 50.0)
        assert result.selected == frozenset()

    def test_metric_is_average_upload(self):
        features = features_of(
            [flow("h", "a", 0.0, 100), flow("h", "b", 1.0, 300)]
        )
        assert volume_metric(features, {"h"}) == {"h": 200.0}

    def test_threshold_percentile_monotone(self, day_features, campus_day):
        hosts = campus_day.all_hosts
        low = theta_vol(day_features, hosts, 10.0)
        high = theta_vol(day_features, hosts, 90.0)
        assert low.selected <= high.selected


class TestThetaChurn:
    def test_selects_low_churn_hosts(self):
        # "stable" talks to one peer all day; "churny" meets someone new
        # every hour.
        flows = []
        for hour in range(6):
            flows.append(flow("stable", "peer", start=hour * 3600.0))
            flows.append(flow("churny", f"new{hour}", start=hour * 3600.0))
        result = theta_churn(features_of(flows), {"stable", "churny"}, 50.0)
        assert "stable" in result.selected
        assert "churny" not in result.selected

    def test_metric_range(self, day_features, campus_day):
        metric = churn_metric(day_features, campus_day.all_hosts)
        assert metric
        assert all(0.0 <= v <= 1.0 for v in metric.values())

    def test_plotters_below_traders(
        self, overlaid_day, day_features, campus_day
    ):
        # Median churn of Plotter hosts sits below median Trader churn.
        import numpy as np

        metric = churn_metric(day_features, campus_day.all_hosts)
        storm = overlaid_day.plotters_of("storm")
        traders = campus_day.trader_hosts - overlaid_day.plotter_hosts
        storm_median = np.median([metric[h] for h in storm if h in metric])
        trader_median = np.median([metric[h] for h in traders if h in metric])
        assert storm_median < trader_median


class TestResultHelpers:
    def test_survival_rate(self):
        features = features_of(
            [flow("a", "d"), flow("b", "d", src_bytes=10**6)]
        )
        result = theta_vol(features, {"a", "b"}, 50.0)
        assert result.survival_rate({"a"}) == 1.0
        assert result.survival_rate({"b"}) == 0.0
        assert result.survival_rate(set()) == 0.0
        assert result.selected_set == set(result.selected)
