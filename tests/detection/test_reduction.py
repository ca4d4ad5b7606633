"""Tests for the initial data-reduction step (§V-A)."""

import pytest

from repro.detection.reduction import failed_rates, initial_data_reduction
from repro.flows import FlowRecord, FlowState, FlowStore, Protocol
from repro.flows.metrics import extract_all_features


def features_of(records):
    return extract_all_features(FlowStore(records))


def flows_for(src, n_ok, n_fail):
    records = []
    for i in range(n_ok):
        records.append(
            FlowRecord(
                src=src, dst=f"d{i}", sport=1, dport=2, proto=Protocol.TCP,
                start=float(i), end=float(i) + 1,
            )
        )
    for i in range(n_fail):
        records.append(
            FlowRecord(
                src=src, dst=f"f{i}", sport=1, dport=2, proto=Protocol.TCP,
                start=100.0 + i, end=101.0 + i, state=FlowState.TIMEOUT,
            )
        )
    return records


class TestFailedRates:
    def test_rates_computed(self):
        features = features_of(flows_for("a", 3, 1) + flows_for("b", 1, 3))
        rates = failed_rates(features, {"a", "b"})
        assert rates["a"] == pytest.approx(0.25)
        assert rates["b"] == pytest.approx(0.75)

    def test_all_failed_hosts_excluded(self):
        features = features_of(flows_for("deadonly", 0, 5))
        assert failed_rates(features, {"deadonly"}) == {}

    def test_silent_hosts_excluded(self):
        features = features_of(flows_for("a", 1, 0))
        assert set(failed_rates(features, {"a", "ghost"})) == {"a"}


class TestReduction:
    def test_keeps_high_failure_half(self):
        features = features_of(
            flows_for("low1", 9, 1)
            + flows_for("low2", 8, 2)
            + flows_for("high1", 4, 6)
            + flows_for("high2", 3, 7)
        )
        result = initial_data_reduction(features)
        assert result.selected == frozenset({"high1", "high2"})
        assert 0.2 <= result.threshold <= 0.6

    def test_metric_covers_all_eligible(self):
        features = features_of(flows_for("a", 1, 1) + flows_for("b", 1, 0))
        result = initial_data_reduction(features)
        assert set(result.metric) == {"a", "b"}

    def test_empty_store(self):
        result = initial_data_reduction(features_of([]))
        assert result.selected == frozenset()

    def test_on_synthetic_campus(self, overlaid_day, campus_day):
        # The paper: P2P hosts (Traders and Plotters) survive reduction
        # at a far higher rate than the general population.
        result = initial_data_reduction(
            extract_all_features(overlaid_day.store), campus_day.all_hosts
        )
        survivors = result.selected_set
        assert len(survivors) <= len(campus_day.all_hosts) * 0.55
        traders = campus_day.trader_hosts
        trader_rate = len(survivors & traders) / len(traders)
        overall_rate = len(survivors) / len(campus_day.all_hosts)
        assert trader_rate > overall_rate
