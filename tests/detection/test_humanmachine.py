"""Tests for θ_hm — histograms, clustering, diameter filtering."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.humanmachine import (
    _LOG_FLOOR,
    MIN_SAMPLES,
    cluster_hosts,
    cluster_matrix,
    host_histograms,
    kept_at,
    theta_hm,
)
from repro.flows import FlowRecord, FlowStore, Protocol
from repro.flows.metrics import HostFeatures, extract_all_features
from repro.stats.emd import pairwise_emd
from repro.stats.histogram import build_histogram


def features_of(records):
    return extract_all_features(FlowStore(records))


def periodic_flows(src, period, n, phase=0.0, dst="peer"):
    return [
        FlowRecord(
            src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
            start=phase + i * period, end=phase + i * period + 0.5,
        )
        for i in range(n)
    ]


def irregular_flows(src, seed, n, dst="site"):
    rng = np.random.default_rng(seed)
    start = 0.0
    flows = []
    for _ in range(n):
        start += float(rng.lognormal(mean=np.log(20 * (1 + seed)), sigma=1.5))
        flows.append(
            FlowRecord(
                src=src, dst=dst, sport=1, dport=2, proto=Protocol.TCP,
                start=start, end=start + 0.5,
            )
        )
    return flows


class TestHostHistograms:
    def test_min_samples_enforced(self):
        features = features_of(periodic_flows("few", 10.0, 3))
        assert host_histograms(features, ["few"]) == {}

    def test_log_scale_positions(self):
        features = features_of(periodic_flows("bot", 100.0, 50))
        hist = host_histograms(features, ["bot"])["bot"]
        assert hist.centers[0] == pytest.approx(2.0, abs=0.1)  # log10(100)

    def test_raw_scale_positions(self):
        features = features_of(periodic_flows("bot", 100.0, 50))
        hist = host_histograms(features, ["bot"], log_scale=False)["bot"]
        assert hist.centers[0] == pytest.approx(100.0, abs=1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(
                st.floats(0.0, 1e6),
                st.sampled_from(
                    [0.0, 5e-324, 1e-4, np.nextafter(_LOG_FLOOR, 0.0),
                     _LOG_FLOOR, np.nextafter(_LOG_FLOOR, 1.0)]
                ),
            ),
            min_size=MIN_SAMPLES,
            max_size=300,
        )
    )
    def test_log_histogram_bit_equal_to_per_sample_form(self, samples):
        # One log10 over the host's samples bins exactly as one log10
        # per sample on a Python float did, floor included.
        bundle = HostFeatures(
            host="h", flow_count=1, successful_flow_count=1,
            avg_flow_size=0.0, failed_conn_rate=0.0, new_ip_fraction=0.0,
            distinct_destinations=1, interstitials=tuple(samples),
        )
        hist = host_histograms({"h": bundle}, ["h"])["h"]
        expected = build_histogram(
            [np.log10(max(s, _LOG_FLOOR)) for s in samples]
        )
        assert np.array(hist.centers).tobytes() == np.array(expected.centers).tobytes()
        assert np.array(hist.weights).tobytes() == np.array(expected.weights).tobytes()
        assert struct.pack("<d", hist.bin_width) == struct.pack(
            "<d", expected.bin_width
        )


class TestClusterHosts:
    def test_empty(self):
        clustering = cluster_hosts({}, 70.0)
        assert clustering.clusters == ()
        assert clustering.kept == ()

    def test_single_host_not_kept_by_default(self):
        hist = build_histogram([1.0, 2.0, 3.0])
        clustering = cluster_hosts({"only": hist}, 70.0)
        assert clustering.kept == ()

    def test_empty_input_has_zero_threshold(self):
        clustering = cluster_hosts({}, 70.0)
        assert clustering.hosts == ()
        assert clustering.diameters == ()
        assert clustering.threshold == 0.0

    def test_single_host_diameter_is_zero(self):
        hist = build_histogram([1.0, 2.0, 3.0])
        clustering = cluster_hosts({"only": hist}, 70.0)
        assert clustering.clusters == (("only",),)
        assert clustering.diameters == (0.0,)

    def test_all_identical_histograms_all_kept(self):
        """Tie-heavy diameters: every cluster sits exactly at τ_hm.

        Identical histograms give an all-zero distance matrix, so every
        cluster diameter and the percentile threshold are all 0.0 — the
        ``threshold + 1e-9`` tolerance must keep every non-singleton
        cluster rather than dropping ties to float dust.
        """
        hist = build_histogram([1.0, 1.5, 2.0, 2.0, 3.0])
        histograms = {f"h{i}": hist for i in range(8)}
        clustering = cluster_hosts(histograms, 70.0)
        assert all(d == 0.0 for d in clustering.diameters)
        assert clustering.threshold == 0.0
        kept_hosts = {h for cluster in clustering.kept for h in cluster}
        multi_hosts = {
            h
            for cluster in clustering.clusters
            if len(cluster) >= 2
            for h in cluster
        }
        assert kept_hosts == multi_hosts
        assert kept_hosts  # the tolerance actually kept something

    def test_backends_agree_on_clustering(self):
        flows = []
        for i in range(3):
            flows += periodic_flows(f"bot{i}", 30.0, 60, phase=i * 0.1)
        for i in range(3):
            flows += irregular_flows(f"human{i}", seed=i + 1, n=60)
        hosts = [f"bot{i}" for i in range(3)] + [f"human{i}" for i in range(3)]
        histograms = host_histograms(features_of(flows), hosts)
        names = sorted(histograms)
        oracle = cluster_matrix(
            names,
            pairwise_emd([histograms[h] for h in names], backend="loop"),
            70.0,
        )
        production = cluster_hosts(histograms, 70.0)
        assert production.clusters == oracle.clusters
        assert production.kept == oracle.kept
        np.testing.assert_allclose(
            production.diameters, oracle.diameters, atol=1e-12, rtol=0.0
        )
        assert production.threshold == pytest.approx(oracle.threshold, abs=1e-12)

    def test_identical_bots_cluster_together(self):
        flows = []
        for i in range(4):
            flows += periodic_flows(f"bot{i}", 30.0, 60, phase=i * 0.1)
        for i in range(4):
            flows += irregular_flows(f"human{i}", seed=i + 1, n=60)
        hosts = [f"bot{i}" for i in range(4)] + [f"human{i}" for i in range(4)]
        histograms = host_histograms(features_of(flows), hosts)
        clustering = cluster_hosts(histograms, 70.0, cut_fraction=0.3)
        bot_cluster = next(
            (c for c in clustering.clusters if "bot0" in c), None
        )
        assert bot_cluster is not None
        assert set(bot_cluster) >= {f"bot{i}" for i in range(4)}


class TestClusterMatrix:
    """θ_hm's keep rule over a caller's distance matrix (the ablation's
    L1 distance, or the tests' loop oracle)."""

    def test_keeps_tight_groups_of_any_metric(self):
        points = [0.0, 0.1, 0.2, 50.0, 50.1, 50.2, 200.0, 260.0]
        hosts = [f"h{i}" for i in range(len(points))]
        pts = np.asarray(points)
        distance = np.abs(pts[:, None] - pts[None, :])
        clustering = cluster_matrix(hosts, distance, 70.0, cut_fraction=0.3)
        kept = {h for cluster in clustering.kept for h in cluster}
        assert kept == {"h0", "h1", "h2", "h3", "h4", "h5"}
        assert set(clustering.hosts) == set(hosts)

    def test_lone_host_is_never_kept(self):
        clustering = cluster_matrix(["only"], np.zeros((1, 1)), 70.0)
        assert clustering.clusters == (("only",),)
        assert clustering.diameters == (0.0,)
        assert clustering.kept == ()

    def test_kept_at_is_the_one_keep_rule(self):
        """Diameter within τ_hm (plus float-dust tolerance) and at
        least two hosts; Figure 8's sweep calls the same rule."""
        clusters = (("a", "b"), ("c", "d"), ("e", "f"), ("g",))
        diameters = (1.0 + 5e-10, 1.0 + 2e-9, 0.5, 0.0)
        assert kept_at(clusters, diameters, 1.0) == (("a", "b"), ("e", "f"))
        assert kept_at(clusters, diameters, 0.4) == ()


class TestThetaHm:
    def test_bots_survive_humans_filtered(self):
        flows = []
        for i in range(5):
            flows += periodic_flows(f"bot{i}", 25.0, 80, phase=i * 0.2)
        for i in range(8):
            flows += irregular_flows(f"human{i}", seed=10 + 3 * i, n=80)
        hosts = {f"bot{i}" for i in range(5)} | {f"human{i}" for i in range(8)}
        result = theta_hm(
            features_of(flows), hosts, percentile=30.0, cut_fraction=0.3
        )
        bots = {f"bot{i}" for i in range(5)}
        assert bots <= result.selected_set
        humans_kept = result.selected_set - bots
        assert len(humans_kept) <= 4

    def test_metric_maps_hosts_to_cluster_diameter(self):
        flows = []
        for i in range(3):
            flows += periodic_flows(f"bot{i}", 25.0, 40, phase=i * 0.2)
        result = theta_hm(
            features_of(flows), {f"bot{i}" for i in range(3)}, 70.0
        )
        assert set(result.metric) == {f"bot{i}" for i in range(3)}
        assert all(v >= 0 for v in result.metric.values())

    def test_hosts_without_samples_never_selected(self):
        features = features_of(periodic_flows("bot", 25.0, 40))
        result = theta_hm(features, {"bot", "silent"}, 70.0)
        assert "silent" not in result.selected_set
