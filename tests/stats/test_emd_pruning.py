"""Equivalence suite for the candidate-pruned pairwise-EMD engine.

The pruned engine (:mod:`repro.stats.emdindex`) must be *exact*: the
same suspect set, cluster partition and diameters as the loop backend,
to float dust, on every population — whether it certifies a group
decomposition or declares a fallback and runs the exact path.  These
tests pin both the certified route (well-separated timer families) and
every fallback route, plus the property the whole design rests on:
every pruning bound is a true lower bound on the exact EMD.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detection.humanmachine import cluster_hosts
from repro.stats.clustering import (
    average_linkage,
    cluster_diameters,
    cut_top_links,
)
from repro.stats.emd import (
    PAIRWISE_BACKENDS,
    PRUNED_MIN_HOSTS,
    emd_1d,
    pairwise_emd,
    resolve_backend,
)
from repro.stats.emdindex import (
    _MIN_PRUNE_HOSTS,
    build_index,
    pruned_matrix,
    pruned_partition,
)
from repro.stats.histogram import build_histogram

from .test_emd import hist, histogram_strategy, random_population

DEFAULT_CUT = 0.05


def modal_population(n_hosts, n_modes, seed=7, spread=0.02, gap=1.5):
    """Hosts drawn from ``n_modes`` tight, well-separated timer families.

    This is the shape θ_hm exists to find — bots of one botnet share
    binary timers — and the shape the pruning index can *certify*: the
    inter-family EMD (≈ ``gap``) dwarfs every intra-family distance
    (≈ ``spread``), so the group decomposition is provable from lower
    bounds alone.
    """
    rng = np.random.default_rng(seed)
    hists = []
    for k in range(n_hosts):
        mode = k % n_modes
        samples = rng.normal(gap * mode, spread, 150)
        hists.append(build_histogram(samples.tolist()))
    return hists


def reference_partition(histograms, cut_fraction=DEFAULT_CUT):
    """Ground truth: full matrix, full UPGMA, top-links cut."""
    matrix = pairwise_emd(histograms, backend="loop")
    members = cut_top_links(average_linkage(matrix), cut_fraction)
    return members, cluster_diameters(matrix, members), matrix


def assert_partitions_equal(got_members, got_diameters, histograms):
    ref_members, ref_diameters, _ = reference_partition(histograms)
    assert [list(m) for m in got_members] == [list(m) for m in ref_members]
    np.testing.assert_allclose(
        np.asarray(got_diameters),
        np.asarray(ref_diameters),
        atol=1e-12,
        rtol=0.0,
    )


# ----------------------------------------------------------------------
# Property: every pruning bound is a true lower bound on exact EMD
# ----------------------------------------------------------------------
class TestLowerBoundProperty:
    @settings(max_examples=30, deadline=None)
    @given(hists=st.lists(histogram_strategy, min_size=3, max_size=10))
    def test_bounds_never_exceed_exact_emd(self, hists):
        index = build_index(hists)
        n = len(hists)
        rows, cols = np.triu_indices(n, k=1)
        bounds = index.lower_bounds(rows, cols)
        for r, c, bound in zip(rows, cols, bounds):
            exact = emd_1d(hists[r], hists[c])
            assert bound <= exact + 1e-9, (
                f"pruning bound {bound} exceeds exact EMD {exact} "
                f"for pair ({r}, {c})"
            )

    def test_bounds_hold_on_large_seeded_population(self):
        hists = random_population(seed=20260808, n_hosts=90)
        index = build_index(hists)
        rows, cols = np.triu_indices(len(hists), k=1)
        bounds = index.lower_bounds(rows, cols)
        exact = pairwise_emd(hists, backend="loop")[rows, cols]
        violations = bounds - exact
        assert float(violations.max()) <= 1e-9

    def test_bounds_hold_on_modal_population(self):
        hists = modal_population(n_hosts=80, n_modes=4)
        index = build_index(hists)
        rows, cols = np.triu_indices(len(hists), k=1)
        bounds = index.lower_bounds(rows, cols)
        exact = pairwise_emd(hists, backend="vectorized")[rows, cols]
        assert float((bounds - exact).max()) <= 1e-9
        # The bounds must also be *useful*: on separated timer families
        # the inter-family bounds must clear the intra-family distances,
        # or certification could never fire.
        same_mode = (rows % 4) == (cols % 4)
        assert float(bounds[~same_mode].min()) > float(exact[same_mode].max())

    def test_identical_hosts_bound_is_zero(self):
        h = hist([1.0, 2.0], [0.5, 0.5])
        index = build_index([h, h, h])
        bounds = index.lower_bounds(np.array([0, 0]), np.array([1, 2]))
        np.testing.assert_allclose(bounds, 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# The pruned matrix is the exact matrix
# ----------------------------------------------------------------------
class TestPrunedMatrix:
    @pytest.mark.parametrize("n_hosts", [2, 3, 17, 60])
    def test_matches_loop_backend(self, n_hosts):
        hists = random_population(seed=n_hosts, n_hosts=n_hosts)
        np.testing.assert_allclose(
            pruned_matrix(hists),
            pairwise_emd(hists, backend="loop"),
            atol=1e-12,
            rtol=0.0,
        )

    def test_disjoint_supports_use_closed_form_exactly(self):
        # Far-apart single-bin hosts: EMD is exactly the position gap,
        # and the dominance closed form must reproduce it bit-for-bit.
        hists = [build_histogram([float(100 * k)]) for k in range(8)]
        matrix = pruned_matrix(hists)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == abs(100.0 * (i - j))

    def test_overlapping_supports_hit_the_kernel(self):
        hists = random_population(seed=5, n_hosts=12, max_bins=12)
        np.testing.assert_allclose(
            pruned_matrix(hists),
            pairwise_emd(hists, backend="vectorized"),
            atol=1e-12,
            rtol=0.0,
        )

    def test_clone_population_is_all_zero(self):
        h = hist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        matrix = pruned_matrix([h] * 10)
        np.testing.assert_array_equal(matrix, np.zeros((10, 10)))

    def test_trivial_populations(self):
        assert pruned_matrix([]).shape == (0, 0)
        one = pruned_matrix([build_histogram([1.0, 2.0])])
        assert one.shape == (1, 1) and one[0, 0] == 0.0

    def test_via_pairwise_emd_backend(self):
        hists = random_population(seed=11, n_hosts=40)
        np.testing.assert_allclose(
            pairwise_emd(hists, backend="pruned"),
            pairwise_emd(hists, backend="loop"),
            atol=1e-12,
            rtol=0.0,
        )


# ----------------------------------------------------------------------
# The pruned partition is the exact partition
# ----------------------------------------------------------------------
class TestPrunedPartition:
    def test_certified_on_separated_timer_families(self):
        hists = modal_population(n_hosts=120, n_modes=3)
        members, diameters, report = pruned_partition(hists, DEFAULT_CUT)
        assert report.certified
        assert report.fallback_reason == ""
        assert report.groups == 3
        assert report.pairs_pruned > 0
        assert 0.0 < report.prune_fraction < 1.0
        assert report.min_inter_lb > report.max_intra
        assert_partitions_equal(members, diameters, hists)

    def test_exact_when_population_does_not_decompose(self):
        # Random signatures have no separated family structure; the
        # engine must *declare* the fallback and still be exact.
        hists = random_population(seed=3, n_hosts=64)
        members, diameters, report = pruned_partition(hists, DEFAULT_CUT)
        assert not report.certified
        assert report.fallback_reason != ""
        assert_partitions_equal(members, diameters, hists)

    def test_small_population_falls_back(self):
        hists = random_population(seed=1, n_hosts=_MIN_PRUNE_HOSTS - 1)
        members, diameters, report = pruned_partition(hists, DEFAULT_CUT)
        assert not report.certified
        assert report.fallback_reason == "small-population"
        assert_partitions_equal(members, diameters, hists)

    def test_zero_cut_fraction_falls_back(self):
        hists = modal_population(n_hosts=40, n_modes=2)
        members, diameters, report = pruned_partition(hists, 0.0)
        assert report.fallback_reason == "no-cut"
        ref = cut_top_links(
            average_linkage(pairwise_emd(hists, backend="loop")), 0.0
        )
        assert [list(m) for m in members] == [list(m) for m in ref]

    def test_invalid_cut_fraction_rejected(self):
        with pytest.raises(ValueError, match="cut fraction"):
            pruned_partition(modal_population(40, 2), 1.5)

    def test_zero_diameter_bot_clusters(self):
        # Clone families: bots sharing one binary timer produce
        # *identical* histograms — diameters must come out exactly 0.
        clones = []
        for mode in range(3):
            h = hist([10.0 * mode, 10.0 * mode + 1.0], [0.5, 0.5])
            clones.extend([h] * 20)
        members, diameters, report = pruned_partition(clones, DEFAULT_CUT)
        assert_partitions_equal(members, diameters, clones)
        assert set(np.round(diameters, 12)) == {0.0}

    def test_certified_report_accounts_for_every_pair(self):
        hists = modal_population(n_hosts=90, n_modes=3, seed=13)
        _members, _diameters, report = pruned_partition(hists, DEFAULT_CUT)
        assert report.certified
        assert report.pairs_total == 90 * 89 // 2
        assert report.pairs_exact + report.pairs_pruned == report.pairs_total
        assert sum(report.group_sizes) == 90

    @settings(max_examples=8, deadline=None)
    @given(
        n_modes=st.integers(2, 4),
        per_mode=st.integers(12, 25),
        seed=st.integers(0, 2**16),
    )
    def test_modal_populations_always_exact(self, n_modes, per_mode, seed):
        hists = modal_population(n_modes * per_mode, n_modes, seed=seed)
        members, diameters, _report = pruned_partition(hists, DEFAULT_CUT)
        assert_partitions_equal(members, diameters, hists)

    @settings(max_examples=8, deadline=None)
    @given(hists=st.lists(histogram_strategy, min_size=8, max_size=20))
    def test_arbitrary_populations_always_exact(self, hists):
        members, diameters, _report = pruned_partition(hists, DEFAULT_CUT)
        assert_partitions_equal(members, diameters, hists)


# ----------------------------------------------------------------------
# cluster_hosts equivalence: identical suspects through the detector
# ----------------------------------------------------------------------
def _as_host_dict(hists):
    return {f"h{i:04d}": h for i, h in enumerate(hists)}


class TestClusterHostsEquivalence:
    @pytest.mark.parametrize(
        "population",
        [
            lambda: random_population(seed=17, n_hosts=70),
            lambda: modal_population(n_hosts=96, n_modes=4),
            lambda: modal_population(n_hosts=64, n_modes=2, seed=99),
        ],
        ids=["random", "modal4", "modal2"],
    )
    @pytest.mark.parametrize("percentile", [50.0, 70.0, 90.0])
    def test_identical_suspect_sets(self, population, percentile):
        histograms = _as_host_dict(population())
        ref = cluster_hosts(histograms, percentile, backend="loop")
        got = cluster_hosts(histograms, percentile, backend="pruned")
        assert got.backend == "pruned"
        assert got.clusters == ref.clusters
        np.testing.assert_allclose(
            got.diameters, ref.diameters, atol=1e-12, rtol=0.0
        )
        assert got.threshold == pytest.approx(ref.threshold, abs=1e-12)
        assert got.kept == ref.kept

    def test_log_scale_timing_signatures(self):
        # θ_hm bins interstitials in log10-seconds; exercise that range
        # (negative centers, sub-unit spreads) end to end.
        rng = np.random.default_rng(42)
        hists = []
        for k in range(60):
            base = rng.uniform(-2.5, 3.5)
            samples = np.log10(
                np.maximum(10**base * rng.lognormal(0.0, 0.4, 120), 1e-3)
            )
            hists.append(build_histogram(samples.tolist()))
        histograms = _as_host_dict(hists)
        ref = cluster_hosts(histograms, 70.0, backend="loop")
        got = cluster_hosts(histograms, 70.0, backend="pruned")
        assert got.kept == ref.kept
        assert got.clusters == ref.clusters

    def test_zero_diameter_clusters_kept_identically(self):
        h_bot = hist([0.5], [1.0])
        h_bot2 = hist([40.0], [1.0])
        loose = random_population(seed=8, n_hosts=30)
        histograms = _as_host_dict([h_bot] * 10 + [h_bot2] * 10 + loose)
        ref = cluster_hosts(histograms, 70.0, backend="loop")
        got = cluster_hosts(histograms, 70.0, backend="pruned")
        assert got.kept == ref.kept
        assert got.threshold == pytest.approx(ref.threshold, abs=1e-12)

    @settings(max_examples=6, deadline=None)
    @given(
        hists=st.lists(histogram_strategy, min_size=6, max_size=16),
        percentile=st.sampled_from([40.0, 70.0, 95.0]),
    )
    def test_hypothesis_populations(self, hists, percentile):
        histograms = _as_host_dict(hists)
        ref = cluster_hosts(histograms, percentile, backend="loop")
        got = cluster_hosts(histograms, percentile, backend="pruned")
        assert got.kept == ref.kept
        assert got.clusters == ref.clusters
        np.testing.assert_allclose(
            got.diameters, ref.diameters, atol=1e-12, rtol=0.0
        )


# ----------------------------------------------------------------------
# Backend resolution: auto is vectorized, then pruned from 4,000 hosts
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_boundary_constants_are_ordered(self):
        # auto hands pruned only populations it can actually prune:
        # below _MIN_PRUNE_HOSTS pruned_partition runs the exact path.
        assert _MIN_PRUNE_HOSTS < PRUNED_MIN_HOSTS

    @pytest.mark.parametrize(
        "n_hosts, expected",
        [
            (0, "vectorized"),
            (3, "vectorized"),
            (PRUNED_MIN_HOSTS - 1, "vectorized"),
            (PRUNED_MIN_HOSTS, "pruned"),
            (10**6, "pruned"),
        ],
    )
    def test_auto_escalation_boundaries(self, n_hosts, expected):
        assert resolve_backend("auto", n_hosts) == expected

    @pytest.mark.parametrize("backend", ["loop", "vectorized", "pruned"])
    def test_explicit_backends_pass_through(self, backend):
        assert resolve_backend(backend, 2) == backend
        assert resolve_backend(backend, 10**6) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("gpu", 10)
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("parallel", 10)

    def test_never_returns_auto(self):
        for n in (0, 3, 4, 1500, 4000, 10**5):
            resolved = resolve_backend("auto", n)
            assert resolved in PAIRWISE_BACKENDS
            assert resolved != "auto"


class TestEscalationObservability:
    def test_resolved_backend_reported_on_result(self):
        histograms = _as_host_dict(random_population(seed=2, n_hosts=10))
        result = cluster_hosts(histograms, 70.0, backend="auto")
        assert result.backend == "vectorized"
        explicit = cluster_hosts(histograms, 70.0, backend="pruned")
        assert explicit.backend == "pruned"

    def test_loop_only_when_asked(self):
        histograms = _as_host_dict(random_population(seed=2, n_hosts=3))
        auto = cluster_hosts(histograms, 70.0, backend="auto")
        assert auto.backend == "vectorized"
        oracle = cluster_hosts(histograms, 70.0, backend="loop")
        assert oracle.backend == "loop"
        assert oracle.clusters == auto.clusters
        assert oracle.kept == auto.kept

    def test_resolved_backend_lands_on_span(self):
        from repro import obs

        events = []

        class Capture:
            def on_span(self, record):
                events.append(record)

        sink = Capture()
        obs.enable()
        obs.add_sink(sink)
        try:
            histograms = _as_host_dict(random_population(seed=2, n_hosts=8))
            cluster_hosts(histograms, 70.0, backend="auto")
        finally:
            obs.remove_sink(sink)
            obs.disable()
        spans = [
            e for e in events
            if e.get("type") == "span" and e.get("name") == "cluster_hosts"
        ]
        assert spans, f"no cluster_hosts span in {events}"
        attrs = spans[-1]["attrs"]
        assert attrs["backend"] == "auto"
        assert attrs["resolved_backend"] == "vectorized"
