"""Tests for agglomerative clustering and the top-link cut."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.clustering import (
    Dendrogram,
    average_linkage,
    cluster_diameter,
    cut_top_links,
)


def distance_matrix(points):
    pts = np.asarray(points, dtype=float)
    return np.abs(pts[:, None] - pts[None, :])


class TestAgglomerate:
    def test_empty(self):
        dend = average_linkage(np.zeros((0, 0)))
        assert dend.n_items == 0
        assert dend.merges == ()

    def test_single_item(self):
        dend = average_linkage(np.zeros((1, 1)))
        assert dend.n_items == 1
        assert dend.merges == ()

    def test_two_items(self):
        dend = average_linkage(distance_matrix([0.0, 3.0]))
        assert len(dend.merges) == 1
        assert dend.merges[0].weight == pytest.approx(3.0)

    def test_closest_pair_merges_first(self):
        dend = average_linkage(distance_matrix([0.0, 1.0, 10.0]))
        first = dend.merges[0]
        assert {first.left, first.right} == {0, 1}
        assert first.weight == pytest.approx(1.0)

    def test_average_linkage_weight(self):
        # Clusters {0,1} at positions 0,1 and point 2 at 10:
        # average distance = (10 + 9) / 2 = 9.5.
        dend = average_linkage(distance_matrix([0.0, 1.0, 10.0]))
        assert dend.merges[1].weight == pytest.approx(9.5)

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            average_linkage(bad)

    def test_rejects_nonzero_diagonal(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            average_linkage(bad)

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=15
        )
    )
    def test_merge_count_and_sizes(self, points):
        dend = average_linkage(distance_matrix(points))
        assert len(dend.merges) == len(points) - 1
        assert dend.merges[-1].size == len(points)

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=15
        )
    )
    def test_average_linkage_weights_monotone(self, points):
        # UPGMA on a metric is monotone: merge weights never decrease.
        dend = average_linkage(distance_matrix(points))
        weights = [m.weight for m in dend.merges]
        assert all(b >= a - 1e-9 for a, b in zip(weights, weights[1:]))


class TestCutTopLinks:
    def test_zero_fraction_keeps_everything_together(self):
        dend = average_linkage(distance_matrix([0.0, 1.0, 10.0]))
        clusters = cut_top_links(dend, 0.0)
        assert sorted(map(sorted, clusters)) == [[0, 1, 2]]

    def test_full_fraction_gives_singletons(self):
        dend = average_linkage(distance_matrix([0.0, 1.0, 10.0]))
        clusters = cut_top_links(dend, 1.0)
        assert sorted(map(sorted, clusters)) == [[0], [1], [2]]

    def test_cut_separates_farthest_group(self):
        dend = average_linkage(distance_matrix([0.0, 1.0, 50.0, 51.0]))
        clusters = cut_top_links(dend, 0.3)  # ceil(0.3 * 3) = 1 link cut
        assert sorted(map(sorted, clusters)) == [[0, 1], [2, 3]]

    def test_invalid_fraction(self):
        dend = average_linkage(distance_matrix([0.0, 1.0]))
        with pytest.raises(ValueError):
            cut_top_links(dend, 1.5)

    def test_empty_and_single(self):
        assert cut_top_links(Dendrogram(n_items=0, merges=()), 0.05) == []
        single = Dendrogram(n_items=1, merges=())
        assert cut_top_links(single, 0.05) == [[0]]

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=20
        ),
        fraction=st.floats(0.0, 1.0),
    )
    def test_clusters_partition_items(self, points, fraction):
        dend = average_linkage(distance_matrix(points))
        clusters = cut_top_links(dend, fraction)
        flat = sorted(i for cluster in clusters for i in cluster)
        assert flat == list(range(len(points)))


class TestClusterDiameter:
    def test_singleton(self):
        assert cluster_diameter(distance_matrix([1.0, 2.0]), [0]) == 0.0

    def test_pair(self):
        assert cluster_diameter(distance_matrix([1.0, 5.0]), [0, 1]) == 4.0

    def test_max_pairwise(self):
        d = distance_matrix([0.0, 2.0, 9.0])
        assert cluster_diameter(d, [0, 1, 2]) == 9.0


def test_dendrogram_validates_merge_count():
    with pytest.raises(ValueError):
        Dendrogram(n_items=3, merges=())
