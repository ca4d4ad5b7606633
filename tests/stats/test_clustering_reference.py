"""Property test: vectorized agglomeration vs. a naive reference.

The production :func:`repro.stats.clustering.average_linkage` uses
masked numpy updates; this reference re-implements the textbook O(n^3)
average-linkage loop directly and the two are compared on random
metric inputs.
"""

from typing import List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.stats.clustering import Dendrogram, Merge, average_linkage


def reference_agglomerate(distance: np.ndarray) -> Dendrogram:
    """Straightforward list-based agglomerative clustering."""
    n = distance.shape[0]
    if n == 0:
        return Dendrogram(n_items=0, merges=())
    clusters: List[List[int]] = [[i] for i in range(n)]
    labels = list(range(n))
    merges: List[Merge] = []
    next_label = n

    def cluster_distance(a: List[int], b: List[int]) -> float:
        values = [distance[i, j] for i in a for j in b]
        return sum(values) / len(values)

    while len(clusters) > 1:
        best = (float("inf"), -1, -1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = cluster_distance(clusters[i], clusters[j])
                if d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        merges.append(
            Merge(
                left=labels[i],
                right=labels[j],
                weight=float(d),
                size=len(clusters[i]) + len(clusters[j]),
            )
        )
        clusters[i] = clusters[i] + clusters[j]
        labels[i] = next_label
        next_label += 1
        del clusters[j], labels[j]
    return Dendrogram(n_items=n, merges=tuple(merges))


def distance_matrix(points):
    pts = np.asarray(points, dtype=float)
    return np.abs(pts[:, None] - pts[None, :])


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(
        st.floats(0, 1000, allow_nan=False),
        min_size=2,
        max_size=14,
        unique=True,  # distinct points avoid tie-order ambiguity
    ),
)
def test_matches_reference_implementation(points):
    d = distance_matrix(points)
    fast = average_linkage(d)
    slow = reference_agglomerate(d)
    assert len(fast.merges) == len(slow.merges)
    for a, b in zip(fast.merges, slow.merges):
        # Merge identity can differ on exact weight ties; weights and
        # sizes must match step for step.
        assert a.weight == np.float64(b.weight) or abs(a.weight - b.weight) < 1e-9
        assert a.size == b.size
