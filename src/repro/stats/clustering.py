"""Agglomerative hierarchical clustering with a top-percent link cut.

§IV-C clusters hosts by the EMD between their interstitial-time
histograms: an agglomerative algorithm repeatedly merges the two closest
groups, with each dendrogram link weighted by the *average* distance
between the pair of nodes it connects (average linkage / UPGMA).  The
final clusters are obtained by cutting the top 5% of links with the
largest weights.

The implementation is from scratch (Lance–Williams average-linkage
updates over a dense distance matrix) so that the link-cutting semantics
match the paper exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "Merge",
    "Dendrogram",
    "average_linkage",
    "cut_top_links",
    "cluster_diameter",
    "cluster_diameters",
]

#: Fraction of heaviest dendrogram links removed to form clusters (§IV-C).
DEFAULT_CUT_FRACTION = 0.05
__all__.append("DEFAULT_CUT_FRACTION")


@dataclass(frozen=True)
class Merge:
    """One dendrogram link: clusters ``left`` and ``right`` joined at
    average inter-cluster distance ``weight``.

    ``left``/``right`` index either original items (``< n``) or earlier
    merges (``n + merge_index``), in the convention scipy also uses.
    """

    left: int
    right: int
    weight: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge history over ``n_items`` original items."""

    n_items: int
    merges: Tuple[Merge, ...]

    def __post_init__(self) -> None:
        if self.n_items > 0 and len(self.merges) != max(0, self.n_items - 1):
            raise ValueError(
                f"{self.n_items} items require {self.n_items - 1} merges, "
                f"got {len(self.merges)}"
            )


def average_linkage(distance: np.ndarray) -> Dendrogram:
    """Average-linkage (UPGMA) dendrogram of a distance matrix.

    The inter-cluster distance, used both to pick the next merge and as
    the link weight, is the paper's "average distance between the pair
    of nodes it connects".

    ``distance`` must be a symmetric (n, n) matrix with a zero diagonal.
    Runs in O(n^3) time over a dense copy — ample for the per-day host
    populations the detector clusters (hundreds of hosts).
    """
    dist = np.array(distance, dtype=float, copy=True)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if n and (np.abs(np.diagonal(dist)) > 1e-12).any():
        raise ValueError("distance matrix must have a zero diagonal")
    if n and not np.allclose(dist, dist.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")

    if n == 0:
        return Dendrogram(n_items=0, merges=())

    # Dead positions are masked with +inf; updates are vectorised row
    # operations, so each merge costs O(n) plus one O(n^2) argmin.
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    labels = np.arange(n)
    sizes = np.ones(n, dtype=np.int64)
    merges: List[Merge] = []
    next_label = n

    for _ in range(n - 1):
        flat = np.argmin(dist)
        pi, pj = np.unravel_index(flat, dist.shape)
        weight = float(dist[pi, pj])
        size_i = int(sizes[pi])
        size_j = int(sizes[pj])
        merged_size = size_i + size_j
        merges.append(
            Merge(
                left=int(labels[pi]),
                right=int(labels[pj]),
                weight=weight,
                size=merged_size,
            )
        )
        # Lance–Williams update: the new cluster's distance to any other
        # is the size-weighted mean of the two parts' distances.
        row = (size_i * dist[pi] + size_j * dist[pj]) / merged_size
        row[~alive] = np.inf
        row[pi] = np.inf
        dist[pi, :] = row
        dist[:, pi] = row
        dist[pj, :] = np.inf
        dist[:, pj] = np.inf
        alive[pj] = False
        labels[pi] = next_label
        sizes[pi] = merged_size
        next_label += 1

    return Dendrogram(n_items=n, merges=tuple(merges))


def cut_top_links(
    dendrogram: Dendrogram, fraction: float = DEFAULT_CUT_FRACTION
) -> List[List[int]]:
    """Clusters after removing the heaviest ``fraction`` of links.

    The number of links removed is ``ceil(fraction * n_links)`` (at least
    one link whenever ``fraction > 0`` and any links exist, so the cut is
    never a no-op).  Returns clusters as lists of original item indices.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("cut fraction must lie in [0, 1]")
    n = dendrogram.n_items
    if n == 0:
        return []
    links = list(dendrogram.merges)
    if not links:
        return [[0]]
    n_cut = int(np.ceil(fraction * len(links))) if fraction > 0 else 0
    if n_cut:
        threshold_order = sorted(
            range(len(links)), key=lambda i: links[i].weight, reverse=True
        )
        removed = set(threshold_order[:n_cut])
    else:
        removed = set()

    # Union of surviving links over n items + merge pseudo-nodes.
    parent = list(range(n + len(links)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for idx, merge in enumerate(links):
        node = n + idx
        if idx in removed:
            continue
        union(merge.left, node)
        union(merge.right, node)

    groups: dict = {}
    for item in range(n):
        groups.setdefault(find(item), []).append(item)
    return sorted(groups.values(), key=lambda g: (len(g), g), reverse=True)


def cluster_diameter(distance: np.ndarray, members: Sequence[int]) -> float:
    """Largest pairwise distance within a cluster (0 for singletons)."""
    if len(members) < 2:
        return 0.0
    idx = np.asarray(list(members), dtype=int)
    sub = distance[np.ix_(idx, idx)]
    return float(sub.max())


def cluster_diameters(
    distance: np.ndarray, member_lists: Sequence[Sequence[int]]
) -> Tuple[float, ...]:
    """:func:`cluster_diameter` of each member list, in order."""
    return tuple(
        cluster_diameter(distance, members) for members in member_lists
    )
