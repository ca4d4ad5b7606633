"""Candidate-pruned pairwise EMD: embeddings, bounds, certified grouping.

θ_hm's asymptotic ceiling is the all-pairs EMD matrix: n hosts cost
n(n−1)/2 merged-CDF kernel evaluations.  This module breaks that wall
for the two call shapes the detector actually has, **without ever
changing a result** — every fast path either derives the exact value
by a cheaper closed form or proves, via true lower bounds, that the
skipped pairs cannot affect the downstream decision.

**The embedding.**  1-D EMD with ground distance ``|x − y|`` is the L1
distance between CDFs: ``EMD(a, b) = ∫ |F_a − F_b| dx``.  Evaluating
the *integral of the CDF* over the cells of a fixed coarse grid turns
each host into a short vector ``e_i[k] = ∫_cell_k F_i dx``, and by the
triangle inequality applied per cell,

    ‖e_i − e_j‖₁ = Σ_k |∫_cell_k (F_i − F_j)| ≤ Σ_k ∫_cell_k |F_i − F_j|
                 = EMD(i, j),

a *true lower bound*, computable for whole blocks of pairs with two
numpy ops.  A handful of pivot hosts with exact kernel distances add
the metric-space bound ``|d(i,p) − d(j,p)| ≤ d(i,j)``; the pairwise
lower bound is the max of the two.

**The matrix engine** (:func:`pruned_matrix`, ``pairwise_emd``'s
``"pruned"`` backend) exploits stochastic dominance: when two
signatures' supports do not overlap, ``F_a − F_b`` never changes sign,
so the integral collapses to ``|mean_a − mean_b|`` — exact, O(1) after
one pass over the bins.  Only overlapping-support pairs go through the
cache-blocked kernel; the matrix stays exact entry-for-entry.

**The clustering engine** (:func:`pruned_partition`, used by
``cluster_hosts(backend="pruned")``) prunes much harder.  Average
linkage has a decomposition property: if the host set splits into
groups such that *every* inter-group distance exceeds *every*
intra-group distance, UPGMA provably completes all within-group merges
before any cross-group merge, each group's internal dendrogram equals
UPGMA run on the group alone, and the cross links are the heaviest
links of the tree.  When the paper's top-``fraction`` link cut removes
at least those ``m − 1`` cross links, the final partition, cluster
diameters, τ_hm and suspect set depend only on the *intra-group* exact
distances — the inter-group pairs are provably irrelevant and are
never evaluated.  The module finds such a split by union-find over the
lower-bound graph (coarse pre-clustering on the sketches), computes
intra-group distances with the exact kernel, and **certifies** the
separation: ``min inter-group lower bound > max intra-group exact
distance + margin``.  Certification failure — a unimodal population, a
boundary tie within float dust, too few cut links — falls back to the
exact full-matrix path, so bounds can *never* flip a keep/drop
decision; the fallback is recorded (metrics + report), never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from .clustering import Merge, average_linkage, cut_top_links
from .histogram import Histogram

__all__ = [
    "EMBED_CELLS",
    "N_PIVOTS",
    "EmdIndex",
    "PruneReport",
    "build_index",
    "pruned_matrix",
    "pruned_partition",
]

#: Cells in the coarse CDF-integral embedding grid.  More cells →
#: tighter lower bounds but a costlier O(n² · cells) bound pass.
EMBED_CELLS = 32

#: Pivot hosts given exact kernel distances for triangle-inequality
#: bounds (O(n · pivots) kernel pairs to build).
N_PIVOTS = 4

#: Pairs per block in the chunked bound passes — bounds one block's
#: working set to a few tens of MB regardless of population size.
_BOUND_BLOCK_PAIRS = 1_048_576

#: Safety margin for every certification comparison: a decision is
#: taken on bounds only when the gap exceeds ``max(_MARGIN,
#: _MARGIN · scale)`` — anything closer (float dust at the decision
#: boundary) falls back to the exact path instead.
_MARGIN = 1e-9

#: Populations below this size take the exact path outright: the index
#: build costs more than the pairs it could prune.
_MIN_PRUNE_HOSTS = 32

#: Threshold-search rounds before giving up on certification.  Each
#: round costs one chunked bound pass over all pairs — cheap next to
#: the kernel work a certified decomposition saves, but not free, so
#: the search is bounded.
_MAX_ROUNDS = 8

# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
_PRUNE_PAIRS = obs_metrics.counter(
    "repro_emd_pruning_pairs_total",
    "Host pairs by pruning outcome: exact kernel, closed-form derived, "
    "or pruned entirely (proven irrelevant to the clustering)",
    labels=("outcome",),
)
_PRUNE_GROUPS = obs_metrics.gauge(
    "repro_emd_pruning_groups",
    "Certified candidate groups (last pruned clustering run)",
)
_PRUNE_LARGEST_GROUP = obs_metrics.gauge(
    "repro_emd_pruning_largest_group",
    "Largest certified candidate group (last pruned clustering run)",
)
_PRUNE_ROUNDS = obs_metrics.gauge(
    "repro_emd_pruning_rounds",
    "Coarsening rounds the last pruned clustering run needed",
)
_PRUNE_FALLBACKS = obs_metrics.counter(
    "repro_emd_pruning_fallbacks_total",
    "Pruned runs that fell back to the exact path, by reason",
    labels=("reason",),
)
_PRUNE_GROUP_SIZE = obs_metrics.histogram(
    "repro_emd_pruning_group_size",
    "Candidate-set (certified group) sizes",
    buckets=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384),
)
_PRUNE_TIGHTNESS = obs_metrics.histogram(
    "repro_emd_pruning_bound_tightness",
    "Lower bound / exact EMD ratio on sampled kernel-evaluated pairs",
    buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0),
)


# ----------------------------------------------------------------------
# Signature geometry
# ----------------------------------------------------------------------
def _support_arrays(
    histograms: Sequence[Histogram],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-host ``(start, end, mean)`` of every signature, vectorised."""
    n = len(histograms)
    starts = np.empty(n, dtype=float)
    ends = np.empty(n, dtype=float)
    means = np.empty(n, dtype=float)
    for i, hist in enumerate(histograms):
        pos, w = hist.as_arrays()
        starts[i] = pos[0]
        ends[i] = pos[-1]
        means[i] = float(pos @ w)
    return starts, ends, means


def _embedding_grid(
    histograms: Sequence[Histogram], cells: int
) -> np.ndarray:
    """A coarse global grid: quantiles of the pooled bin positions.

    Quantiles (rather than an equal-width grid) put resolution where
    the population actually has mass, which tightens the bounds on
    clustered timing modes.  Degenerate populations (every bin at one
    position) yield a grid too short for any cell; callers treat the
    resulting zero-length embedding as "no information" (bounds 0).
    """
    pooled = np.concatenate([h.as_arrays()[0] for h in histograms])
    quantiles = np.linspace(0.0, 1.0, cells + 1)
    grid = np.unique(np.quantile(pooled, quantiles))
    return grid


def _cdf_cell_integrals(
    histograms: Sequence[Histogram], grid: np.ndarray
) -> np.ndarray:
    """Exact ``∫_cell F_i dx`` for every host and grid cell.

    For a step CDF with bins ``(p_t, w_t)``, the antiderivative at x is
    ``G(x) = Σ_t w_t · max(0, x − p_t)``; a cell's integral is
    ``G(cell_end) − G(cell_start)``.  Computed per host over all grid
    points in one broadcast (bins × grid-points).
    """
    n = len(histograms)
    if grid.size < 2:
        return np.zeros((n, 0), dtype=float)
    emb = np.empty((n, grid.size - 1), dtype=float)
    for i, hist in enumerate(histograms):
        pos, w = hist.as_arrays()
        anti = np.maximum(0.0, grid[None, :] - pos[:, None]) * w[:, None]
        g = anti.sum(axis=0)
        emb[i] = np.diff(g)
    return emb


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EmdIndex:
    """Per-host sketches supporting true EMD lower bounds.

    ``embeddings[i]`` holds the cell integrals of host i's CDF over
    ``grid``; ``pivot_distances[i, p]`` the exact kernel EMD between
    host i and the p-th pivot.  Both yield lower bounds on any pair's
    exact EMD (see the module docstring); :meth:`lower_bounds` takes
    the max of the two, blockwise.
    """

    grid: np.ndarray
    embeddings: np.ndarray
    pivots: np.ndarray
    pivot_distances: np.ndarray

    @property
    def n_hosts(self) -> int:
        return self.embeddings.shape[0]

    def lower_bounds(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """True lower bounds on ``EMD(rows[k], cols[k])`` for each k."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.embeddings.shape[1]:
            lb = np.abs(
                self.embeddings[rows] - self.embeddings[cols]
            ).sum(axis=1)
        else:
            lb = np.zeros(len(rows), dtype=float)
        if self.pivot_distances.shape[1]:
            piv = np.abs(
                self.pivot_distances[rows] - self.pivot_distances[cols]
            ).max(axis=1)
            np.maximum(lb, piv, out=lb)
        return lb


def _choose_pivots(embeddings: np.ndarray, n_pivots: int) -> np.ndarray:
    """Greedy farthest-point pivot selection in embedding L1 space."""
    n = embeddings.shape[0]
    if n == 0 or embeddings.shape[1] == 0 or n_pivots <= 0:
        return np.zeros(0, dtype=np.int64)
    pivots = [0]
    dist_to_set = np.abs(embeddings - embeddings[0]).sum(axis=1)
    while len(pivots) < min(n_pivots, n):
        nxt = int(np.argmax(dist_to_set))
        if dist_to_set[nxt] <= 0.0:
            break
        pivots.append(nxt)
        np.minimum(
            dist_to_set,
            np.abs(embeddings - embeddings[nxt]).sum(axis=1),
            out=dist_to_set,
        )
    return np.asarray(pivots, dtype=np.int64)


def build_index(
    histograms: Sequence[Histogram],
    cells: int = EMBED_CELLS,
    n_pivots: int = N_PIVOTS,
) -> EmdIndex:
    """Build the sketch index: embedding grid + pivot exact distances.

    Cost: O(n · bins · cells) for the embeddings plus O(n · pivots)
    exact kernel pairs — linear in hosts, amortised by the quadratic
    work it prunes.
    """
    from .emd import condensed_for_pairs

    grid = _embedding_grid(histograms, cells)
    embeddings = _cdf_cell_integrals(histograms, grid)
    pivots = _choose_pivots(embeddings, n_pivots)
    n = len(histograms)
    if len(pivots):
        rows = np.repeat(pivots, n)
        cols = np.tile(np.arange(n, dtype=np.int64), len(pivots))
        flat = condensed_for_pairs(histograms, rows, cols)
        pivot_distances = flat.reshape(len(pivots), n).T.copy()
    else:
        pivot_distances = np.zeros((n, 0), dtype=float)
    return EmdIndex(
        grid=grid,
        embeddings=embeddings,
        pivots=pivots,
        pivot_distances=pivot_distances,
    )


# ----------------------------------------------------------------------
# Exact pruned matrix (disjoint-support closed form)
# ----------------------------------------------------------------------
def pruned_matrix(histograms: Sequence[Histogram]) -> np.ndarray:
    """The exact pairwise-EMD matrix with disjoint-support pruning.

    Pairs whose supports do not overlap are filled from the dominance
    closed form ``|mean_a − mean_b|``; only overlapping pairs run the
    merged-CDF kernel.  The result is exact for every entry (pinned to
    the loop backend at atol=1e-12 by the equivalence suite).
    """
    from .emd import condensed_for_pairs

    n = len(histograms)
    matrix = np.zeros((n, n), dtype=float)
    if n < 2:
        return matrix
    starts, ends, means = _support_arrays(histograms)

    # Every entry provisionally takes the closed form; overlapping
    # pairs are then overwritten with kernel values, so only certified
    # disjoint pairs keep the derived fill.
    np.abs(means[:, None] - means[None, :], out=matrix)
    np.fill_diagonal(matrix, 0.0)

    # In start-sorted order, pair (i < j) overlaps iff start_j < end_i.
    order = np.argsort(starts, kind="stable")
    s_sorted = starts[order]
    e_sorted = ends[order]
    hi = np.searchsorted(s_sorted, e_sorted, side="left")
    spans = [
        np.arange(i + 1, hi[i], dtype=np.int64)
        for i in range(n)
        if hi[i] > i + 1
    ]
    if spans:
        cols_local = np.concatenate(spans)
        counts = np.maximum(hi - np.arange(1, n + 1), 0)
        rows_local = np.repeat(np.arange(n, dtype=np.int64), counts)
        r = order[rows_local]
        c = order[cols_local]
        values = condensed_for_pairs(histograms, r, c)
        matrix[r, c] = values
        matrix[c, r] = values
        n_exact = len(values)
    else:
        n_exact = 0
    if obs_metrics.is_enabled():
        _PRUNE_PAIRS.inc(n_exact, outcome="exact")
        _PRUNE_PAIRS.inc(n * (n - 1) // 2 - n_exact, outcome="derived")
    return matrix


# ----------------------------------------------------------------------
# Certified pruned clustering
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PruneReport:
    """How one pruned clustering run went — the observable facts.

    ``certified`` means the group decomposition was proven and
    inter-group pairs were skipped; otherwise ``fallback_reason`` names
    the declared condition that sent the run down the exact path.
    Either way the clustering result is exact.
    """

    n_hosts: int
    pairs_total: int
    pairs_exact: int
    pairs_pruned: int
    groups: int
    largest_group: int
    rounds: int
    certified: bool
    fallback_reason: str = ""
    threshold: float = 0.0
    max_intra: float = 0.0
    min_inter_lb: float = 0.0
    group_sizes: Tuple[int, ...] = field(default=(), repr=False)

    @property
    def prune_fraction(self) -> float:
        """Fraction of all pairs never evaluated by the kernel."""
        if self.pairs_total == 0:
            return 0.0
        return self.pairs_pruned / self.pairs_total


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _pair_blocks(
    n: int, block_pairs: int = _BOUND_BLOCK_PAIRS
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """All (i < j) pairs in j-major order, yielded in bounded blocks.

    Never materialises the full pair list — at campus scale that alone
    would dwarf the embeddings.
    """
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    pending = 0
    for j in range(1, n):
        rows.append(np.arange(j, dtype=np.int64))
        cols.append(np.full(j, j, dtype=np.int64))
        pending += j
        if pending >= block_pairs:
            yield np.concatenate(rows), np.concatenate(cols)
            rows, cols, pending = [], [], 0
    if pending:
        yield np.concatenate(rows), np.concatenate(cols)


def _block_bounds(
    index: EmdIndex, rows: np.ndarray, cols: np.ndarray, threshold: float
) -> np.ndarray:
    """Lower bounds for one pair block, pivot-screened.

    The pivot bound reads 2·P gathered columns per pair versus the
    embedding's 2·cells, and on near-unimodal timing signatures it is
    close to exact — so it goes first, and the costlier embedding
    refinement runs only for pairs the pivot bound leaves at or below
    ``threshold`` (the only pairs whose union decision it can change).
    Pairs left with the pivot-only bound still carry a true lower
    bound, so the certification minimum stays conservative.
    """
    if index.pivot_distances.shape[1]:
        lb = np.abs(
            index.pivot_distances[rows] - index.pivot_distances[cols]
        ).max(axis=1)
    else:
        lb = np.zeros(len(rows), dtype=float)
    if index.embeddings.shape[1]:
        cand = lb <= threshold
        if cand.any():
            r = rows[cand]
            c = cols[cand]
            emb = np.abs(
                index.embeddings[r] - index.embeddings[c]
            ).sum(axis=1)
            lb[cand] = np.maximum(lb[cand], emb)
    return lb


def _lb_scan(
    index: EmdIndex, threshold: float
) -> Tuple[np.ndarray, float]:
    """One chunked pass over all pairs' lower bounds.

    Unions every pair with ``LB ≤ threshold`` and returns the group
    label of each host plus the smallest LB seen *above* the threshold
    (+inf when none) — a conservative stand-in for the true minimum
    inter-group lower bound, since same-group pairs joined transitively
    can also sit above the threshold.
    """
    n = index.n_hosts
    uf = _UnionFind(n)
    labels = np.arange(n, dtype=np.int64)
    min_excess = math.inf
    for rows, cols in _pair_blocks(n):
        lb = _block_bounds(index, rows, cols, threshold)
        mask = lb <= threshold
        if not mask.all():
            min_excess = min(min_excess, float(lb[~mask].min()))
        if mask.any():
            # Collapse edges through the current labels first: a dense
            # block then unions a handful of component pairs instead of
            # hundreds of thousands of host pairs.
            a = labels[rows[mask]]
            b = labels[cols[mask]]
            edges = np.unique(a * np.int64(n) + b)
            for key in edges.tolist():
                uf.union(int(key) // n, int(key) % n)
            labels = np.fromiter(
                (uf.find(int(x)) for x in labels), dtype=np.int64, count=n
            )
    labels = np.fromiter(
        (uf.find(int(x)) for x in labels), dtype=np.int64, count=n
    )
    return labels, min_excess


def _groups_from_labels(labels: np.ndarray) -> List[np.ndarray]:
    order: Dict[int, List[int]] = {}
    for idx, root in enumerate(labels.tolist()):
        order.setdefault(root, []).append(idx)
    return [np.asarray(members, dtype=np.int64) for members in order.values()]


def _intra_pairs(
    groups: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int]]]:
    """Global (row, col) arrays for every within-group pair.

    The third element gives each group's ``(offset, count)`` slice into
    the pair arrays so per-group values can be recovered without a
    lookup table.
    """
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    slices: List[Tuple[int, int]] = []
    offset = 0
    for members in groups:
        g = len(members)
        count = g * (g - 1) // 2
        slices.append((offset, count))
        offset += count
        if g < 2:
            continue
        local_r = np.concatenate([np.arange(j) for j in range(1, g)])
        local_c = np.repeat(np.arange(1, g), np.arange(1, g))
        rows.append(members[local_r])
        cols.append(members[local_c])
    if not rows:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, slices
    return np.concatenate(rows), np.concatenate(cols), slices


def _clusters_from_merges(
    n_items: int,
    merges: Sequence[Merge],
    removed: frozenset,
) -> List[List[int]]:
    """Connected components after dropping an arbitrary link subset.

    The same union machinery as
    :func:`repro.stats.clustering.cut_top_links`, but with the removal
    set chosen by the caller (the pruned path removes each group's
    share of the *global* top-k links, not a per-group fraction).
    """
    parent = list(range(n_items + len(merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, merge in enumerate(merges):
        if idx in removed:
            continue
        node = n_items + idx
        for end in (merge.left, merge.right):
            ra, rb = find(end), find(node)
            if ra != rb:
                parent[ra] = rb

    groups: Dict[int, List[int]] = {}
    for item in range(n_items):
        groups.setdefault(find(item), []).append(item)
    return list(groups.values())


def _exact_partition(
    histograms: Sequence[Histogram],
    cut_fraction: float,
) -> Tuple[List[List[int]], Tuple[float, ...]]:
    """The reference path: full exact matrix, UPGMA, top-fraction cut."""
    from .clustering import cluster_diameters
    from .emd import pairwise_emd

    distance = pairwise_emd(histograms, backend="vectorized")
    member_lists = cut_top_links(average_linkage(distance), cut_fraction)
    diameters = cluster_diameters(distance, member_lists)
    return member_lists, diameters


def _fallback(
    histograms: Sequence[Histogram],
    cut_fraction: float,
    reason: str,
    rounds: int,
    threshold: float = 0.0,
    max_intra: float = 0.0,
    min_inter_lb: float = 0.0,
) -> Tuple[List[List[int]], Tuple[float, ...], PruneReport]:
    n = len(histograms)
    pairs_total = n * (n - 1) // 2
    _PRUNE_FALLBACKS.inc(reason=reason)
    member_lists, diameters = _exact_partition(histograms, cut_fraction)
    report = PruneReport(
        n_hosts=n,
        pairs_total=pairs_total,
        pairs_exact=pairs_total,
        pairs_pruned=0,
        groups=1,
        largest_group=n,
        rounds=rounds,
        certified=False,
        fallback_reason=reason,
        threshold=threshold,
        max_intra=max_intra,
        min_inter_lb=min_inter_lb,
    )
    return member_lists, diameters, report


def _sampled_bounds(index: EmdIndex, seed: int = 0) -> np.ndarray:
    """Sorted lower bounds of a random pair sample, for threshold picks.

    Tight timing modes put their intra-mode lower bounds near zero, so
    the sample's widest low-end gap lands between "same mode" and
    "different mode" for well-separated populations; the coarsening
    loop walks the remaining gaps when the first guess over-fragments
    or collapses.  Correctness never depends on the pick — only
    certification does.
    """
    n = index.n_hosts
    rng = np.random.default_rng(seed)
    n_samples = min(4 * n, 20_000)
    rows = rng.integers(0, n, size=n_samples)
    cols = rng.integers(0, n, size=n_samples)
    keep = rows != cols
    if not keep.any():
        return np.zeros(1, dtype=float)
    return np.sort(index.lower_bounds(rows[keep], cols[keep]))


def _gap_threshold(sample, v_lo: float, v_hi: float):
    """Midpoint of the widest *relative* gap of sampled bounds in
    ``(v_lo, v_hi)``, or ``None`` when fewer than two distinct values
    remain in the window.

    Relative (not absolute) gaps because bound distributions are
    multi-scale: the intra/inter separation of a modal population is a
    huge *ratio* near the bottom of the sample, while absolute gaps
    between sparse high plateaus would dominate an absolute criterion.
    """
    vals = np.unique(sample[(sample > v_lo) & (sample < v_hi)])
    if len(vals) < 2:
        return None
    eps = max(float(vals[-1]) * 1e-9, 1e-30)
    ratios = (vals[1:] + eps) / (vals[:-1] + eps)
    at = int(np.argmax(ratios))
    return float((vals[at] + vals[at + 1]) / 2.0)


def pruned_partition(
    histograms: Sequence[Histogram],
    cut_fraction: float,
    cells: int = EMBED_CELLS,
    n_pivots: int = N_PIVOTS,
) -> Tuple[List[List[int]], Tuple[float, ...], PruneReport]:
    """Average-linkage partition + diameters with certified pruning.

    Produces exactly what ``cut_top_links(average_linkage(D),
    cut_fraction)`` and ``cluster_diameters`` produce on the full exact
    matrix ``D`` — the same member lists in the same order and the same
    diameters — evaluating only intra-group pairs when the group
    decomposition certifies, and falling back to the exact path when it
    does not.  The returned :class:`PruneReport` says which happened.
    """
    n = len(histograms)
    pairs_total = n * (n - 1) // 2
    links_total = max(0, n - 1)
    if not 0.0 <= cut_fraction <= 1.0:
        raise ValueError("cut fraction must lie in [0, 1]")
    k_cut = (
        int(np.ceil(cut_fraction * links_total)) if cut_fraction > 0 else 0
    )
    if n < _MIN_PRUNE_HOSTS:
        return _fallback(histograms, cut_fraction, "small-population", 0)
    if k_cut == 0:
        # With no links removed the dendrogram is one cluster spanning
        # every host: its diameter needs the full exact matrix anyway.
        return _fallback(histograms, cut_fraction, "no-cut", 0)

    from .emd import condensed_for_pairs

    index = build_index(histograms, cells=cells, n_pivots=n_pivots)
    sample = _sampled_bounds(index)

    # Search for a threshold whose LB-connectivity groups are few
    # enough (m − 1 ≤ k_cut) yet not collapsed to one.  Candidate
    # thresholds are midpoints of the widest relative gaps of the
    # sampled bounds, refined inside a *value-space* bracket: scans
    # that over-fragment raise the floor to their smallest excess bound
    # (every threshold below it reproduces the same grouping), scans
    # that collapse lower the ceiling.  The first guess is biased into
    # the lower sample — on a modal population that gap is the
    # intra/inter separation itself, certifying in one scan.  A cert
    # failure forces the threshold up to max_intra (every pair that
    # could be intra must be grouped); if that collapses the
    # population, it is genuinely inseparable.
    v_lo, v_hi = 0.0, float("inf")
    low_half = sample[: max(2, int(0.6 * len(sample)))]
    first = _gap_threshold(low_half, -1.0, float("inf"))
    if first is None:
        first = _gap_threshold(sample, -1.0, float("inf"))
    threshold = first if first is not None else 0.0
    forced = False

    groups: List[np.ndarray] = []
    rounds = 0
    max_intra = 0.0
    min_excess = 0.0
    intra_rows = intra_cols = np.zeros(0, dtype=np.int64)
    intra_values = np.zeros(0, dtype=float)
    intra_slices: List[Tuple[int, int]] = []
    certified = False
    while first is not None and rounds < _MAX_ROUNDS:
        rounds += 1
        labels, min_excess = _lb_scan(index, threshold)
        groups = _groups_from_labels(labels)
        m = len(groups)
        if m == 1:
            if forced:
                # The cert-driven merge chained everything together:
                # no certified decomposition exists at any level.
                return _fallback(
                    histograms, cut_fraction, "single-group", rounds,
                    threshold=threshold,
                )
            v_hi = min(v_hi, threshold)
            nxt = _gap_threshold(sample, v_lo, v_hi)
            if nxt is None:
                break  # no candidate level left — uncertified
            threshold = nxt
            continue
        if m - 1 > k_cut:
            # More cross links than the cut removes: raise the floor.
            # Any threshold below min_excess yields this same grouping,
            # so the whole range is excluded; the nearest-excess bump
            # guarantees progress even when no sampled gap remains.
            v_lo = max(v_lo, float(min_excess))
            nxt = _gap_threshold(sample, v_lo, v_hi)
            threshold = (
                nxt if nxt is not None
                else v_lo * (1.0 + _MARGIN) + _MARGIN
            )
            continue
        intra_rows, intra_cols, intra_slices = _intra_pairs(groups)
        intra_values = condensed_for_pairs(histograms, intra_rows, intra_cols)
        max_intra = float(intra_values.max()) if len(intra_values) else 0.0
        margin = max(_MARGIN, _MARGIN * max_intra)
        if min_excess > max_intra + margin:
            certified = True
            break
        forced = True
        threshold = max_intra + margin
    if not certified:
        return _fallback(
            histograms, cut_fraction, "uncertified", rounds,
            threshold=threshold, max_intra=max_intra,
            min_inter_lb=float(min_excess),
        )

    m = len(groups)
    pairs_exact = len(intra_values)

    # Per-group UPGMA over dense submatrices of the exact intra values.
    # Certification proves these dendrograms are exactly the full run's
    # within-group merge histories (see module docstring).
    group_dendrograms = []
    group_matrices = []
    for members, (offset, count) in zip(groups, intra_slices):
        g = len(members)
        sub = np.zeros((g, g), dtype=float)
        if g > 1:
            local_r = np.concatenate([np.arange(j) for j in range(1, g)])
            local_c = np.repeat(np.arange(1, g), np.arange(1, g))
            vals = intra_values[offset : offset + count]
            sub[local_r, local_c] = vals
            sub[local_c, local_r] = vals
        group_matrices.append(sub)
        group_dendrograms.append(average_linkage(sub) if g > 1 else None)

    # Pool every within-group link; the full run's top-k cut removes
    # all m−1 cross links (they outweigh every within link, certified)
    # plus the k' heaviest within links pooled across groups.
    k_within = k_cut - (m - 1)
    link_weights: List[float] = []
    link_group: List[int] = []
    link_index: List[int] = []
    for gi, dendro in enumerate(group_dendrograms):
        if dendro is None:
            continue
        for li, merge in enumerate(dendro.merges):
            link_weights.append(merge.weight)
            link_group.append(gi)
            link_index.append(li)
    weights_arr = np.asarray(link_weights, dtype=float)
    if k_within > len(weights_arr):
        k_within = len(weights_arr)
    removed_per_group: Dict[int, set] = {gi: set() for gi in range(m)}
    if k_within > 0:
        desc = np.argsort(-weights_arr, kind="stable")
        if k_within < len(weights_arr):
            boundary_gap = (
                weights_arr[desc[k_within - 1]] - weights_arr[desc[k_within]]
            )
            scale = max(1.0, abs(float(weights_arr[desc[k_within - 1]])))
            if boundary_gap <= _MARGIN * scale:
                # The k'-th and (k'+1)-th heaviest links are within
                # float dust: the full run breaks this tie by global
                # merge index, which pruning cannot reconstruct — take
                # the exact path rather than risk a different cut.
                return _fallback(
                    histograms, cut_fraction, "cut-tie", rounds,
                    threshold=threshold, max_intra=max_intra,
                    min_inter_lb=float(min_excess),
                )
        for flat in desc[:k_within].tolist():
            removed_per_group[link_group[flat]].add(link_index[flat])

    member_lists: List[List[int]] = []
    diameters_by_id: List[float] = []
    for gi, members in enumerate(groups):
        dendro = group_dendrograms[gi]
        if dendro is None:
            member_lists.append([int(members[0])])
            diameters_by_id.append(0.0)
            continue
        local_clusters = _clusters_from_merges(
            len(members), dendro.merges, frozenset(removed_per_group[gi])
        )
        sub = group_matrices[gi]
        for local in local_clusters:
            member_lists.append([int(members[i]) for i in local])
            if len(local) < 2:
                diameters_by_id.append(0.0)
            else:
                idx = np.asarray(local, dtype=np.int64)
                diameters_by_id.append(float(sub[np.ix_(idx, idx)].max()))

    # Match cut_top_links' output ordering exactly: clusters sorted by
    # (size, member indices) descending, members ascending within.
    order = sorted(
        range(len(member_lists)),
        key=lambda i: (len(member_lists[i]), member_lists[i]),
        reverse=True,
    )
    member_lists = [member_lists[i] for i in order]
    diameters = tuple(diameters_by_id[i] for i in order)

    pairs_pruned = pairs_total - pairs_exact
    if obs_metrics.is_enabled():
        _PRUNE_PAIRS.inc(pairs_exact, outcome="exact")
        _PRUNE_PAIRS.inc(pairs_pruned, outcome="pruned")
        _PRUNE_GROUPS.set(m)
        _PRUNE_LARGEST_GROUP.set(max(len(g) for g in groups))
        _PRUNE_ROUNDS.set(rounds)
        for members in groups:
            _PRUNE_GROUP_SIZE.observe(len(members))
        if pairs_exact:
            sample = np.linspace(
                0, pairs_exact - 1, num=min(pairs_exact, 512), dtype=np.int64
            )
            lbs = index.lower_bounds(intra_rows[sample], intra_cols[sample])
            exacts = intra_values[sample]
            nonzero = exacts > 0
            for ratio in (lbs[nonzero] / exacts[nonzero]).tolist():
                _PRUNE_TIGHTNESS.observe(min(ratio, 1.0))

    report = PruneReport(
        n_hosts=n,
        pairs_total=pairs_total,
        pairs_exact=pairs_exact,
        pairs_pruned=pairs_pruned,
        groups=m,
        largest_group=max(len(g) for g in groups),
        rounds=rounds,
        certified=True,
        threshold=threshold,
        max_intra=max_intra,
        min_inter_lb=float(min_excess),
        group_sizes=tuple(sorted((len(g) for g in groups), reverse=True)),
    )
    return member_lists, diameters, report
