"""Earth Mover's Distance between histogram signatures.

§IV-C compares per-host interstitial-time histograms with the Earth
Mover's Distance (EMD) [49]: the minimum cost of transforming one
distribution into the other, where moving mass ``m`` over ground distance
``d`` costs ``m * d``.  The general formulation is a transportation
problem [50]; for one-dimensional signatures with ground distance
``|x - y|`` and equal total mass it has a closed form — the area between
the two CDFs.

Three per-pair solvers are provided:

* :func:`emd_1d` — the exact O(n log n) closed form used in production;
* :func:`emd_transport` — a scipy ``linprog`` transportation solve, kept
  as an independent oracle for the property tests.

θ_hm needs the full pairwise matrix over a host population, which is the
pipeline's hot path.  :func:`pairwise_emd` dispatches between backends:

* ``"vectorized"`` — pads all signatures into dense ``(n_hosts,
  max_bins)`` position/weight arrays and evaluates the merged-CDF
  integral for whole blocks of pairs with numpy array ops (no per-pair
  Python calls);
* ``"pruned"`` — candidate-pruned: pairs whose exact EMD is derivable
  without the kernel (disjoint-support pairs, where 1-D EMD collapses
  to the difference of means) are filled from the closed form and only
  the surviving overlapping pairs go through the cache-blocked kernel
  (see :mod:`repro.stats.emdindex`; θ_hm additionally uses the index's
  certified group decomposition, which skips inter-group pairs
  entirely);
* ``"auto"`` (default) — ``vectorized`` below ``PRUNED_MIN_HOSTS``
  hosts, ``pruned`` from there up (see :func:`resolve_backend`);
* ``"loop"`` — the original per-pair Python loop, kept as the test
  oracle; only an explicit ``backend="loop"`` reaches it.

All backends produce the exact distance — they integrate the same
merged CDF (or an algebraically equal closed form), differing only in
summation order (float dust at the 1e-15 scale); equivalence is pinned
by the test suite at ``atol=1e-12``.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..obs import metrics as obs_metrics
from .histogram import Histogram

__all__ = [
    "emd_1d",
    "emd_transport",
    "emd",
    "pairwise_emd",
    "resolve_backend",
    "signature_arrays",
    "PAIRWISE_BACKENDS",
    "PRUNED_MIN_HOSTS",
]

#: Backends accepted by :func:`pairwise_emd`.
PAIRWISE_BACKENDS = ("auto", "loop", "vectorized", "pruned")

#: ``"auto"`` switches from the vectorized kernel to the
#: candidate-pruning index at this host count, where the index
#: amortises its O(n·bins) build cost.
PRUNED_MIN_HOSTS = 4000

#: Target float64 elements per vectorized block.  Chosen so one block's
#: working set (~6 arrays of this size) stays cache-resident: larger
#: blocks go memory-bound and were measured 3-4x slower at 500 hosts.
_BLOCK_ELEMENTS = 131_072

# Kernel telemetry (no-ops while repro.obs is disabled; the per-block
# timing additionally hoists the enabled check out of the hot loop so
# disabled-mode cost is one boolean per _condensed_blocks call).
_BACKEND_SELECTED = obs_metrics.counter(
    "repro_emd_backend_selected_total",
    "pairwise_emd invocations by resolved backend",
    labels=("backend",),
)
_PAIRS_TOTAL = obs_metrics.counter(
    "repro_emd_pairs_total",
    "Host pairs whose EMD was computed, by resolved backend",
    labels=("backend",),
)
_BLOCKS_TOTAL = obs_metrics.counter(
    "repro_emd_blocks_total", "Cache-sized kernel blocks evaluated"
)
_BLOCK_SECONDS = obs_metrics.histogram(
    "repro_emd_block_seconds",
    "Wall-clock time per merged-CDF kernel block",
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
             0.025, 0.05, 0.1, 0.25, 1.0),
)


def _as_signature(hist: Histogram) -> Tuple[np.ndarray, np.ndarray]:
    return hist.as_arrays()


def emd_1d(a: Histogram, b: Histogram) -> float:
    """Exact 1-D EMD with ground distance ``|x - y|``.

    Computed as the integral of the absolute difference between the two
    signatures' CDFs over the merged support — the standard closed form
    of the transportation problem on the line.
    """
    pos_a, w_a = _as_signature(a)
    pos_b, w_b = _as_signature(b)
    positions = np.concatenate([pos_a, pos_b])
    masses = np.concatenate([w_a, -w_b])
    order = np.argsort(positions, kind="mergesort")
    positions = positions[order]
    masses = masses[order]
    # Running signed mass after each point; cost accrues over each gap.
    cdf_diff = np.cumsum(masses)[:-1]
    gaps = np.diff(positions)
    return float(np.sum(np.abs(cdf_diff) * gaps))


def emd_transport(a: Histogram, b: Histogram) -> float:
    """EMD via an explicit transportation linear program (oracle).

    Minimise ``sum_ij c_ij f_ij`` subject to row sums equal to the source
    weights and column sums equal to the sink weights, ``f_ij >= 0``,
    with ``c_ij = |x_i - y_j|``.  Exponential in neither n nor m, but much
    slower than :func:`emd_1d`; used to cross-validate it in tests.
    """
    pos_a, w_a = _as_signature(a)
    pos_b, w_b = _as_signature(b)
    n, m = len(pos_a), len(pos_b)
    cost = np.abs(pos_a[:, None] - pos_b[None, :]).ravel()

    # Equality constraints: each source bin ships exactly its weight,
    # each sink bin receives exactly its weight.
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([w_a, w_b])

    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"transportation LP failed: {result.message}")
    return float(result.fun)


def emd(a: Histogram, b: Histogram) -> float:
    """The production EMD between two histogram signatures."""
    return emd_1d(a, b)


# ----------------------------------------------------------------------
# Dense signature packing
# ----------------------------------------------------------------------
def signature_arrays(
    histograms: Sequence[Histogram],
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack signatures into dense ``(n_hosts, max_bins)`` arrays.

    Rows shorter than ``max_bins`` are padded with zero-weight bins
    placed at the row's own last center: zero mass leaves the merged CDF
    unchanged, and a position inside the row's support keeps every gap
    non-negative and finite, so padded rows integrate to exactly the
    same EMD as the ragged originals.
    """
    n = len(histograms)
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    max_bins = max(len(h.centers) for h in histograms)
    positions = np.empty((n, max_bins), dtype=float)
    weights = np.zeros((n, max_bins), dtype=float)
    for i, hist in enumerate(histograms):
        k = len(hist.centers)
        positions[i, :k] = hist.centers
        positions[i, k:] = hist.centers[-1]
        weights[i, :k] = hist.weights
    return positions, weights


def _colmajor_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangle pair indices ordered by column: (i<j, j) for j=1..n-1.

    With hosts pre-sorted by bin count this ordering keeps consecutive
    pairs at similar signature widths, so the width-adaptive blocks of
    :func:`_condensed_blocks` shed most of the dense padding.
    """
    cols = np.repeat(np.arange(n), np.arange(n))
    rows = np.concatenate([np.arange(j) for j in range(n)]) if n > 1 else (
        np.zeros(0, dtype=int)
    )
    return rows, cols


def _pairwise_loop(histograms: Sequence[Histogram]) -> np.ndarray:
    n = len(histograms)
    matrix = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            d = emd_1d(histograms[i], histograms[j])
            matrix[i, j] = d
            matrix[j, i] = d
    return matrix


def _block_rows(max_bins: int) -> int:
    return max(16, _BLOCK_ELEMENTS // max(1, 2 * max_bins))


def _condensed_blocks(
    positions: np.ndarray,
    weights: np.ndarray,
    bins: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Condensed distances for the given pair list, in adaptive blocks.

    Each block of pairs is evaluated with the merged-CDF closed form of
    :func:`emd_1d`, batched: one row per pair holding the concatenated
    signatures as complex numbers — position in the real part, signed
    mass (+a, -b) in the imaginary part — so a single in-place
    lexicographic sort merges every row's support, and the CDF integral
    is pure array arithmetic.  (Ties sort by mass instead of input
    order, but equal positions contribute over zero-length gaps, so only
    summation-order float dust can differ from the loop backend.)

    Blocks are truncated to the widest signature actually present on
    each side (``bins`` gives every row's real bin count), which only
    drops zero-weight padding — the integral is unchanged.  Works for
    any pair ordering; orderings that group similar widths (see
    :func:`_colmajor_pairs` over bin-sorted hosts) benefit most.  All
    scratch is preallocated once and reused across blocks: per-block
    heap churn at these sizes bounces on the allocator's mmap threshold
    and was measured ~40% slower.
    """
    n_pairs = len(rows)
    out = np.empty(n_pairs, dtype=float)
    if n_pairs == 0:
        return out
    max_width = 2 * int(bins.max())
    step = _block_rows(max_width // 2)
    merged_scratch = np.empty(step * max_width, dtype=complex)
    cdf_scratch = np.empty(step * max_width, dtype=float)
    gap_scratch = np.empty(step * max_width, dtype=float)
    instrumented = obs_metrics.is_enabled()
    for start in range(0, n_pairs, step):
        if instrumented:
            block_t0 = time.perf_counter()
        stop = min(start + step, n_pairs)
        i = rows[start:stop]
        j = cols[start:stop]
        w_i = int(bins[i].max())
        w_j = int(bins[j].max())
        width = w_i + w_j
        block = stop - start
        merged = merged_scratch[: block * width].reshape(block, width)
        merged.real[:, :w_i] = positions[i, :w_i]
        merged.real[:, w_i:] = positions[j, :w_j]
        merged.imag[:, :w_i] = weights[i, :w_i]
        np.negative(weights[j, :w_j], out=merged.imag[:, w_i:])
        merged.sort(axis=1)
        cdf = cdf_scratch[: block * (width - 1)].reshape(block, width - 1)
        np.cumsum(merged.imag[:, :-1], axis=1, out=cdf)
        np.abs(cdf, out=cdf)
        gaps = gap_scratch[: block * (width - 1)].reshape(block, width - 1)
        np.subtract(merged.real[:, 1:], merged.real[:, :-1], out=gaps)
        out[start:stop] = np.einsum("ij,ij->i", cdf, gaps)
        if instrumented:
            _BLOCKS_TOTAL.inc()
            _BLOCK_SECONDS.observe(time.perf_counter() - block_t0)
    return out


def _sorted_signatures(
    histograms: Sequence[Histogram],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense signatures with hosts sorted by bin count.

    Returns ``(order, positions, weights, bins)`` where ``order`` maps
    sorted rows back to the caller's host indices.
    """
    bins = np.array([len(h.centers) for h in histograms], dtype=np.int64)
    order = np.argsort(bins, kind="stable")
    positions, weights = signature_arrays([histograms[k] for k in order])
    return order, positions, weights, bins[order]


def condensed_for_pairs(
    histograms: Sequence[Histogram],
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Exact EMDs for an explicit pair list, via the blocked kernel.

    The entry point the candidate-pruning index uses: after bounds
    analysis decides which pairs survive, only those ``(rows[k],
    cols[k])`` pairs are evaluated — with exactly the same merged-CDF
    kernel as the full backends.  Hosts are packed densely in caller
    order; orderings that keep consecutive pairs at similar signature
    widths get the best block truncation.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) == 0:
        return np.zeros(0, dtype=float)
    positions, weights = signature_arrays(histograms)
    bins = np.array([len(h.centers) for h in histograms], dtype=np.int64)
    return _condensed_blocks(positions, weights, bins, rows, cols)


def _pairwise_vectorized(histograms: Sequence[Histogram]) -> np.ndarray:
    n = len(histograms)
    matrix = np.zeros((n, n), dtype=float)
    if n < 2:
        return matrix
    order, positions, weights, bins = _sorted_signatures(histograms)
    rows, cols = _colmajor_pairs(n)
    condensed = _condensed_blocks(positions, weights, bins, rows, cols)
    o_rows = order[rows]
    o_cols = order[cols]
    matrix[o_rows, o_cols] = condensed
    matrix[o_cols, o_rows] = condensed
    return matrix


def resolve_backend(backend: str, n_hosts: int) -> str:
    """The concrete engine ``pairwise_emd`` will run for this request.

    Resolution is a pure function of the backend name and the host
    count, so callers (``cluster_hosts``, the benchmarks, the boundary
    unit tests) can observe and pin it instead of inferring it from
    counters.  ``"auto"`` resolves to ``"vectorized"`` below
    ``PRUNED_MIN_HOSTS`` hosts and to ``"pruned"`` from there up; an
    explicit backend passes through unchanged.
    """
    if backend not in PAIRWISE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {PAIRWISE_BACKENDS}"
        )
    if backend != "auto":
        return backend
    return "pruned" if n_hosts >= PRUNED_MIN_HOSTS else "vectorized"


def pairwise_emd(
    histograms: Sequence[Histogram], backend: str = "auto"
) -> np.ndarray:
    """Symmetric matrix of EMDs between all pairs of histograms.

    ``backend`` selects the engine (see module docstring):
    ``"vectorized"`` the batched merged-CDF kernel, ``"pruned"`` the
    candidate-pruned engine (closed-form fill for disjoint-support
    pairs, kernel for the rest), ``"loop"`` the per-pair reference, and
    ``"auto"`` picks by population size (see :func:`resolve_backend`).
    Every backend returns the exact matrix.
    """
    backend = resolve_backend(backend, len(histograms))
    n = len(histograms)
    _BACKEND_SELECTED.inc(backend=backend)
    _PAIRS_TOTAL.inc(n * (n - 1) // 2, backend=backend)
    if backend == "loop":
        return _pairwise_loop(histograms)
    if backend == "pruned":
        from .emdindex import pruned_matrix

        return pruned_matrix(histograms)
    return _pairwise_vectorized(histograms)
