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

* ``"loop"`` — the original per-pair Python loop, kept as the reference
  implementation;
* ``"vectorized"`` — pads all signatures into dense ``(n_hosts,
  max_bins)`` position/weight arrays and evaluates the merged-CDF
  integral for whole blocks of pairs with numpy array ops (no per-pair
  Python calls);
* ``"parallel"`` — the vectorized kernel fanned out over a
  ``multiprocessing`` pool in chunks of pairs, for host populations
  large enough to amortise worker startup;
* ``"pruned"`` — candidate-pruned: pairs whose exact EMD is derivable
  without the kernel (disjoint-support pairs, where 1-D EMD collapses
  to the difference of means) are filled from the closed form and only
  the surviving overlapping pairs go through the cache-blocked kernel
  (see :mod:`repro.stats.emdindex`; θ_hm additionally uses the index's
  certified group decomposition, which skips inter-group pairs
  entirely);
* ``"auto"`` (default) — escalates loop → vectorized → parallel →
  pruned by population size (see :func:`resolve_backend`).

All backends produce the exact distance — they integrate the same
merged CDF (or an algebraically equal closed form), differing only in
summation order (float dust at the 1e-15 scale); equivalence is pinned
by the test suite at ``atol=1e-12``.  ``exact=True`` is the escape
hatch that forbids the pruned engine (resolving it to the best
non-pruned backend) for correctness bisects.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

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
    "VECTORIZED_MIN_HOSTS",
    "PARALLEL_MIN_HOSTS",
    "PRUNED_MIN_HOSTS",
]

#: Backends accepted by :func:`pairwise_emd`.
PAIRWISE_BACKENDS = ("auto", "loop", "vectorized", "parallel", "pruned")

#: ``"auto"`` escalation boundaries, in host counts.  Below
#: ``VECTORIZED_MIN_HOSTS`` the per-pair Python loop wins (dense
#: packing and scratch allocation outweigh a handful of pairs); from
#: ``PARALLEL_MIN_HOSTS`` a multi-core machine amortises pool startup
#: over the O(n²) work split; from ``PRUNED_MIN_HOSTS`` the
#: candidate-pruning index amortises its O(n·bins) build cost.
VECTORIZED_MIN_HOSTS = 4
PARALLEL_MIN_HOSTS = 1500
PRUNED_MIN_HOSTS = 4000

#: Target float64 elements per vectorized block.  Chosen so one block's
#: working set (~6 arrays of this size) stays cache-resident: larger
#: blocks go memory-bound and were measured 3-4x slower at 500 hosts.
_BLOCK_ELEMENTS = 131_072

# Kernel telemetry (no-ops while repro.obs is disabled; the per-block
# timing additionally hoists the enabled check out of the hot loop so
# disabled-mode cost is one boolean per _condensed_blocks call).
# Metrics are process-local: under the parallel backend the workers'
# block counters stay in the workers — the parent records the coarse
# facts (backend, pair count) that matter for capacity planning.
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


# ----------------------------------------------------------------------
# Parallel backend
# ----------------------------------------------------------------------
# Workers receive the dense arrays once through the pool initializer
# (inherited for free under fork, pickled once per worker under spawn)
# instead of per task, so each chunk submission ships only two ints.
_WORKER_STATE: dict = {}


def _parallel_init(
    positions: np.ndarray, weights: np.ndarray, bins: np.ndarray, n: int
) -> None:
    _WORKER_STATE["positions"] = positions
    _WORKER_STATE["weights"] = weights
    _WORKER_STATE["bins"] = bins
    _WORKER_STATE["pairs"] = _colmajor_pairs(n)


def _parallel_chunk(bounds: Tuple[int, int]) -> np.ndarray:
    start, stop = bounds
    rows, cols = _WORKER_STATE["pairs"]
    return _condensed_blocks(
        _WORKER_STATE["positions"],
        _WORKER_STATE["weights"],
        _WORKER_STATE["bins"],
        rows[start:stop],
        cols[start:stop],
    )


def _pairwise_parallel(
    histograms: Sequence[Histogram],
    n_workers: Optional[int] = None,
) -> np.ndarray:
    n = len(histograms)
    matrix = np.zeros((n, n), dtype=float)
    if n < 2:
        return matrix
    workers = n_workers or os.cpu_count() or 1
    if workers <= 1:
        return _pairwise_vectorized(histograms)

    order, positions, weights, bins = _sorted_signatures(histograms)
    rows, cols = _colmajor_pairs(n)
    n_pairs = len(rows)
    # Several chunks per worker so an uneven pair distribution still
    # load-balances, but never smaller than one cache-sized block.
    step = max(
        _block_rows(positions.shape[1]), -(-n_pairs // (4 * workers))
    )
    chunks = [
        (start, min(start + step, n_pairs))
        for start in range(0, n_pairs, step)
    ]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_parallel_init,
        initargs=(positions, weights, bins, n),
    ) as pool:
        parts: List[np.ndarray] = list(pool.map(_parallel_chunk, chunks))
    condensed = np.concatenate(parts) if parts else np.zeros(0)
    o_rows = order[rows]
    o_cols = order[cols]
    matrix[o_rows, o_cols] = condensed
    matrix[o_cols, o_rows] = condensed
    return matrix


def resolve_backend(
    backend: str,
    n_hosts: int,
    cores: Optional[int] = None,
    exact: bool = False,
) -> str:
    """The concrete engine ``pairwise_emd`` will run for this request.

    Resolution is a pure function of the request — host count, core
    count, the ``exact`` escape hatch — so callers (``cluster_hosts``,
    the benchmarks, the boundary unit tests) can observe and pin the
    escalation instead of inferring it from counters.  ``"auto"``
    escalates loop → vectorized → parallel → pruned at
    ``VECTORIZED_MIN_HOSTS`` / ``PARALLEL_MIN_HOSTS`` /
    ``PRUNED_MIN_HOSTS``; parallel additionally needs more than one
    core.  ``exact=True`` forbids the pruned engine: an explicit or
    escalated ``"pruned"`` resolves to the best non-pruned backend for
    the same population instead.
    """
    if backend not in PAIRWISE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {PAIRWISE_BACKENDS}"
        )
    if cores is None:
        cores = os.cpu_count() or 1
    if exact and backend == "pruned":
        backend = "auto"
    if backend != "auto":
        return backend
    if not exact and n_hosts >= PRUNED_MIN_HOSTS:
        return "pruned"
    if n_hosts >= PARALLEL_MIN_HOSTS and cores > 1:
        return "parallel"
    if n_hosts >= VECTORIZED_MIN_HOSTS:
        return "vectorized"
    return "loop"


def pairwise_emd(
    histograms: Sequence[Histogram],
    backend: str = "auto",
    n_workers: Optional[int] = None,
    exact: bool = False,
) -> np.ndarray:
    """Symmetric matrix of EMDs between all pairs of histograms.

    ``backend`` selects the engine (see module docstring): ``"loop"``
    is the per-pair reference, ``"vectorized"`` the batched merged-CDF
    kernel, ``"parallel"`` the multiprocessing fan-out, ``"pruned"``
    the candidate-pruned engine (closed-form fill for disjoint-support
    pairs, kernel for the rest), and ``"auto"`` escalates between them
    by population size (see :func:`resolve_backend`).  Every backend
    returns the exact matrix.  ``n_workers`` caps the pool for the
    parallel backend; ``exact=True`` forbids the pruned engine.
    """
    backend = resolve_backend(backend, len(histograms), exact=exact)
    n = len(histograms)
    _BACKEND_SELECTED.inc(backend=backend)
    _PAIRS_TOTAL.inc(n * (n - 1) // 2, backend=backend)
    if backend == "loop":
        return _pairwise_loop(histograms)
    if backend == "vectorized":
        return _pairwise_vectorized(histograms)
    if backend == "pruned":
        from .emdindex import pruned_matrix

        return pruned_matrix(histograms)
    return _pairwise_parallel(histograms, n_workers=n_workers)
