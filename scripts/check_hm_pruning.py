#!/usr/bin/env python
"""Pruned θ_hm smoke check: certified pruning at scale, exact answers.

Used by the CI ``hm-prune-smoke`` job; also runnable by hand.  Builds a
modal timer population (the certified-decomposition shape) at a scale
where the pruned engine genuinely prunes, then asserts the engine's
whole contract:

**Certification** — ``pruned_partition`` must certify the group
decomposition (no fallback) and prune a substantial fraction of pairs,
with the report's accounting consistent (exact + pruned = total).

**Equivalence checksum** — clusters, kept set, τ_hm and diameters from
``cluster_hosts(backend="pruned")`` must match the exact engine's
bit-for-bit / to 1e-12; a SHA-256 over the canonicalised clustering is
printed for both engines and must agree.

**Lower-bound soundness (sampled)** — on a random pair sample, every
index lower bound must sit at or below the exact kernel distance.

Scale and reference engine are configurable so CI can trade coverage
for wall time.

Usage:  python scripts/check_hm_pruning.py --hosts 5000
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import _checklib
from _checklib import phase

_checklib.bootstrap()

import numpy as np  # noqa: E402

from repro.detection.humanmachine import cluster_hosts  # noqa: E402
from repro.stats.emd import condensed_for_pairs  # noqa: E402
from repro.stats.emdindex import build_index, pruned_partition  # noqa: E402
from repro.stats.histogram import build_histogram  # noqa: E402

MIN_PRUNE_FRACTION = 0.5


def modal_histograms(n_hosts: int, n_modes: int = 4, seed: int = 7):
    rng = np.random.default_rng(seed)
    hists = []
    for k in range(n_hosts):
        samples = rng.normal(1.5 * (k % n_modes), 0.02, 150)
        hists.append(build_histogram(samples.tolist()))
    return hists


def clustering_checksum(result) -> str:
    """SHA-256 over the canonical clustering outcome.

    Diameters and τ_hm are rounded to 1e-12 (the suite's equivalence
    tolerance) so the checksum pins decisions, not summation-order
    float dust.
    """
    canonical = {
        "clusters": [list(c) for c in result.clusters],
        "kept": [list(c) for c in result.kept],
        "diameters": [round(d, 12) for d in result.diameters],
        "threshold": round(result.threshold, 12),
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def check_certification(hists, cut_fraction: float):
    t0 = time.perf_counter()
    _members, _diameters, report = pruned_partition(hists, cut_fraction)
    elapsed = time.perf_counter() - t0
    assert report.certified, (
        f"expected certification, got fallback {report.fallback_reason!r}"
    )
    assert report.pairs_exact + report.pairs_pruned == report.pairs_total
    assert report.prune_fraction >= MIN_PRUNE_FRACTION, (
        f"prune fraction {report.prune_fraction:.3f} below "
        f"{MIN_PRUNE_FRACTION} — the index is not earning its keep"
    )
    assert sum(report.group_sizes) == len(hists)
    print(
        f"certification: OK in {elapsed:.2f}s — {report.groups} groups, "
        f"{report.prune_fraction:.1%} of {report.pairs_total:,} pairs "
        f"pruned, {report.rounds} round(s)"
    )
    return report


def check_equivalence(hists, exact_backend: str):
    histograms = {f"h{i:06d}": h for i, h in enumerate(hists)}
    t0 = time.perf_counter()
    pruned = cluster_hosts(histograms, 70.0, backend="pruned")
    pruned_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = cluster_hosts(histograms, 70.0, backend=exact_backend)
    exact_s = time.perf_counter() - t0
    assert pruned.backend == "pruned", pruned.backend
    assert exact.backend == exact_backend, exact.backend
    assert pruned.clusters == exact.clusters
    assert pruned.kept == exact.kept
    diff = float(
        np.abs(
            np.asarray(pruned.diameters) - np.asarray(exact.diameters)
        ).max()
    )
    assert diff <= 1e-12, f"diameter drift {diff:g}"
    assert abs(pruned.threshold - exact.threshold) <= 1e-12
    left = clustering_checksum(pruned)
    right = clustering_checksum(exact)
    assert left == right, f"checksum mismatch: {left} != {right}"
    print(
        f"equivalence: OK — checksum {left[:16]}… identical "
        f"(pruned {pruned_s:.2f}s vs {exact_backend} {exact_s:.2f}s, "
        f"{exact_s / pruned_s:.1f}x)"
    )
    return pruned


def check_lower_bounds(hists, n_samples: int = 2000, seed: int = 0):
    index = build_index(hists)
    rng = np.random.default_rng(seed)
    n = len(hists)
    rows = rng.integers(0, n, size=n_samples)
    cols = rng.integers(0, n, size=n_samples)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    bounds = index.lower_bounds(rows, cols)
    exact = condensed_for_pairs(hists, rows, cols)
    worst = float((bounds - exact).max())
    assert worst <= 1e-9, f"lower-bound violation: {worst:g}"
    tight = bounds[exact > 0] / exact[exact > 0]
    print(
        f"lower bounds: OK — {len(rows)} sampled pairs, worst excess "
        f"{worst:.2e}, median tightness {float(np.median(tight)):.3f}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--hosts", type=int, default=5000, help="population size"
    )
    parser.add_argument(
        "--modes", type=int, default=4, help="timer families in the population"
    )
    parser.add_argument(
        "--cut-fraction", type=float, default=0.05, help="dendrogram link cut"
    )
    parser.add_argument(
        "--exact-backend",
        default="vectorized",
        choices=("vectorized", "loop"),
        help="reference engine for the equivalence check (default: "
        "vectorized)",
    )
    args = parser.parse_args()

    hists = modal_histograms(args.hosts, n_modes=args.modes)
    exact_backend = args.exact_backend
    print(
        f"population: {args.hosts} hosts, {args.modes} timer families; "
        f"exact reference engine: {exact_backend!r}"
    )
    with phase("certification"):
        check_certification(hists, args.cut_fraction)
    with phase("equivalence checksum"):
        check_equivalence(hists, exact_backend)
    with phase("lower-bound soundness"):
        check_lower_bounds(hists)
    print("hm-pruning check: all phases OK")
    return 0


if __name__ == "__main__":
    _checklib.run(main)
