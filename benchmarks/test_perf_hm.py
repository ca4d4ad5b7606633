"""Perf harness for the θ_hm pairwise-EMD distance engine.

Times the ``loop`` and ``vectorized`` backends of
:func:`repro.stats.emd.pairwise_emd` over synthetic host populations at
several scales, verifies the vectorized backend reproduces the
reference matrix, and writes the measurements to ``BENCH_hm.json`` at the repo
root so successive PRs accumulate a perf trajectory.

All headline timings run with the observability layer *disabled* (its
production default).  Each scale additionally records an
``observability`` breakdown from one instrumented vectorized run —
kernel block count, total/mean per-block time, and the wall-clock cost
of having telemetry enabled — and a separate smoke test bounds the
enabled-mode overhead of the instrumented kernel.

Run directly (full sweep)::

    PYTHONPATH=src python benchmarks/test_perf_hm.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_hm.py -q

Environment knobs:

* ``REPRO_BENCH_HM_HOSTS`` — comma-separated host counts
  (default ``50,200,500,1000``); CI smoke runs set a small value.
* ``REPRO_BENCH_HM_OUT`` — output path (default ``<repo>/BENCH_hm.json``).
"""

from __future__ import annotations

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from history import append_history

from repro import obs
from repro.stats.emd import pairwise_emd
from repro.stats.histogram import Histogram, build_histogram

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HOST_COUNTS = (50, 200, 500, 1000)

#: Equivalence tolerance between backends — the engines integrate the
#: same merged CDF, so only summation-order float dust may differ.
ATOL = 1e-12


def synthesize_histograms(n_hosts: int, seed: int = 7) -> List[Histogram]:
    """A θ_hm-shaped host population: timer bots plus lognormal humans.

    Sample counts vary per host (as reservoir fill levels do), so the
    signatures have unequal bin counts — the ragged case the dense
    padding must handle.
    """
    rng = np.random.default_rng(seed)
    hists = []
    for i in range(n_hosts):
        n_samples = int(rng.integers(60, 1500))
        if i % 4 == 0:  # machine-periodic: tight spread around a timer
            period = float(rng.uniform(0.5, 3.0))
            samples = rng.normal(period, 0.02, n_samples)
        else:  # human-driven: heavy-tailed interstitials (log10 space)
            samples = np.log10(
                np.clip(rng.lognormal(np.log(20), 1.5, n_samples), 1e-3, None)
            )
        hists.append(build_histogram(samples))
    return hists


def _time_backend(
    histograms: Sequence[Histogram], backend: str, repeats: int
) -> Dict[str, object]:
    best = float("inf")
    matrix = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        matrix = pairwise_emd(histograms, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return {"seconds": best, "matrix": matrix}


def _observed_breakdown(
    histograms: Sequence[Histogram], disabled_seconds: float
) -> Dict[str, object]:
    """One vectorized run with repro.obs enabled: per-stage telemetry.

    Returns the kernel's block count, total/mean per-block time, pair
    count, and the enabled-mode wall time relative to the disabled-mode
    measurement — the direct cost of the telemetry itself.  The
    registry is reset so the numbers describe exactly this run.
    """
    obs.get_registry().reset()
    obs.enable()
    try:
        t0 = time.perf_counter()
        pairwise_emd(histograms, backend="vectorized")
        enabled_seconds = time.perf_counter() - t0
    finally:
        obs.disable()
    summary = obs.summary()
    blocks = summary["repro_emd_blocks_total"].get("", 0.0)
    block_hist = summary["repro_emd_block_seconds"].get(
        "", {"count": 0, "sum": 0.0}
    )
    pairs = summary["repro_emd_pairs_total"].get("backend=vectorized", 0.0)
    obs.get_registry().reset()
    return {
        "kernel_blocks": int(blocks),
        "block_seconds_total": block_hist["sum"],
        "block_seconds_mean": (
            block_hist["sum"] / block_hist["count"] if block_hist["count"] else 0.0
        ),
        "pairs_recorded": int(pairs),
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_vs_disabled": (
            enabled_seconds / disabled_seconds if disabled_seconds else 0.0
        ),
    }


def run_benchmark(
    host_counts: Sequence[int],
    out_path: Path,
    repeats: int = 3,
) -> dict:
    """Time every backend at every scale and write the JSON report."""
    report = {
        "benchmark": "theta_hm pairwise EMD distance engine",
        "generated_by": "benchmarks/test_perf_hm.py",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "atol": ATOL,
        "results": [],
    }
    for n_hosts in host_counts:
        hists = synthesize_histograms(n_hosts)
        max_bins = max(len(h.centers) for h in hists)
        # The loop backend is the slow reference; one round suffices.
        loop = _time_backend(hists, "loop", repeats=1)
        vec = _time_backend(hists, "vectorized", repeats=repeats)
        reference = loop["matrix"]
        entry = {
            "n_hosts": n_hosts,
            "n_pairs": n_hosts * (n_hosts - 1) // 2,
            "max_bins": max_bins,
            "backends": {},
        }
        for name, run in (("loop", loop), ("vectorized", vec)):
            diff = float(np.abs(run["matrix"] - reference).max())
            if diff > ATOL:
                raise AssertionError(
                    f"{name} backend diverges from loop at "
                    f"{n_hosts} hosts: max|diff|={diff:g}"
                )
            entry["backends"][name] = {
                "seconds": run["seconds"],
                "speedup_vs_loop": loop["seconds"] / run["seconds"],
                "max_abs_diff_vs_loop": diff,
            }
        # Per-stage kernel telemetry (repro.obs): block counts, kernel
        # time, and what turning instrumentation on costs at this scale.
        entry["observability"] = _observed_breakdown(hists, vec["seconds"])
        report["results"].append(entry)
        o = entry["observability"]
        print(
            f"n_hosts={n_hosts:5d}  loop={loop['seconds']:8.3f}s  "
            f"vectorized={vec['seconds']:8.3f}s "
            f"({entry['backends']['vectorized']['speedup_vs_loop']:6.1f}x)  "
            f"[{o['kernel_blocks']} blocks, obs-on "
            f"{o['enabled_overhead_vs_disabled']:.2f}x]"
        )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    append_history(
        "hm_distance",
        {
            f"{backend}_seconds@n{entry['n_hosts']}": timing["seconds"]
            for entry in report["results"]
            for backend, timing in entry["backends"].items()
        },
    )
    return report


def _configured_host_counts() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_HM_HOSTS")
    if not raw:
        return list(DEFAULT_HOST_COUNTS)
    return [int(part) for part in raw.split(",") if part.strip()]


def _configured_out_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_HM_OUT", REPO_ROOT / "BENCH_hm.json"))


def test_obs_enabled_overhead_smoke():
    """Instrumented hot loops must stay cheap while obs is enabled.

    An enabled run pays two ``perf_counter`` calls plus two locked
    metric updates per cache-sized block; it is bounded loosely against
    a disabled run to catch accidentally-heavy telemetry.  That the
    disabled kernel makes no timer or registry call at all is pinned
    exactly, by call counts, in ``tests/obs/test_overhead.py``.
    """
    hists = synthesize_histograms(300)
    pairwise_emd(hists, backend="vectorized")  # warm caches and numpy

    def best_of(n: int) -> float:
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            pairwise_emd(hists, backend="vectorized")
            best = min(best, time.perf_counter() - t0)
        return best

    disabled = best_of(7)
    obs.get_registry().reset()
    obs.enable()
    try:
        enabled = best_of(5)
    finally:
        obs.disable()
        obs.get_registry().reset()
    assert enabled <= disabled * 1.5 + 2e-3, (
        f"enabled-mode overhead too high: {enabled:.6f}s vs {disabled:.6f}s"
    )


def test_perf_hm_distance_engine():
    """Benchmark entry point under pytest.

    Backend equivalence is asserted inside :func:`run_benchmark`; the
    speedups themselves are recorded, not asserted, so a loaded CI
    machine cannot flake the suite.
    """
    report = run_benchmark(_configured_host_counts(), _configured_out_path())
    assert report["results"], "benchmark produced no measurements"


if __name__ == "__main__":
    run_benchmark(_configured_host_counts(), _configured_out_path())
