"""Histogram density approximation with Freedman–Diaconis binning.

§IV-C of the paper approximates each host's interstitial-time distribution
with a histogram whose bin width follows Freedman & Diaconis [48]:

    b = 2 * IQR(v) * |v|^(-1/3)

chosen to minimise the mean-squared error between the histogram and the
true density.  Using a data-dependent bin width (rather than a fixed one)
is also an evasion-resistance argument in the paper: a Plotter cannot
easily predict how its traffic will be binned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["Histogram", "freedman_diaconis_width", "build_histogram"]


def freedman_diaconis_width(samples: Sequence[float]) -> float:
    """The Freedman–Diaconis bin width ``2 * IQR * n^(-1/3)``.

    Falls back to a width that yields a single bin when the IQR is zero
    (e.g. perfectly regular machine timers, where more than half of the
    samples are identical) or when there are fewer than two samples.
    """
    data = np.asarray(samples, dtype=float)
    if data.size < 2:
        return 1.0
    q75, q25 = np.percentile(data, [75.0, 25.0])
    iqr = float(q75 - q25)
    if iqr <= 0.0:
        spread = float(data.max() - data.min())
        return spread if spread > 0.0 else 1.0
    return 2.0 * iqr * float(data.size) ** (-1.0 / 3.0)


@dataclass(frozen=True)
class Histogram:
    """A normalised histogram: bin centers plus unit-mass weights.

    The EMD comparison in §IV-C treats each host's histogram as a
    "signature" — a set of (position, weight) pairs — so the bin grids of
    two hosts need not align.
    """

    centers: Tuple[float, ...]
    weights: Tuple[float, ...]
    bin_width: float

    def __post_init__(self) -> None:
        if len(self.centers) != len(self.weights):
            raise ValueError("centers and weights must have equal length")
        if len(self.centers) == 0:
            raise ValueError("histogram must have at least one bin")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")
        if any(b > a for a, b in zip(self.centers[1:], self.centers)):
            raise ValueError("bin centers must be sorted ascending")

    @property
    def support(self) -> Tuple[float, float]:
        """Smallest and largest bin center."""
        return (self.centers[0], self.centers[-1])

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The signature as float64 ``(positions, weights)`` arrays.

        The conversion is cached on the instance: the distance engine
        reads every histogram O(n_hosts) times per clustering pass, and
        tuples-to-ndarray is pure overhead to repeat.  The arrays are
        shared — callers must not mutate them.
        """
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = (
                np.asarray(self.centers, dtype=float),
                np.asarray(self.weights, dtype=float),
            )
            object.__setattr__(self, "_arrays", cached)
        return cached

    def mean(self) -> float:
        """Mean of the represented distribution."""
        return float(sum(c * w for c, w in zip(self.centers, self.weights)))

    def cdf_at(self, x: float) -> float:
        """Mass at bin centers ``<= x``."""
        total = 0.0
        for c, w in zip(self.centers, self.weights):
            if c <= x:
                total += w
            else:
                break
        return total


def build_histogram(samples: Sequence[float]) -> Histogram:
    """Build a Freedman–Diaconis histogram from raw samples.

    Empty bins are dropped (they carry no mass and would only slow the
    EMD computation).  Raises ``ValueError`` for an empty sample set —
    callers are expected to skip hosts with no interstitial samples.
    """
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise ValueError("cannot build a histogram from zero samples")
    if data.size == 1 or float(data.max() - data.min()) == 0.0:
        return Histogram(
            centers=(float(data[0]),), weights=(1.0,), bin_width=1.0
        )

    width = freedman_diaconis_width(data)
    lo = float(data.min())
    hi = float(data.max())
    # Guard against pathological widths producing an absurd bin count
    # (a subnormal IQR makes the ratio overflow to infinity).
    max_bins = min(max(1, int(data.size) * 4), 100_000)
    ratio = (hi - lo) / width
    if math.isfinite(ratio):
        n_bins = min(max(1, int(math.ceil(ratio))), max_bins)
    else:
        n_bins = max_bins
    counts, edges = np.histogram(data, bins=n_bins, range=(lo, hi))
    centers_all = (edges[:-1] + edges[1:]) / 2.0
    mask = counts > 0
    weights = counts[mask].astype(float)
    weights /= weights.sum()
    # Re-normalise exactly to counter floating-point drift.
    weights[-1] += 1.0 - weights.sum()
    return Histogram(
        centers=tuple(float(c) for c in centers_all[mask]),
        weights=tuple(float(w) for w in weights),
        bin_width=float(edges[1] - edges[0]) if len(edges) > 1 else 1.0,
    )
