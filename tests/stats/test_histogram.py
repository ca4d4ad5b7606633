"""Tests for Freedman–Diaconis histograms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.stats.histogram import (
    Histogram,
    build_histogram,
    freedman_diaconis_width,
)


class TestFreedmanDiaconisWidth:
    def test_formula_on_known_data(self):
        data = list(range(1, 101))  # IQR = 50 for 1..100 under linear interp
        expected = 2 * np.subtract(*np.percentile(data, [75, 25])) * 100 ** (
            -1 / 3
        )
        assert freedman_diaconis_width(data) == pytest.approx(float(expected))

    def test_zero_iqr_falls_back_to_range(self):
        # More than half the samples identical -> IQR 0; width = spread.
        data = [5.0] * 10 + [1.0, 9.0]
        assert freedman_diaconis_width(data) == pytest.approx(8.0)

    def test_constant_samples(self):
        assert freedman_diaconis_width([3.0, 3.0, 3.0]) == 1.0

    def test_single_sample(self):
        assert freedman_diaconis_width([42.0]) == 1.0

    @given(
        data=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=200
        )
    )
    def test_always_positive(self, data):
        assert freedman_diaconis_width(data) > 0


class TestHistogramInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Histogram(centers=(0.0, 1.0), weights=(0.5, 0.6), bin_width=1.0)

    def test_centers_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram(centers=(1.0, 0.0), weights=(0.5, 0.5), bin_width=1.0)

    def test_no_empty_histogram(self):
        with pytest.raises(ValueError):
            Histogram(centers=(), weights=(), bin_width=1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            Histogram(centers=(0.0, 1.0), weights=(1.5, -0.5), bin_width=1.0)

    def test_mean_and_cdf(self):
        hist = Histogram(centers=(0.0, 10.0), weights=(0.25, 0.75), bin_width=1.0)
        assert hist.mean() == pytest.approx(7.5)
        assert hist.cdf_at(-1) == 0.0
        assert hist.cdf_at(0.0) == pytest.approx(0.25)
        assert hist.cdf_at(100.0) == pytest.approx(1.0)
        assert hist.support == (0.0, 10.0)


class TestBuildHistogram:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_histogram([])

    def test_single_sample(self):
        hist = build_histogram([7.0])
        assert hist.centers == (7.0,)
        assert hist.weights == (1.0,)

    def test_constant_samples(self):
        hist = build_histogram([3.0] * 20)
        assert hist.centers == (3.0,)

    def test_mass_is_conserved(self):
        hist = build_histogram([1, 2, 3, 4, 100])
        assert sum(hist.weights) == pytest.approx(1.0)

    def test_support_covers_data(self):
        data = [1.0, 5.0, 9.0, 2.0, 8.0]
        hist = build_histogram(data)
        lo, hi = hist.support
        assert lo >= min(data) - hist.bin_width
        assert hi <= max(data) + hist.bin_width

    @given(
        data=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=1, max_size=300
        )
    )
    # A subnormal IQR: the FD width underflows and the bin-count ratio
    # overflows to infinity.
    @example(data=[0.0, 0.0, 0.0, 1.0, 2.2250738585e-313])
    def test_properties_hold_for_arbitrary_data(self, data):
        hist = build_histogram(data)
        assert sum(hist.weights) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w in hist.weights)
        assert list(hist.centers) == sorted(hist.centers)
        # Mean of the histogram approximates the sample mean to within
        # one bin width.
        assert abs(hist.mean() - float(np.mean(data))) <= hist.bin_width + 1e-9

    def test_periodic_samples_yield_spike(self):
        # Machine-like timing: tight cluster around the timer value.
        rng = np.random.default_rng(1)
        data = 30.0 + rng.normal(0, 0.1, size=500)
        hist = build_histogram(list(data))
        # All mass concentrates within a fraction of a second of the
        # timer value, and the modal bin sits on it.
        assert hist.support[0] > 29.0 and hist.support[1] < 31.0
        peak = max(hist.weights)
        assert abs(hist.centers[hist.weights.index(peak)] - 30.0) < 0.5
