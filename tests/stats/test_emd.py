"""Tests for the Earth Mover's Distance: closed form vs. LP oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.emd import (
    PAIRWISE_BACKENDS,
    emd,
    emd_1d,
    emd_transport,
    pairwise_emd,
    signature_arrays,
)
from repro.stats.histogram import Histogram, build_histogram


def hist(centers, weights):
    return Histogram(centers=tuple(centers), weights=tuple(weights), bin_width=1.0)


def random_histogram(rng, max_bins=8, allow_duplicates=True):
    """A seeded random signature; may repeat positions when allowed."""
    n_bins = int(rng.integers(1, max_bins + 1))
    centers = np.round(rng.uniform(-50.0, 50.0, n_bins), 3)
    if allow_duplicates and n_bins > 1 and rng.random() < 0.5:
        # Force at least one duplicated position.
        dup = int(rng.integers(1, n_bins))
        centers[dup] = centers[dup - 1]
    centers = np.sort(centers)
    weights = rng.uniform(0.01, 1.0, n_bins)
    weights /= weights.sum()
    weights[-1] += 1.0 - weights.sum()
    return hist(centers.tolist(), weights.tolist())


histogram_strategy = st.lists(
    st.tuples(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
).map(
    lambda pairs: hist(
        [c for c, _w in sorted(pairs)],
        [w / sum(w for _c, w in pairs) for _c, w in sorted(pairs)],
    )
)


class TestKnownValues:
    def test_identical_histograms(self):
        h = hist([0.0, 1.0], [0.5, 0.5])
        assert emd_1d(h, h) == pytest.approx(0.0, abs=1e-12)

    def test_pure_shift(self):
        # EMD between deltas at 0 and at 7 is exactly 7.
        a = hist([0.0], [1.0])
        b = hist([7.0], [1.0])
        assert emd_1d(a, b) == pytest.approx(7.0)

    def test_split_mass(self):
        # Half the mass moves 2, half moves 0: EMD = 1.
        a = hist([0.0, 2.0], [0.5, 0.5])
        b = hist([0.0], [1.0])
        assert emd_1d(a, b) == pytest.approx(1.0)

    def test_shift_invariance_of_magnitude(self):
        a = hist([0.0, 1.0], [0.3, 0.7])
        b = hist([5.0, 6.0], [0.3, 0.7])
        # Same shape shifted by 5: EMD is exactly the shift.
        assert emd_1d(a, b) == pytest.approx(5.0)


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(a=histogram_strategy, b=histogram_strategy)
    def test_closed_form_matches_transport_lp(self, a, b):
        fast = emd_1d(a, b)
        oracle = emd_transport(a, b)
        assert fast == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    def test_seeded_pairs_match_oracle_tightly(self):
        """~50 seeded random pairs agree with the linprog oracle to 1e-9.

        The pairs deliberately mix unequal bin counts and duplicated
        positions — the ragged/tied cases the closed form must merge
        correctly.
        """
        rng = np.random.default_rng(20260806)
        checked_unequal = checked_duplicates = 0
        for _ in range(50):
            a = random_histogram(rng)
            b = random_histogram(rng)
            if len(a.centers) != len(b.centers):
                checked_unequal += 1
            if len(set(a.centers)) < len(a.centers) or len(
                set(b.centers)
            ) < len(b.centers):
                checked_duplicates += 1
            assert emd_1d(a, b) == pytest.approx(
                emd_transport(a, b), abs=1e-9
            )
        # The generator must actually have produced the tricky shapes.
        assert checked_unequal >= 10
        assert checked_duplicates >= 10


class TestMetricProperties:
    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy, b=histogram_strategy)
    def test_symmetry(self, a, b):
        assert emd_1d(a, b) == pytest.approx(emd_1d(b, a), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy)
    def test_identity(self, a):
        assert emd_1d(a, a) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy, b=histogram_strategy, c=histogram_strategy)
    def test_triangle_inequality(self, a, b, c):
        assert emd_1d(a, c) <= emd_1d(a, b) + emd_1d(b, c) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy, b=histogram_strategy)
    def test_non_negative(self, a, b):
        assert emd_1d(a, b) >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy, b=histogram_strategy)
    def test_bounded_by_support_spread(self, a, b):
        spread = max(a.support[1], b.support[1]) - min(
            a.support[0], b.support[0]
        )
        assert emd_1d(a, b) <= spread + 1e-9


class TestPairwise:
    def test_matrix_shape_and_symmetry(self):
        hists = [build_histogram([1, 2, 3]), build_histogram([10, 20]), build_histogram([5])]
        matrix = pairwise_emd(hists)
        assert matrix.shape == (3, 3)
        assert (matrix == matrix.T).all()
        assert (matrix.diagonal() == 0).all()

    def test_default_emd_is_closed_form(self):
        a = hist([0.0], [1.0])
        b = hist([3.0], [1.0])
        assert emd(a, b) == emd_1d(a, b)


class TestShiftInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        a=histogram_strategy,
        b=histogram_strategy,
        shift=st.floats(-50, 50, allow_nan=False),
    )
    def test_common_shift_preserves_emd(self, a, b, shift):
        """EMD with ground distance |x-y| is translation-invariant."""
        def shifted(h):
            return hist([c + shift for c in h.centers], list(h.weights))

        original = emd_1d(a, b)
        moved = emd_1d(shifted(a), shifted(b))
        assert moved == pytest.approx(original, abs=1e-6, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(a=histogram_strategy, shift=st.floats(0.1, 50, allow_nan=False))
    def test_shifting_one_histogram_costs_exactly_the_shift(self, a, shift):
        moved = hist([c + shift for c in a.centers], list(a.weights))
        assert emd_1d(a, moved) == pytest.approx(shift, rel=1e-6)


def random_population(seed, n_hosts, max_bins=24):
    rng = np.random.default_rng(seed)
    return [
        random_histogram(rng, max_bins=max_bins) for _ in range(n_hosts)
    ]


class TestBackendEquivalence:
    """The vectorized engine reproduces the loop backend."""

    @pytest.mark.parametrize("n_hosts", [2, 3, 17, 60])
    @pytest.mark.parametrize("fast_backend", ["vectorized"])
    def test_matches_loop_backend(self, n_hosts, fast_backend):
        hists = random_population(seed=n_hosts, n_hosts=n_hosts)
        reference = pairwise_emd(hists, backend="loop")
        fast = pairwise_emd(hists, backend=fast_backend)
        np.testing.assert_allclose(fast, reference, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("backend", ["loop", "vectorized", "pruned"])
    def test_symmetric_with_zero_diagonal(self, backend):
        hists = random_population(seed=99, n_hosts=25)
        matrix = pairwise_emd(hists, backend=backend)
        assert matrix.shape == (25, 25)
        assert (matrix == matrix.T).all()
        assert (matrix.diagonal() == 0.0).all()
        assert (matrix >= 0.0).all()

    def test_single_bin_population(self):
        hists = [build_histogram([float(k)]) for k in range(6)]
        reference = pairwise_emd(hists, backend="loop")
        fast = pairwise_emd(hists, backend="vectorized")
        np.testing.assert_allclose(fast, reference, atol=1e-12, rtol=0.0)

    def test_trivial_populations(self):
        for backend in ("loop", "vectorized", "pruned"):
            assert pairwise_emd([], backend=backend).shape == (0, 0)
            one = pairwise_emd(
                [build_histogram([1.0, 2.0])], backend=backend
            )
            assert one.shape == (1, 1)
            assert one[0, 0] == 0.0

    def test_auto_backend_matches_loop(self):
        hists = random_population(seed=7, n_hosts=30)
        np.testing.assert_allclose(
            pairwise_emd(hists, backend="auto"),
            pairwise_emd(hists, backend="loop"),
            atol=1e-12,
            rtol=0.0,
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            pairwise_emd([], backend="gpu")
        assert "auto" in PAIRWISE_BACKENDS


class TestSignatureArrays:
    def test_padding_is_zero_weight_at_last_center(self):
        hists = [
            hist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
            hist([5.0], [1.0]),
        ]
        positions, weights = signature_arrays(hists)
        assert positions.shape == (2, 3)
        assert weights.shape == (2, 3)
        np.testing.assert_array_equal(positions[1], [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(weights[1], [1.0, 0.0, 0.0])

    def test_empty_population(self):
        positions, weights = signature_arrays([])
        assert positions.shape == (0, 0)
        assert weights.shape == (0, 0)
