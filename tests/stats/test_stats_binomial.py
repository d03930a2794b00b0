"""Tests for repro.stats.binomial."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats.binomial import (
    BinomialDistribution,
    _log_terms,
    binomial_cdf,
    binomial_pmf,
    binomial_pmf_many,
    estimate_p,
    sample_window_counts,
)


class TestBinomialPmf:
    def test_length_and_normalization(self):
        pmf = binomial_pmf(10, 0.3)
        assert pmf.shape == (11,)
        assert pmf.sum() == pytest.approx(1.0)

    def test_matches_scipy(self):
        for m, p in [(5, 0.5), (10, 0.9), (25, 0.07), (100, 0.42)]:
            expected = sps.binom.pmf(np.arange(m + 1), m, p)
            np.testing.assert_allclose(binomial_pmf(m, p), expected, atol=1e-12)

    def test_large_m_uses_scipy_path(self):
        m = 1000
        pmf = binomial_pmf(m, 0.95)
        assert pmf.shape == (m + 1,)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_p_zero(self):
        pmf = binomial_pmf(8, 0.0)
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0

    def test_degenerate_p_one(self):
        pmf = binomial_pmf(8, 1.0)
        assert pmf[8] == 1.0
        assert pmf[:8].sum() == 0.0

    def test_symmetry_at_half(self):
        pmf = binomial_pmf(9, 0.5)
        np.testing.assert_allclose(pmf, pmf[::-1], atol=1e-12)

    @pytest.mark.parametrize("bad_m", [0, -1, 2.5, "10"])
    def test_invalid_m(self, bad_m):
        with pytest.raises(ValueError):
            binomial_pmf(bad_m, 0.5)

    @pytest.mark.parametrize("bad_p", [-0.1, 1.1, np.nan])
    def test_invalid_p(self, bad_p):
        with pytest.raises(ValueError):
            binomial_pmf(10, bad_p)

    @given(
        m=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_property_valid_pmf(self, m, p):
        pmf = binomial_pmf(m, p)
        assert (pmf >= 0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @given(
        m=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_property_mean(self, m, p):
        pmf = binomial_pmf(m, p)
        mean = float(np.arange(m + 1) @ pmf)
        assert mean == pytest.approx(m * p, rel=1e-6)


class TestBinomialPmfMany:
    """The batched pmf must equal the scalar one bit for bit."""

    @pytest.mark.parametrize("m", [1, 10, 512, 513])  # 513 takes the scipy path
    def test_rows_bit_identical_to_scalar(self, m):
        ps = np.concatenate([np.arange(10_001) * 1e-4, [0.0, 1.0]])
        rows = binomial_pmf_many(m, ps)
        assert rows.shape == (ps.size, m + 1)
        for p, row in zip(ps.tolist(), rows):
            assert np.array_equal(row, binomial_pmf(m, p)), p

    def test_empty_batch(self):
        assert binomial_pmf_many(10, np.array([])).shape == (0, 11)

    def test_cached_log_terms_are_read_only(self):
        for arr in _log_terms(10):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_scalar_pmf_is_fresh_and_writable(self, p):
        first = binomial_pmf(10, p)
        assert first.flags.writeable
        first[:] = -1.0
        assert (binomial_pmf(10, p) >= 0.0).all()

    @pytest.mark.parametrize("bad_p", [-0.1, 1.1, np.nan])
    def test_invalid_p_raises_like_scalar(self, bad_p):
        with pytest.raises(ValueError) as scalar:
            binomial_pmf(10, bad_p)
        with pytest.raises(ValueError) as batched:
            binomial_pmf_many(10, np.array([0.5, bad_p, 0.0]))
        assert str(batched.value) == str(scalar.value)


class TestBinomialCdf:
    def test_monotone_and_terminal(self):
        cdf = binomial_cdf(12, 0.4)
        assert (np.diff(cdf) >= -1e-15).all()
        assert cdf[-1] == 1.0

    def test_consistent_with_pmf(self):
        m, p = 7, 0.65
        np.testing.assert_allclose(
            binomial_cdf(m, p), np.cumsum(binomial_pmf(m, p)), atol=1e-12
        )


class TestSampling:
    def test_shape_and_support(self):
        counts = sample_window_counts(10, 0.9, 500, seed=1)
        assert counts.shape == (500,)
        assert counts.min() >= 0 and counts.max() <= 10

    def test_deterministic_by_seed(self):
        a = sample_window_counts(10, 0.5, 20, seed=4)
        b = sample_window_counts(10, 0.5, 20, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_empirical_mean_near_expectation(self):
        counts = sample_window_counts(10, 0.9, 20_000, seed=2)
        assert counts.mean() == pytest.approx(9.0, abs=0.05)

    def test_zero_draws(self):
        assert sample_window_counts(10, 0.5, 0).size == 0

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            sample_window_counts(10, 0.5, -1)


class TestEstimateP:
    def test_exact_value(self):
        # 3 windows of size 4 with counts 4, 2, 3 -> 9/12
        assert estimate_p(np.array([4, 2, 3]), 4) == pytest.approx(0.75)

    def test_recovers_generator_rate(self):
        counts = sample_window_counts(10, 0.87, 10_000, seed=3)
        assert estimate_p(counts, 10) == pytest.approx(0.87, abs=0.01)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_p(np.array([]), 10)

    def test_out_of_range_counts_raise(self):
        with pytest.raises(ValueError):
            estimate_p(np.array([11]), 10)
        with pytest.raises(ValueError):
            estimate_p(np.array([-1]), 10)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=50)
    )
    def test_property_in_unit_interval(self, counts):
        assert 0.0 <= estimate_p(np.asarray(counts), 10) <= 1.0


class TestBinomialDistribution:
    def test_moments(self):
        dist = BinomialDistribution(10, 0.9)
        assert dist.mean == pytest.approx(9.0)
        assert dist.variance == pytest.approx(0.9)

    def test_pmf_cdf_sample_consistent(self):
        dist = BinomialDistribution(6, 0.4)
        np.testing.assert_allclose(dist.pmf(), binomial_pmf(6, 0.4))
        np.testing.assert_allclose(dist.cdf(), binomial_cdf(6, 0.4))
        np.testing.assert_array_equal(
            dist.sample(5, seed=8), sample_window_counts(6, 0.4, 5, seed=8)
        )

    def test_hashable_for_caching(self):
        assert {BinomialDistribution(10, 0.9): "x"}[BinomialDistribution(10, 0.9)] == "x"

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialDistribution(0, 0.5)
        with pytest.raises(ValueError):
            BinomialDistribution(10, 1.5)
