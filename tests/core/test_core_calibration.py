"""Tests for repro.core.calibration (the ε threshold estimator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import calibration
from repro.core.calibration import _MAX_STREAMS, _STREAM_ROWS, ThresholdCalibrator
from repro.serve import CalibrationCache
from repro.stats.bootstrap import percentile_threshold
from repro.stats.binomial import sample_window_counts
from repro.stats.distances import l1_distance
from repro.stats.empirical import empirical_pmf
from repro.stats.binomial import binomial_pmf


class TestThreshold:
    def test_positive_and_bounded(self):
        cal = ThresholdCalibrator(seed=1)
        eps = cal.threshold(10, 50, 0.95)
        assert 0.0 < eps < 2.0

    def test_decreases_with_more_windows(self):
        # the Fig. 8 mechanism: more windows -> tighter threshold
        cal = ThresholdCalibrator(n_sets=1000, seed=2)
        assert cal.threshold(10, 320, 0.95) < cal.threshold(10, 10, 0.95)

    @pytest.mark.parametrize("p", [0.6, 0.9, 0.95])
    @pytest.mark.parametrize("k", [4, 16, 64, 512])
    def test_honest_samples_pass_at_roughly_the_confidence(self, k, p):
        # ~95% of honest sample sets should fall under the 95% threshold
        cal = ThresholdCalibrator(n_sets=2000, seed=3)
        m = 10
        eps = cal.threshold(m, k, p)
        pmf = binomial_pmf(m, p)
        passes = 0
        trials = 400
        rng = np.random.default_rng(4)
        for _ in range(trials):
            counts = sample_window_counts(m, p, k, seed=rng)
            d = l1_distance(empirical_pmf(counts, m + 1), pmf)
            passes += d <= eps
        assert passes / trials == pytest.approx(0.95, abs=0.05)

    def test_degenerate_p_gives_zero_threshold(self):
        cal = ThresholdCalibrator(seed=5)
        assert cal.threshold(10, 20, 1.0) == pytest.approx(0.0)
        assert cal.threshold(10, 20, 0.0) == pytest.approx(0.0)

    def test_higher_confidence_gives_larger_threshold(self):
        strict = ThresholdCalibrator(confidence=0.90, n_sets=2000, seed=6)
        lenient = ThresholdCalibrator(confidence=0.99, n_sets=2000, seed=6)
        assert lenient.threshold(10, 30, 0.9) >= strict.threshold(10, 30, 0.9)

    def test_validation(self):
        cal = ThresholdCalibrator(seed=7)
        with pytest.raises(ValueError):
            cal.threshold(0, 10, 0.9)
        with pytest.raises(ValueError):
            cal.threshold(10, 0, 0.9)
        with pytest.raises(ValueError):
            cal.threshold(10, 10, 1.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(confidence=1.5)
        with pytest.raises(ValueError):
            ThresholdCalibrator(n_sets=0)
        with pytest.raises(ValueError):
            ThresholdCalibrator(p_quantum=-1)
        with pytest.raises(KeyError):
            ThresholdCalibrator(distance="nope")


class TestCaching:
    def test_cache_hits_on_repeat(self):
        cal = ThresholdCalibrator(seed=8)
        first = cal.threshold(10, 25, 0.95)
        second = cal.threshold(10, 25, 0.95)
        assert first == second
        hits, misses = cal.cache_stats
        assert hits == 1 and misses == 1

    def test_quantization_shares_entries(self):
        cal = ThresholdCalibrator(p_quantum=0.01, seed=9)
        a = cal.threshold(10, 25, 0.948)
        b = cal.threshold(10, 25, 0.952)
        assert a == b  # both snap to 0.95
        assert cal.cache_stats == (1, 1)

    def test_quantize_p(self):
        cal = ThresholdCalibrator(p_quantum=0.01)
        assert cal.quantize_p(0.948) == pytest.approx(0.95)
        assert cal.quantize_p(0.944) == pytest.approx(0.94)

    def test_near_degenerate_p_never_snaps_to_point_mass(self):
        # regression: p_hat = 0.996 must NOT calibrate against the p = 1.0
        # point mass (epsilon = 0), which would flag nearly-perfect honest
        # servers forever (found via a deadlocked Fig. 6 campaign)
        cal = ThresholdCalibrator(p_quantum=0.01, seed=20)
        assert cal.quantize_p(0.996) == pytest.approx(0.99)
        assert cal.quantize_p(0.004) == pytest.approx(0.01)
        assert cal.quantize_p(1.0) == pytest.approx(1.0)
        assert cal.quantize_p(0.0) == pytest.approx(0.0)
        assert cal.threshold(10, 100, 0.9999) > 0.0

    def test_nearly_perfect_honest_server_passes(self):
        # end-to-end regression for the same bug
        from repro.core.testing import SingleBehaviorTest
        from repro.core.model import generate_honest_outcomes

        test_ = SingleBehaviorTest()
        outcomes = generate_honest_outcomes(2000, 0.998, seed=21)
        assert 0 < (2000 - outcomes.sum()) < 20  # nearly, but not exactly, perfect
        assert test_.test(outcomes).passed

    def test_zero_quantum_disables_snapping(self):
        cal = ThresholdCalibrator(p_quantum=0.0, seed=10)
        cal.threshold(10, 25, 0.948)
        cal.threshold(10, 25, 0.952)
        assert cal.cache_stats == (0, 2)

    def test_different_k_are_separate_entries(self):
        cal = ThresholdCalibrator(seed=11)
        cal.threshold(10, 25, 0.95)
        cal.threshold(10, 26, 0.95)
        assert cal.cache_stats == (0, 2)


class TestNullDistances:
    def test_shape(self):
        cal = ThresholdCalibrator(n_sets=123, seed=12)
        assert cal.null_distances(10, 30, 0.9).shape == (123,)

    def test_seeded_reproducibility(self):
        cal = ThresholdCalibrator(n_sets=50, seed=13)
        a = cal.null_distances(10, 30, 0.9, seed=99)
        b = cal.null_distances(10, 30, 0.9, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_non_l1_distance_path(self):
        cal = ThresholdCalibrator(n_sets=50, distance="ks", seed=14)
        distances = cal.null_distances(10, 30, 0.9)
        assert distances.shape == (50,)
        assert (distances >= 0).all() and (distances <= 1).all()
        assert cal.threshold(10, 30, 0.9) > 0


#: (m, k, p_hat) consultations: a few window sizes, k across several
#: 16-row blocks and across the streams' row cap, rates on and off the
#: caching grid
_KEYS = st.tuples(
    st.sampled_from([4, 10]),
    st.one_of(st.integers(1, 40), st.integers(_STREAM_ROWS - 8, _STREAM_ROWS + 8)),
    st.floats(0.0, 1.0, allow_nan=False),
)


def _calibrator(seed=31):
    return ThresholdCalibrator(n_sets=64, seed=seed)


class TestPerKeyStreams:
    """Every threshold is a pure function of its key and the seed."""

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(_KEYS, min_size=1, max_size=12), data=st.data())
    def test_same_seed_agrees_whatever_the_order(self, keys, data):
        one = data.draw(st.permutations(keys))
        two = data.draw(st.permutations(keys))
        first, second = _calibrator(), _calibrator()
        asked_first = {key: first.threshold(*key) for key in one}
        asked_second = {key: second.threshold(*key) for key in two}
        assert asked_first == asked_second

    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from([4, 10]), p=st.floats(0.05, 0.95))
    def test_longer_stream_first_leaves_shorter_keys_alone(self, m, p):
        extended = _calibrator()
        extended.threshold(m, 40, p)
        assert extended.threshold(m, 8, p) == _calibrator().threshold(m, 8, p)

    def test_another_seed_moves_a_threshold(self):
        keys = [(10, k, p) for k in (5, 12, 30) for p in (0.6, 0.8, 0.95)]
        first, other = _calibrator(seed=1), _calibrator(seed=2)
        assert [first.threshold(*key) for key in keys] != [
            other.threshold(*key) for key in keys
        ]

    @pytest.mark.parametrize("distance", ["l1", "ks"])
    def test_threshold_is_the_percentile_of_the_stream_distances(self, distance):
        cal = ThresholdCalibrator(n_sets=300, distance=distance, seed=17)
        for k in (3, 16, 17, 50, _STREAM_ROWS + 1):
            distances = cal.null_distances(10, k, 0.87)
            assert distances.shape == (300,)
            assert percentile_threshold(distances, 0.95) == cal.threshold(10, k, 0.87)

    @pytest.mark.parametrize("k", [20, _STREAM_ROWS + 1])
    def test_explicit_seed_gives_that_seeds_stream(self, k):
        cal = _calibrator(seed=5)
        np.testing.assert_array_equal(
            cal.null_distances(10, k, 0.9, seed=6),
            _calibrator(seed=6).null_distances(10, k, 0.9),
        )

    def test_kept_rows_stay_bounded(self):
        # p_quantum=0 keys every distinct rate; a long history's k is
        # past the streams and keeps no rows at all
        cal = ThresholdCalibrator(n_sets=16, p_quantum=0, seed=4)
        rates = np.linspace(0.3, 0.7, _MAX_STREAMS + 5)
        for p in rates:
            cal.threshold(10, 8, p)
        assert len(cal._streams) == _MAX_STREAMS

        def kept():
            return {key: len(rows) for key, (_, rows) in cal._streams.items()}

        before = kept()
        assert (10, 0.5) in before
        cal.threshold(10, 50_000, 0.5)
        assert kept() == before
        fresh = ThresholdCalibrator(n_sets=16, p_quantum=0, seed=4)
        # the first rate's stream was dropped; redrawn, it agrees
        assert cal.threshold(10, 9, rates[0]) == fresh.threshold(10, 9, rates[0])

    def test_generator_seed_draws_one_root(self):
        a = ThresholdCalibrator(n_sets=64, seed=np.random.default_rng(9))
        b = ThresholdCalibrator(n_sets=64, seed=np.random.default_rng(9))
        assert a.threshold(10, 12, 0.9) == b.threshold(10, 12, 0.9)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ThresholdCalibrator(seed=-1)


class _Forgetful(dict):
    """A memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _plain(**settings):
    """A calibrator without the raw-key memos: every lookup quantizes
    ``p_hat`` and then looks its key up."""
    cal = ThresholdCalibrator(**settings)
    cal._raw = _Forgetful()
    cal._p_keys = _Forgetful()
    return cal


class TestRawKeyMemo:
    """A hit is one lookup of the raw ``(m, k, p_hat)``; it must answer
    exactly what quantizing and looking up would."""

    @staticmethod
    def _lookups(seed=29, n=400):
        # rates as a history produces them (good windows over k*m
        # transactions), with repeats, python and numpy floats, short
        # keys on the streams and long ones past _STREAM_ROWS
        rng = np.random.default_rng(seed)
        ks = [4, 9, 16, 40, _STREAM_ROWS + 44, 80_000]
        pool = []
        for k in ks:
            for g in rng.integers(int(0.8 * 10 * k), 10 * k + 1, size=12).tolist():
                pool.append((10, k, g / (10 * k)))
        pool.append((10, 16, 1.0))
        pool.append((10, 16, np.float64(0.85)))
        return [pool[i] for i in rng.integers(0, len(pool), size=n)]

    @pytest.mark.parametrize("stored", [False, True], ids=["memo", "store"])
    @pytest.mark.parametrize("p_quantum", [0.01, 0.0])
    def test_same_thresholds_and_misses_as_the_plain_lookup(self, p_quantum, stored):
        settings = dict(n_sets=30, p_quantum=p_quantum, seed=8)
        fast, plain = ThresholdCalibrator(**settings), _plain(**settings)
        stores = [CalibrationCache(), CalibrationCache()] if stored else []
        for cal, store in zip((fast, plain), stores):
            cal.attach_store(store)
        lookups = self._lookups()
        assert [fast.threshold(*key) for key in lookups] == [
            plain.threshold(*key) for key in lookups
        ]
        assert fast.cache_stats == plain.cache_stats
        assert fast.cache_stats[1] < len(lookups)  # repeats did hit
        if stored:
            assert stores[0].stats() == stores[1].stats()

    def test_a_store_fills_a_fresh_calibrator(self):
        store = CalibrationCache()
        first = ThresholdCalibrator(n_sets=30, seed=8)
        first.attach_store(store)
        lookups = self._lookups(n=60)
        expected = [first.threshold(*key) for key in lookups]
        second = ThresholdCalibrator(n_sets=30, seed=8)
        second.attach_store(store)
        assert [second.threshold(*key) for key in lookups] == expected
        assert second.cache_stats[1] == 0

    @pytest.mark.parametrize("p_quantum", [0.0, 0.01])
    def test_memos_stay_bounded(self, monkeypatch, p_quantum):
        # Fig. 9-sized k: every rate of a long history is its own key
        # with p_quantum=0, so only the bound keeps the memo finite
        monkeypatch.setattr(calibration, "_MAX_RAW", 64)
        settings = dict(n_sets=16, p_quantum=p_quantum, seed=4)
        fast, plain = ThresholdCalibrator(**settings), _plain(**settings)
        k = 80_000
        goods = np.random.default_rng(5).integers(700_000, 800_000, size=300)
        for g in goods.tolist() + goods[:50].tolist():
            p = g / (10 * k)
            assert fast.threshold(10, k, p) == plain.threshold(10, k, p)
            assert len(fast._raw) <= 64 and len(fast._p_keys) <= 64
        assert fast.cache_stats == plain.cache_stats


class TestPercentile:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=50),
        confidence=st.floats(0.01, 0.99),
    )
    def test_matches_numpy_quantile(self, values, confidence):
        assert percentile_threshold(values, confidence) == float(
            np.quantile(values, confidence)
        )
