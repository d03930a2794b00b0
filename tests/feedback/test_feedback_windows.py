"""Tests for repro.feedback.windows."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.feedback.windows import n_windows, usable_length, window_counts


class TestNWindows:
    def test_exact_multiple(self):
        assert n_windows(100, 10) == 10

    def test_remainder_dropped(self):
        assert n_windows(109, 10) == 10

    def test_too_short(self):
        assert n_windows(9, 10) == 0

    def test_usable_length(self):
        assert usable_length(109, 10) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            n_windows(10, 0)
        with pytest.raises(ValueError):
            n_windows(-1, 10)


class TestWindowCounts:
    def test_exact_windows(self):
        outcomes = np.array([1, 1, 0, 1] * 3)  # 3 windows of 4, each 3 good
        np.testing.assert_array_equal(window_counts(outcomes, 4), [3, 3, 3])

    def test_recent_alignment_drops_oldest(self):
        # 7 outcomes, m=3: recent alignment keeps the last 6
        outcomes = np.array([0, 1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(
            window_counts(outcomes, 3, align="recent"), [3, 0]
        )

    def test_oldest_alignment_drops_newest(self):
        outcomes = np.array([0, 1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(
            window_counts(outcomes, 3, align="oldest"), [2, 1]
        )

    def test_empty_when_too_short(self):
        assert window_counts(np.array([1, 0]), 3).size == 0

    def test_time_order_preserved(self):
        outcomes = np.concatenate([np.ones(10), np.zeros(10)]).astype(int)
        np.testing.assert_array_equal(window_counts(outcomes, 10), [10, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            window_counts(np.array([1, 0]), 0)
        with pytest.raises(ValueError):
            window_counts(np.array([1, 0]), 1, align="middle")
        with pytest.raises(ValueError):
            window_counts(np.eye(2), 1)

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), max_size=200),
        m=st.integers(min_value=1, max_value=20),
    )
    def test_property_counts_bounded_and_sum_preserved(self, bits, m):
        outcomes = np.asarray(bits, dtype=np.int8)
        counts = window_counts(outcomes, m, align="recent")
        assert counts.size == len(bits) // m
        assert ((counts >= 0) & (counts <= m)).all()
        # the counted region is exactly the most recent k*m outcomes
        k = counts.size
        assert counts.sum() == outcomes[len(bits) - k * m :].sum()

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=120),
        m=st.integers(min_value=1, max_value=15),
    )
    def test_property_alignments_agree_on_exact_multiples(self, bits, m):
        usable = (len(bits) // m) * m
        trimmed = np.asarray(bits[:usable], dtype=np.int8)
        if usable == 0:
            return
        np.testing.assert_array_equal(
            window_counts(trimmed, m, align="recent"),
            window_counts(trimmed, m, align="oldest"),
        )
