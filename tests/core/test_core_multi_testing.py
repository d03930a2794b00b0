"""Tests for repro.core.multi_testing (Scheme 2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest


@pytest.fixture()
def multi(paper_config, shared_calibrator):
    return MultiBehaviorTest(paper_config, shared_calibrator)


@pytest.fixture()
def multi_all(paper_config, shared_calibrator):
    return MultiBehaviorTest(paper_config, shared_calibrator, collect_all=True)


class TestSuffixSchedule:
    def test_lengths(self, multi):
        # n=200, step=50, floor=40: 200, 150, 100, 50
        assert multi.config.suffix_lengths(200) == [200, 150, 100, 50]

    def test_short_history(self, multi):
        assert multi.config.suffix_lengths(39) == []
        assert multi.config.suffix_lengths(40) == [40]

    def test_negative_raises(self, multi):
        with pytest.raises(ValueError):
            multi.config.suffix_lengths(-1)

    def test_custom_step(self, shared_calibrator):
        config = BehaviorTestConfig(multi_step=100)
        test_ = MultiBehaviorTest(config, shared_calibrator)
        assert test_.config.suffix_lengths(250) == [250, 150, 50]


class TestVerdicts:
    def test_honest_history_passes(self, multi):
        report = multi.test(generate_honest_outcomes(1000, 0.95, seed=1))
        assert report.passed
        assert report.first_failure is None

    def test_hibernating_burst_caught(self, multi):
        # this is exactly the attack the single test misses (see
        # test_core_single_testing) — multi-testing's short suffixes see it
        trace = np.concatenate(
            [generate_honest_outcomes(4000, 0.95, seed=2), np.zeros(20, dtype=np.int8)]
        )
        report = multi.test(trace)
        assert not report.passed
        length, verdict = report.first_failure
        assert not verdict.passed
        assert length <= 4020

    def test_rounds_ordered_longest_first(self, multi_all):
        report = multi_all.test(generate_honest_outcomes(300, 0.9, seed=3))
        lengths = [length for length, _ in report.rounds]
        assert lengths == sorted(lengths, reverse=True)
        assert lengths[0] == 300

    def test_insufficient_history(self, multi):
        report = multi.test(np.ones(30, dtype=np.int8))
        assert report.passed  # on_insufficient="pass"
        assert report.n_rounds == 1
        assert report.rounds[0][1].insufficient

    def test_worst_margin(self, multi_all):
        report = multi_all.test(generate_honest_outcomes(400, 0.95, seed=4))
        margins = [v.margin for _, v in report.rounds if not v.insufficient]
        assert report.worst_margin == pytest.approx(min(margins))

    def test_early_stop_on_failure(self, paper_config, shared_calibrator):
        trace = np.concatenate(
            [generate_honest_outcomes(500, 0.95, seed=5), np.zeros(30, dtype=np.int8)]
        )
        eager = MultiBehaviorTest(paper_config, shared_calibrator, collect_all=False)
        full = MultiBehaviorTest(paper_config, shared_calibrator, collect_all=True)
        eager_report = eager.test(trace)
        full_report = full.test(trace)
        assert not eager_report.passed and not full_report.passed
        assert eager_report.n_rounds <= full_report.n_rounds


class TestStrategyParity:
    """Naive O(n^2) and optimized O(n) must produce identical verdicts."""

    def _pair(self, config, calibrator):
        return (
            MultiBehaviorTest(config, calibrator, strategy="naive", collect_all=True),
            MultiBehaviorTest(config, calibrator, strategy="optimized", collect_all=True),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_on_honest_histories(self, paper_config, shared_calibrator, seed):
        naive, fast = self._pair(paper_config, shared_calibrator)
        outcomes = generate_honest_outcomes(700, 0.93, seed=seed)
        self._assert_same(naive.test(outcomes), fast.test(outcomes))

    def test_parity_on_attack_histories(self, paper_config, shared_calibrator):
        naive, fast = self._pair(paper_config, shared_calibrator)
        trace = np.concatenate(
            [generate_honest_outcomes(600, 0.95, seed=9), np.zeros(25, dtype=np.int8)]
        )
        self._assert_same(naive.test(trace), fast.test(trace))

    @given(
        n=st.integers(min_value=40, max_value=400),
        p=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_parity(self, paper_config, shared_calibrator, n, p, seed):
        naive, fast = self._pair(paper_config, shared_calibrator)
        outcomes = generate_honest_outcomes(n, p, seed=seed)
        self._assert_same(naive.test(outcomes), fast.test(outcomes))

    def test_parity_with_step_not_multiple_of_window(self, shared_calibrator):
        # step 7 against window 10: consecutive suffix lengths often share
        # the same window set, exercising the verdict-reuse path
        config = BehaviorTestConfig(multi_step=7)
        naive, fast = self._pair(config, shared_calibrator)
        outcomes = generate_honest_outcomes(300, 0.9, seed=77)
        self._assert_same(naive.test(outcomes), fast.test(outcomes))

    @staticmethod
    def _assert_same(a, b):
        assert a.passed == b.passed
        assert a.n_rounds == b.n_rounds
        for (la, va), (lb, vb) in zip(a.rounds, b.rounds):
            assert la == lb
            assert va.passed == vb.passed
            assert va.n_windows == vb.n_windows
            assert va.p_hat == pytest.approx(vb.p_hat, abs=1e-12)
            assert va.distance == pytest.approx(vb.distance, abs=1e-9)
            assert va.threshold == pytest.approx(vb.threshold, abs=1e-12)


class TestConstruction:
    def test_rejects_unknown_strategy(self, paper_config):
        with pytest.raises(ValueError):
            MultiBehaviorTest(paper_config, strategy="quantum")

    def test_rejects_oldest_alignment(self):
        config = BehaviorTestConfig(align="oldest")
        with pytest.raises(ValueError, match="recent"):
            MultiBehaviorTest(config)

    def test_exposes_strategy(self, multi):
        assert multi.strategy == "optimized"
