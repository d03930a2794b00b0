"""Bit-identity of the one-pass suffix walk with the round-by-round walk.

:func:`repro.core.multi_testing.run_suffix_rounds` computes every round's
histogram, ``p_hat``, expected pmf and distance in one numpy pass, and
:func:`~repro.core.multi_testing.fold_cold_batch` does the same for many
histories at once.  The oracle below is the walk they replaced: an
incremental histogram that absorbs each round's entering windows, judged
one round at a time.  All must agree on every round's numbers with
``==`` and must consult the calibrator with the same key sequence, so
the one-pass walks calibrate no threshold the round-by-round walk
does not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.multi_testing import (
    MultiBehaviorTest,
    fold_cold_batch,
    run_suffix_rounds,
)
from repro.core.verdict import BehaviorVerdict
from repro.feedback.windows import window_counts
from repro.stats.binomial import binomial_pmf
from repro.stats.distances import get_distance
from repro.stats.empirical import IncrementalHistogram


def _oracle_rounds(counts, lengths, *, m, distance_name, calibrator, collect_all):
    """The round-by-round walk: extend a histogram, judge, repeat."""
    histogram = IncrementalHistogram(m + 1)
    rounds, windows_in, verdict = [], 0, None
    for length in reversed(lengths):  # shortest suffix first
        want = length // m
        if want > windows_in:
            histogram.add_block(counts[counts.size - want : counts.size - windows_in])
            windows_in = want
            k, p_hat = histogram.n_samples, histogram.mean_rate(m)
            expected, observed = binomial_pmf(m, p_hat), histogram.pmf()
            distance = float(np.abs(observed - expected).sum())
            if distance_name != "l1":
                distance = float(get_distance(distance_name)(observed, expected))
            threshold = calibrator.threshold(m, k, p_hat)
            verdict = BehaviorVerdict(
                passed=distance <= threshold,
                distance=distance,
                threshold=float(threshold),
                p_hat=p_hat,
                n_windows=k,
                window_size=m,
                n_considered=k * m,
            )
        rounds.append((length, verdict))
        if not verdict.passed and not collect_all:
            break
    return rounds


class _Recording:
    """Calibrator wrapper that records every ``threshold`` consultation."""

    def __init__(self, inner: ThresholdCalibrator):
        self.inner = inner
        self.keys = []

    def threshold(self, m, k, p_hat):
        self.keys.append((m, k, p_hat))
        return self.inner.threshold(m, k, p_hat)

    def quantize_p(self, p):
        return self.inner.quantize_p(p)


def _fields(rounds):
    return [
        (length, v.passed, v.distance, v.threshold, v.p_hat, v.n_windows, v.n_considered)
        for length, v in rounds
    ]


def _outcomes(seed: int, n: int, p: float, burst: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    honest = (rng.random(n) < p).astype(np.int64)
    if burst:
        honest[max(0, n - burst) :] = 0  # a trailing run of failures
    return honest


def _assert_walks_agree(outcomes, config, collect_all):
    m = config.window_size
    tester = MultiBehaviorTest(config)
    lengths = tester.config.suffix_lengths(int(outcomes.size))
    if not lengths:
        return
    counts = window_counts(outcomes, m, align="recent")
    new_cal, old_cal = (
        _Recording(ThresholdCalibrator(n_sets=30, distance=config.distance, seed=5))
        for _ in range(2)
    )
    shared = dict(distance_name=config.distance, collect_all=collect_all)
    new = run_suffix_rounds(counts, lengths, window_size=m, calibrator=new_cal, **shared)
    old = _oracle_rounds(counts, lengths, m=m, calibrator=old_cal, **shared)
    assert _fields(new) == _fields(old)
    assert new_cal.keys == old_cal.keys


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(0, 2000),
    p=st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0]),
    burst=st.sampled_from([0, 0, 5, 20, 60]),
    window_size=st.sampled_from([1, 3, 10, 13]),
    multi_step=st.integers(1, 150),
    min_windows=st.integers(1, 6),
    collect_all=st.booleans(),
    distance=st.sampled_from(["l1", "ks"]),
)
def test_one_pass_walk_matches_round_by_round_oracle(
    seed, n, p, burst, window_size, multi_step, min_windows, collect_all, distance
):
    config = BehaviorTestConfig(
        window_size=window_size,
        multi_step=multi_step,
        min_windows=min_windows,
        distance=distance,
    )
    _assert_walks_agree(_outcomes(seed, n, p, burst), config, collect_all)


def test_single_round_history_matches_oracle():
    # the cluster's short histories: exactly one suffix round
    config = BehaviorTestConfig()
    for seed in range(20):
        outcomes = _outcomes(seed, 48 + seed, 0.9, burst=seed % 3 * 4)
        assert len(config.suffix_lengths(outcomes.size)) == 1
        _assert_walks_agree(outcomes, config, collect_all=False)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(0, 800), max_size=5),
    p=st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]),
    burst=st.sampled_from([0, 5, 60]),
    window_size=st.sampled_from([1, 3, 10, 13]),
    multi_step=st.integers(1, 150),
    min_windows=st.integers(1, 6),
    collect_all=st.booleans(),
    distance=st.sampled_from(["l1", "ks"]),
)
@example(  # a step shorter than a window: rounds repeat window sets
    seed=1, sizes=[300], p=0.9, burst=20, window_size=10, multi_step=3,
    min_windows=4, collect_all=True, distance="l1",
)
def test_batch_matches_round_by_round_oracle(
    seed, sizes, p, burst, window_size, multi_step, min_windows, collect_all, distance
):
    config = BehaviorTestConfig(
        window_size=window_size,
        multi_step=multi_step,
        min_windows=min_windows,
        distance=distance,
    )
    m, floor = window_size, config.min_transactions
    # one mixed batch: below the floor and at it, then whatever was drawn
    sizes = [floor - 1, floor] + sizes
    histories = [_outcomes(seed + i, n, p, burst) for i, n in enumerate(sizes)]
    new_cal, old_cal = (
        _Recording(ThresholdCalibrator(n_sets=30, distance=distance, seed=5))
        for _ in range(2)
    )
    tester = MultiBehaviorTest(config, new_cal, collect_all=collect_all)
    reports = fold_cold_batch(histories, tester)
    for outcomes, report in zip(histories, reports):
        lengths = config.suffix_lengths(outcomes.size)
        if not lengths:
            assert report.insufficient and report.rounds[0][0] == outcomes.size
            continue
        old = _oracle_rounds(
            window_counts(outcomes, m, align="recent"),
            lengths,
            m=m,
            distance_name=distance,
            calibrator=old_cal,
            collect_all=collect_all,
        )
        assert _fields(report.rounds[::-1]) == _fields(old)
    # the batch memoizes thresholds per (k, p_key): it consults each
    # shape once, at the walk's first consultation of that shape
    first_seen = {}
    for m_, k, p_hat in old_cal.keys:
        first_seen.setdefault((k, old_cal.quantize_p(p_hat)), (m_, k, p_hat))
    assert new_cal.keys == list(first_seen.values())
