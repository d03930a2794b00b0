"""Bit-parity of the batched cold-path fold with the scalar tester.

:func:`repro.core.multi_testing.fold_cold_batch` must reproduce
``tester.test(history)`` *exactly* — same distances, same thresholds,
same decisive rounds — and must ask the calibrator for no threshold
the scalar path does not (its misses equal the scalar path's).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import multi_testing
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import (
    MultiBehaviorTest,
    fold_cold_batch,
    supports_vectorized,
)
from repro.core.testing import SingleBehaviorTest
from repro.feedback.history import TransactionHistory

CONFIG = BehaviorTestConfig(calibration_sets=50)


def _histories(seed=0, n=40):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:  # honest
            length = int(rng.integers(40, 200))
            out.append(generate_honest_outcomes(length, 0.9, seed=seed + i))
        elif kind == 1:  # failing rate drift
            length = int(rng.integers(40, 200))
            out.append((rng.random(length) < 0.5).astype(np.int64))
        elif kind == 2:  # short / insufficient
            out.append(np.ones(int(rng.integers(0, CONFIG.min_transactions)), dtype=np.int64))
        else:  # regime switch: honest then cheating
            half = int(rng.integers(20, 100))
            out.append(
                np.concatenate(
                    [
                        generate_honest_outcomes(half, 0.95, seed=seed + i),
                        (rng.random(half) < 0.4).astype(np.int64),
                    ]
                )
            )
    return out


def _calibrator():
    return ThresholdCalibrator(
        confidence=CONFIG.confidence,
        n_sets=CONFIG.calibration_sets,
        distance=CONFIG.distance,
        p_quantum=CONFIG.p_quantum,
        seed=777,
    )


class TestSupport:
    def test_supported_configuration(self):
        assert supports_vectorized(MultiBehaviorTest(CONFIG, _calibrator()))

    def test_naive_strategy_unsupported(self):
        tester = MultiBehaviorTest(CONFIG, _calibrator(), strategy="naive")
        assert not supports_vectorized(tester)
        with pytest.raises(ValueError, match="requires an optimized"):
            fold_cold_batch([np.ones(50, dtype=np.int64)], tester)

    def test_single_test_unsupported(self):
        assert not supports_vectorized(SingleBehaviorTest(CONFIG, _calibrator()))


class TestParity:
    @pytest.mark.parametrize("collect_all", [False, True])
    def test_verdict_for_verdict_shared_calibrator(self, collect_all):
        tester = MultiBehaviorTest(CONFIG, _calibrator(), collect_all=collect_all)
        histories = _histories()
        folded = fold_cold_batch(histories, tester)
        for history, report in zip(histories, folded):
            assert report == tester.test(history)

    @pytest.mark.parametrize(
        "collect_all, chunk_windows",
        [(False, None), (True, None), (False, 7), (True, 7)],
        ids=["False", "True", "False-chunk7", "True-chunk7"],
    )
    def test_order_parity_with_fresh_calibrators(
        self, collect_all, chunk_windows, monkeypatch
    ):
        """Independent same-seed calibrators give the batch and the
        scalar walk the same thresholds (each is a pure function of its
        key), and the batch asks for no threshold the scalar walk does
        not: its misses equal the walk's.  A 7-window chunk cap splits
        the batch into a pass per history; the threshold memo spans
        chunks, so the calibrator sees the same calls as in one pass."""
        histories = _histories(seed=3)

        def tester():
            return MultiBehaviorTest(CONFIG, _calibrator(), collect_all=collect_all)

        one_pass, scalar = tester(), tester()
        fold_cold_batch(histories, one_pass)
        if chunk_windows is not None:
            monkeypatch.setattr(multi_testing, "_CHUNK_WINDOWS", chunk_windows)
        chunked = tester()
        folded = fold_cold_batch(histories, chunked)
        assert folded == [scalar.test(history) for history in histories]
        assert chunked.calibrator.cache_stats == one_pass.calibrator.cache_stats
        assert chunked.calibrator.cache_stats[1] == scalar.calibrator.cache_stats[1]

    @pytest.mark.parametrize("distance", ["ks", "chi2"])
    def test_non_l1_distances(self, distance):
        config = CONFIG.with_(distance=distance)
        calibrator = ThresholdCalibrator(n_sets=50, distance=distance, seed=777)
        tester = MultiBehaviorTest(config, calibrator)
        histories = _histories(seed=9)
        folded = fold_cold_batch(histories, tester)
        assert folded == [tester.test(history) for history in histories]

    def test_mixed_history_inputs(self):
        tester = MultiBehaviorTest(CONFIG, _calibrator())
        arrays = _histories(seed=4)
        mixed = [
            TransactionHistory.from_outcomes(h) if i % 2 else h.astype(bool)
            for i, h in enumerate(arrays)
        ]
        assert fold_cold_batch(mixed, tester) == [tester.test(h) for h in arrays]


class _Asking(ThresholdCalibrator):
    """Records the ``(k, p_key)`` shape of every consultation."""

    def __init__(self):
        super().__init__(n_sets=CONFIG.calibration_sets, seed=5)
        self.asked = []

    def threshold(self, m, k, p_hat):
        self.asked.append((k, self.quantize_p(p_hat)))
        return super().threshold(m, k, p_hat)


def test_batch_consults_each_shape_once():
    """Two histories whose longest rounds share ``(k, p_key)`` but not
    ``p_hat``: the scalar walks ask for that shape twice, the batch
    once, and both get the same threshold."""
    worse = np.ones(200, dtype=np.int64)
    worse[::10] = 0
    better = worse.copy()
    better[0] = 1  # the oldest window only: shorter suffixes agree
    shape = (20, 0.9)
    scalar, batch = _Asking(), _Asking()
    assert batch.quantize_p(0.905) == batch.quantize_p(0.9) == 0.9
    expected = [
        MultiBehaviorTest(CONFIG, scalar, collect_all=True).test(h)
        for h in (better, worse)
    ]
    tester = MultiBehaviorTest(CONFIG, batch, collect_all=True)
    assert fold_cold_batch([better, worse], tester) == expected
    assert scalar.asked.count(shape) == 2
    assert batch.asked.count(shape) == 1
    assert len(batch.asked) == len(set(batch.asked))


class TestSeeds:
    def test_insufficient_histories_report_like_scalar(self):
        tester = MultiBehaviorTest(CONFIG, _calibrator())
        short = [np.array([], dtype=np.int64), np.ones(5, dtype=np.int64)]
        folded = fold_cold_batch(short, tester)
        for history, report in zip(short, folded):
            assert report == tester.test(history)
            assert report.insufficient

    def test_empty_batch(self):
        tester = MultiBehaviorTest(CONFIG, _calibrator())
        assert fold_cold_batch([], tester) == []


def _single(history):
    return SingleBehaviorTest(CONFIG, _calibrator()).test(history)


def _multi(strategy):
    return lambda history: MultiBehaviorTest(CONFIG, _calibrator(), strategy).test(history)


def _batch(history):
    # a valid history first: one bad history fails the whole batch
    valid = np.ones(60, dtype=np.int64)
    return fold_cold_batch([valid, history], MultiBehaviorTest(CONFIG, _calibrator()))


@pytest.mark.parametrize(
    "path",
    [_single, _multi("naive"), _multi("optimized"), _batch],
    ids=["single", "naive", "optimized", "batch"],
)
@pytest.mark.parametrize(
    "bad",
    [
        np.full(60, 2, dtype=np.int64),
        np.full(60, -1, dtype=np.int8),
        np.full(60, 0.5),
        np.concatenate([np.ones(59), [np.nan]]),
    ],
    ids=["two", "minus-one", "half", "nan"],
)
def test_one_outcome_contract(path, bad):
    """Every path rejects a non-0/1 raw history with the ledger's error."""
    with pytest.raises(ValueError, match=r"outcomes must be binary \(0/1\)"):
        TransactionHistory.from_outcomes(bad)
    with pytest.raises(ValueError, match=r"outcomes must be binary \(0/1\)"):
        path(bad)
