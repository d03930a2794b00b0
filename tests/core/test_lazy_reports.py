"""Walk-judged reports build their round verdicts on first read.

:func:`repro.core.multi_testing.fold_cold_batch` and the optimized
``MultiBehaviorTest.test`` fill a report's aggregate fields from the
walk's decisive row and leave ``rounds`` to be built when it is first
read.  Such a report must be indistinguishable from the eager report
``suffix_report(rounds)`` over the same walk's rounds: equal before and
after ``rounds`` is read, and equal under ``hash``, ``repr``, pickling,
copying and the ``dataclasses`` helpers while still unread.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.multi_testing import (
    MultiBehaviorTest,
    fold_cold_batch,
    insufficient_report,
    run_suffix_rounds,
    suffix_report,
)
from repro.core.verdict import MultiTestReport, ReorderTrace
from repro.feedback.windows import window_counts

AGGREGATES = [f.name for f in dataclasses.fields(MultiTestReport) if f.name != "rounds"]

#: every way to look at a report without asking for ``rounds`` first
VIEWS = {
    "eq": lambda r: r,
    "hash": hash,
    "repr": repr,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
    "replace-reorder": lambda r: dataclasses.replace(r, reorder=ReorderTrace(3, 1, (3,))),
    "asdict": dataclasses.asdict,
}


def _unread(report: MultiTestReport) -> bool:
    return not isinstance(vars(report)["rounds"], tuple)


def _eager(outcomes, tester) -> MultiTestReport:
    """The report as built before rounds were built on read."""
    config, m = tester.config, tester.config.window_size
    lengths = config.suffix_lengths(outcomes.size)
    if not lengths:
        return insufficient_report(config, outcomes.size)
    rounds = run_suffix_rounds(
        window_counts(outcomes, m, align="recent"),
        lengths,
        window_size=m,
        distance_name=config.distance,
        calibrator=tester.calibrator,
        collect_all=tester.collect_all,
    )
    return suffix_report(rounds[::-1])


def _outcomes(seed: int, n: int, p: float, burst: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    outcomes = (rng.random(n) < p).astype(np.int64)
    if burst:
        outcomes[max(0, n - burst) :] = 0
    return outcomes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(0, 700), min_size=1, max_size=4),
    p=st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]),
    burst=st.sampled_from([0, 5, 60]),
    window_size=st.sampled_from([1, 3, 10, 13]),
    multi_step=st.integers(1, 120),
    min_windows=st.integers(1, 6),
    collect_all=st.booleans(),
    distance=st.sampled_from(["l1", "ks"]),
)
def test_lazy_reports_equal_eager_reports(
    seed, sizes, p, burst, window_size, multi_step, min_windows, collect_all, distance
):
    config = BehaviorTestConfig(
        window_size=window_size,
        multi_step=multi_step,
        min_windows=min_windows,
        distance=distance,
    )
    calibrator = ThresholdCalibrator(n_sets=30, distance=distance, seed=5)
    tester = MultiBehaviorTest(config, calibrator, collect_all=collect_all)
    histories = [_outcomes(seed + i, n, p, burst) for i, n in enumerate(sizes)]
    eager = [_eager(outcomes, tester) for outcomes in histories]

    def batch():
        return fold_cold_batch(histories, tester)

    def scalar():
        return [tester.test(outcomes) for outcomes in histories]

    for build in (batch, scalar):
        for lazy, expected in zip(build(), eager):
            if expected.insufficient:
                assert lazy == expected
                continue
            assert _unread(lazy)
            assert [getattr(lazy, name) for name in AGGREGATES] == [
                getattr(expected, name) for name in AGGREGATES
            ]
            assert _unread(lazy)  # the aggregate fields build nothing
            assert lazy == expected
            rounds = lazy.rounds
            assert isinstance(rounds, tuple) and lazy.rounds is rounds
            assert rounds == expected.rounds and lazy == expected
        for name, view in VIEWS.items():
            for lazy, expected in zip(build(), eager):
                assert view(lazy) == view(expected), name


def test_consecutive_rounds_with_one_window_set_share_a_verdict():
    # a step shorter than a window: neighbouring suffixes often hold the
    # same windows, and their rounds share one verdict object, as built
    config = BehaviorTestConfig(window_size=10, multi_step=3)
    tester = MultiBehaviorTest(config, ThresholdCalibrator(n_sets=30, seed=5))
    outcomes = _outcomes(1, 400, 0.95, 0)
    for report in (tester.test(outcomes), fold_cold_batch([outcomes], tester)[0]):
        rounds = report.rounds
        for (_, a), (_, b) in zip(rounds, rounds[1:]):
            assert (a is b) == (a.n_windows == b.n_windows)
        assert any(a is b for (_, a), (_, b) in zip(rounds, rounds[1:]))


def test_constructor_still_stores_rounds():
    verdict = fold_cold_batch([_outcomes(2, 300, 0.9, 0)], MultiBehaviorTest())[0]
    built = MultiTestReport(passed=True, rounds=verdict.rounds)
    assert vars(built)["rounds"] is verdict.rounds is built.rounds
    assert MultiTestReport.rounds == ()
