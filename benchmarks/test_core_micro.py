"""Micro-benchmarks of the hot paths behind every experiment.

These are not figures from the paper; they guard the constants that make
the strategic-attacker loops tractable (one behavior test per simulated
transaction, plus a look-ahead).
"""

import numpy as np
import pytest

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest
from repro.core.testing import SingleBehaviorTest
from repro.feedback.history import TransactionHistory
from repro.feedback.store import StringTable
from repro.stats.binomial import binomial_pmf
from repro.trust.weighted import WeightedTrust

CONFIG = BehaviorTestConfig()
CALIBRATOR = ThresholdCalibrator(seed=2008)
HISTORY_N = 1000


@pytest.fixture(scope="module")
def outcomes():
    return generate_honest_outcomes(HISTORY_N, 0.95, seed=1)


def test_single_behavior_test_1k(benchmark, outcomes):
    test_ = SingleBehaviorTest(CONFIG, CALIBRATOR)
    test_.test(outcomes)
    benchmark(test_.test, outcomes)


def test_multi_behavior_test_1k(benchmark, outcomes):
    test_ = MultiBehaviorTest(CONFIG, CALIBRATOR)
    test_.test(outcomes)
    benchmark(test_.test, outcomes)


@pytest.mark.parametrize("n, n_rounds", [(60, 1), (400, 8)])
def test_multi_behavior_test_short(benchmark, n, n_rounds):
    """Short histories: the per-call cost a cluster's 48-81 event
    histories pay, where most calls judge a single suffix round."""
    short = generate_honest_outcomes(n, 0.95, seed=1)
    test_ = MultiBehaviorTest(CONFIG, CALIBRATOR)
    assert test_.test(short).n_rounds == n_rounds
    benchmark(test_.test, short)


def test_threshold_calibration_cold(benchmark):
    """One uncached Monte-Carlo calibration (400 sample sets)."""

    def calibrate():
        calibrator = ThresholdCalibrator(n_sets=400, seed=3)
        return calibrator.threshold(10, 100, 0.95)

    benchmark(calibrate)


def test_threshold_calibration_cached(benchmark):
    CALIBRATOR.threshold(10, 100, 0.95)
    benchmark(CALIBRATOR.threshold, 10, 100, 0.95)


def test_binomial_pmf(benchmark):
    benchmark(binomial_pmf, 10, 0.95)


def test_history_append_and_speculate(benchmark):
    history = TransactionHistory.from_outcomes([1] * 100)

    def step():
        with history.speculate(0):
            pass
        history.append_outcome(1)

    benchmark(step)


def test_trust_tracker_update(benchmark):
    tracker = WeightedTrust(0.5).tracker()
    benchmark(tracker.update, 1)


def test_collusion_reorder_10k_feedbacks(benchmark):
    """The issuer-grouped reordering dominates collusion-resilient testing."""
    from repro.core.collusion import reordered_outcomes
    from repro.feedback.records import Feedback, Rating

    rng = np.random.default_rng(4)
    feedbacks = [
        Feedback(
            time=float(t),
            server="s",
            client=f"c{int(rng.integers(0, 200))}",
            rating=Rating.POSITIVE if rng.random() < 0.95 else Rating.NEGATIVE,
        )
        for t in range(10_000)
    ]
    outcomes = benchmark(reordered_outcomes, feedbacks)
    assert outcomes.size == 10_000


def test_changepoint_detection_100k(benchmark):
    """Binary segmentation must stay linear-ish for ecosystem-scale histories."""
    from repro.stats.changepoint import detect_change_points

    trace = np.concatenate(
        [
            generate_honest_outcomes(50_000, 0.95, seed=5),
            generate_honest_outcomes(50_000, 0.8, seed=6),
        ]
    )
    splits = benchmark(detect_change_points, trace)
    assert len(splits) >= 1
    assert abs(splits[0] - 50_000) < 2_000


def test_multi_testing_audit_disabled_overhead(outcomes):
    """Auditing off must cost one module-attribute read on the hot path.

    Guard the bound directly: timed side-by-side, the audit-gated test
    must stay within noise of itself (the gate is a single ``if`` on a
    module global), and the audit module must allocate nothing.
    """
    import time
    import tracemalloc

    from repro.obs import audit

    test_ = MultiBehaviorTest(CONFIG, CALIBRATOR)
    test_.test(outcomes)  # warm calibration + pmf buffers
    assert not audit.enabled

    tracemalloc.start()
    for _ in range(100):
        test_.test(outcomes)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    audit_allocs = [
        stat
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith("obs/audit.py")
    ]
    assert not audit_allocs, f"disabled audit allocated: {audit_allocs}"

    def timed(repeats=60):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            test_.test(outcomes)
            best = min(best, time.perf_counter() - start)
        return best

    baseline = timed()
    disabled_again = timed()
    # identical code path twice: bounds the timing noise of this machine;
    # a real regression (record building while disabled) is >2x
    ratio = disabled_again / baseline
    assert 0.25 < ratio < 4.0, f"timing too unstable to trust: {ratio:.2f}x"


def test_multi_testing_sampled_audit_overhead(outcomes):
    """1-in-N sampling keeps audit cost bounded on the multi-testing path."""
    import time

    from repro.obs import audit

    test_ = MultiBehaviorTest(CONFIG, CALIBRATOR)
    test_.test(outcomes)

    def timed(repeats=60):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            test_.test(outcomes)
            best = min(best, time.perf_counter() - start)
        return best

    disabled = timed()
    with audit.audit_session(sample_every=64, include_pmfs=False) as trail:
        sampled = timed()
    assert trail.decisions_seen == 60
    assert len(trail.records) <= 1
    # best-of-60 with 1-in-64 sampling: nearly every timed run skips
    # record building, so the floor must stay close to the disabled floor
    assert sampled < disabled * 3.0, (
        f"sampled auditing too slow: {sampled:.6f}s vs {disabled:.6f}s disabled"
    )


@pytest.fixture(scope="module")
def cold_start_ids():
    """Id columns shaped like perfbench's cold_start cycle: 2,400
    servers arriving grouped (120-360 events each), clients drawn from
    1,000 ids per event; about 580k rows."""
    rng = np.random.default_rng([1, 3, 0])
    lengths = rng.integers(120, 361, size=2400)
    servers = np.repeat(np.array([f"server-{i:05d}" for i in range(2400)]), lengths)
    client_ids = rng.integers(0, 1000, size=servers.size)
    return {"servers": servers, "clients": np.char.add("client-", client_ids.astype("U4"))}


@pytest.mark.parametrize("path", ["hash", "sort"])
@pytest.mark.parametrize("column", ["servers", "clients"])
def test_intern_many(benchmark, cold_start_ids, column, path):
    """Interning one cold_start id column into a fresh table: the
    verified-hash grouping against the string-sort fallback."""
    values = cold_start_ids[column]

    def intern():
        table = StringTable()
        if path == "hash":
            return table.intern_many(values)
        return table.intern_unique(*np.unique(values, return_inverse=True))

    codes, fresh = intern()
    assert codes.size == values.size and len(fresh) == np.unique(values).size
    benchmark(intern)
