"""Micro-benchmarks of the hot paths behind every experiment.

These are not figures from the paper; they guard the constants that make
the strategic-attacker loops tractable (one behavior test per simulated
transaction, plus a look-ahead).
"""

import numpy as np
import pytest

from repro.cluster import ClusterNode, ReplicaBatch
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest, fold_cold_batch
from repro.core.testing import SingleBehaviorTest
from repro.core.two_phase import Assessor
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import FeedbackBatch, StringTable
from repro.p2p.network import SimulatedNetwork
from repro.serve import AssessmentService
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


@pytest.fixture(scope="module")
def honest_histories():
    """32 honest histories of 120-400 events at rates 0.80-0.99, the
    shape of the histories a serving request re-judges."""
    rng = np.random.default_rng(29)
    sizes = rng.integers(120, 401, size=32)
    rates = 0.80 + 0.19 * rng.random(32)
    return [
        TransactionHistory.from_outcomes(
            generate_honest_outcomes(int(n), float(p), seed=i), server=f"s{i}"
        )
        for i, (n, p) in enumerate(zip(sizes, rates))
    ]


@pytest.mark.parametrize("histories", [1, 2, 4, 8, 16, 32])
def test_fold_cold_batch_vs_scalar(benchmark, honest_histories, histories):
    """One ``fold_cold_batch`` call against one ``test`` per history,
    with every threshold already calibrated.

    Both run the same suffix walk, over all the histories at once or
    one history per call.  The benchmark times the batch; ``extra_info``
    holds both sides' best per-call time over alternating repeats and
    ``speedup`` (per-history calls over batch).
    """
    import time

    tester = MultiBehaviorTest(CONFIG, CALIBRATOR)
    batch = honest_histories[:histories]

    def scalar():
        return [tester.test(history) for history in batch]

    def batched():
        return fold_cold_batch(batch, tester)

    assert batched() == scalar()  # and warms the calibrator
    best = {"batch_s": float("inf"), "scalar_s": float("inf")}
    for _ in range(100):
        for side, run in (("batch_s", batched), ("scalar_s", scalar)):
            start = time.perf_counter()
            run()
            best[side] = min(best[side], time.perf_counter() - start)
    benchmark.extra_info.update(best, speedup=best["scalar_s"] / best["batch_s"])
    benchmark(batched)


def test_fold_cold_batch_late_run(benchmark):
    """16 warm histories of 1,000-5,000 outcomes, the batch a
    long-running server re-judges once its hot servers have grown: about
    700 suffix rounds per call, every threshold already calibrated.
    ``extra_info`` holds the rounds judged per call."""
    rng = np.random.default_rng(37)
    batch = []
    for i, (n, p) in enumerate(zip(rng.integers(1000, 5001, 16), 0.80 + 0.19 * rng.random(16))):
        outcomes = generate_honest_outcomes(int(n), float(p), seed=100 + i)
        if i % 10 == 9:
            outcomes[-20:] = 0  # one in ten ends with a run of failures
        batch.append(outcomes)
    tester = MultiBehaviorTest(CONFIG, CALIBRATOR)
    reports = fold_cold_batch(batch, tester)
    assert reports == [tester.test(history) for history in batch]
    benchmark.extra_info["rounds"] = sum(report.n_rounds for report in reports)
    benchmark(fold_cold_batch, batch, tester)


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


@pytest.mark.parametrize("events, servers", [(16, 4), (2000, 800)])
def test_replica_apply_events(benchmark, events, servers):
    """One replica folding one write message: 16 events over 4 servers
    (a round's message) and 2,000 over 800 (a fleet ingest batch), each
    message built as the coordinator builds it and each server's live
    history registered with the replica's service."""
    rng = np.random.default_rng(7)
    names = [f"server-{i:05d}" for i in range(servers)]
    clocks = np.zeros(servers)

    def message():
        feedbacks = []
        for s in rng.integers(0, servers, size=events).tolist():
            clocks[s] += 1.0
            feedbacks.append(
                Feedback(
                    time=float(clocks[s]),
                    server=names[s],
                    client=f"client-{int(rng.integers(0, 500)):03d}",
                    rating=Rating.POSITIVE if rng.random() < 0.9 else Rating.NEGATIVE,
                )
            )
        servers_in = sorted({fb.server for fb in feedbacks})
        (batch,) = ReplicaBatch.split(feedbacks, [servers_in])
        return batch

    network = SimulatedNetwork(name="micro")
    node = ClusterNode("replica", network, config=AssessorConfig())
    for _ in range(3):
        node.apply_events(message())
    benchmark.pedantic(
        node.apply_events,
        setup=lambda: ((message(),), {}),
        rounds=200 if events < 100 else 20,
        iterations=1,
    )


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_ledger_record_per_event(benchmark, backend, tmp_path):
    """``FeedbackLedger.record`` for known servers, one event at a time:
    500 servers each with a live history (as a serving engine holds
    them), blocks of 1,000 events built outside the timing.
    ``extra_info["us_per_event"]`` is the median block time per event."""
    block, n_servers = 1000, 500
    rng = np.random.default_rng(31)
    names = [f"server-{i:05d}" for i in range(n_servers)]
    clients = [f"client-{i:03d}" for i in range(500)]
    clocks = np.zeros(n_servers)

    def events():
        feedbacks = []
        picks = rng.integers(0, n_servers, size=block).tolist()
        who = rng.integers(0, len(clients), size=block).tolist()
        goods = (rng.random(block) < 0.9).tolist()
        for s, c, good in zip(picks, who, goods):
            clocks[s] += 1.0
            feedbacks.append(
                Feedback(
                    time=float(clocks[s]),
                    server=names[s],
                    client=clients[c],
                    rating=Rating.POSITIVE if good else Rating.NEGATIVE,
                )
            )
        return feedbacks

    options = {"path": str(tmp_path / "led.bin")} if backend == "mmap" else {}
    ledger = FeedbackLedger(backend=backend, **options)
    for _ in range(20):
        ledger.record_many(events())
    for name in names:
        ledger.history(name)
    assert ledger.servers() == set(names)

    import time

    times = []

    def fold(feedbacks):
        record = ledger.record
        start = time.perf_counter()
        for feedback in feedbacks:
            record(feedback)
        times.append(time.perf_counter() - start)

    benchmark.pedantic(
        fold, setup=lambda: ((events(),), {}), rounds=60, iterations=1
    )
    ledger.close()
    benchmark.extra_info["us_per_event"] = float(np.median(times)) / block * 1e6


def test_attach_ledger_bulk(benchmark, tmp_path):
    """``AssessmentService`` attaching to a freshly opened mmap ledger of
    the cold-start shape (2,400 servers, 120-360 events each, about
    580k events): every history comes from one server-sorted pass, and
    no per-server row list is built.  Each round opens the file outside
    the timing; ``extra_info["attach_ms"]`` is the median attach."""
    rng = np.random.default_rng(41)
    n = 2400
    lengths = rng.integers(120, 361, size=n)
    total = int(lengths.sum())
    path = str(tmp_path / "cold.ledger")
    with FeedbackLedger(backend="mmap", path=path) as ledger:
        ledger.record_batch(
            FeedbackBatch(
                times=np.concatenate([np.arange(k, dtype=np.float64) for k in lengths]),
                servers=np.repeat([f"server-{i:05d}" for i in range(n)], lengths),
                clients=np.char.add(
                    "client-", rng.integers(0, 1000, size=total).astype("U4")
                ),
                ratings=(rng.random(total) < 0.9).astype(np.uint8),
            )
        )
    assessor = Assessor.from_config(AssessorConfig())
    opened = []

    def setup():
        while opened:
            opened.pop().close()
        opened.append(FeedbackLedger(backend="mmap", path=path))
        return (assessor,), {"ledger": opened[-1]}

    import time

    times = []

    def attach(assessor, ledger):
        start = time.perf_counter()
        service = AssessmentService(assessor, ledger=ledger)
        times.append(time.perf_counter() - start)
        return service

    service = benchmark.pedantic(attach, setup=setup, rounds=7, iterations=1)
    assert len(service) == n and not opened[-1].store._rows_by_server
    opened.pop().close()
    benchmark.extra_info["attach_ms"] = float(np.median(times)) * 1e3
