"""Columnar-path equivalence smoke: cheap enough for the default CI job.

The heavyweight throughput acceptance lives in ``test_ingest_scale.py``;
this file is the fast correctness companion that every CI run executes:
a small population recorded once, then checked end-to-end against the
event stream itself — backend state (histories, feedback graph) against
one ``TransactionHistory`` per server fed by ``append_feedback`` and a
``Counter`` of the graph, and verdicts (batched fold, vectorized
service) against the scalar tester and the per-call two-phase assessor
on those histories — on the columnar and mmap backends.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.multi_testing import MultiBehaviorTest, fold_cold_batch
from repro.core.two_phase import TwoPhaseAssessor
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.serve import AssessmentService

CONFIG = BehaviorTestConfig(calibration_sets=50)
SEED = 97


def _stream(n_servers=40, seed=SEED):
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n_servers):
        sid = f"server-{i:03d}"
        rate = 0.5 + 0.49 * rng.random()
        for t in range(int(rng.integers(30, 150))):
            events.append(
                Feedback(
                    time=float(t),
                    server=sid,
                    client=f"client-{rng.integers(0, 12)}",
                    rating=Rating.POSITIVE if rng.random() < rate else Rating.NEGATIVE,
                )
            )
    return events


@pytest.fixture(scope="module")
def events():
    return _stream()


@pytest.fixture(scope="module")
def histories(events):
    """One history per server, fed by ``append_feedback``."""
    replayed = {}
    for fb in events:
        if fb.server not in replayed:
            replayed[fb.server] = TransactionHistory(fb.server)
        replayed[fb.server].append_feedback(fb)
    return replayed


def _ledger(backend, tmp_path, events):
    kwargs = {"path": str(tmp_path / "led.bin")} if backend == "mmap" else {}
    led = FeedbackLedger(backend=backend, **kwargs)
    led.record_many(events)
    return led


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_backend_state_matches_the_stream(backend, tmp_path, events, histories):
    led = _ledger(backend, tmp_path, events)
    counts = Counter((fb.client, fb.server, fb.rating) for fb in events)
    graph = {
        (c, s): (counts[c, s, Rating.POSITIVE], counts[c, s, Rating.NEGATIVE])
        for c, s in dict.fromkeys((fb.client, fb.server) for fb in events)
    }
    assert led.servers() == set(histories)
    assert list(led.feedback_graph().items()) == list(graph.items())
    for sid, history in histories.items():
        assert np.array_equal(led.history(sid).outcomes(), history.outcomes())


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_kernel_verdicts_match_scalar(backend, tmp_path, events):
    led = _ledger(backend, tmp_path, events)
    servers = sorted(led.servers())

    def tester():
        return MultiBehaviorTest(
            CONFIG,
            ThresholdCalibrator(
                confidence=CONFIG.confidence,
                n_sets=CONFIG.calibration_sets,
                distance=CONFIG.distance,
                p_quantum=CONFIG.p_quantum,
                seed=31,
            ),
        )

    scalar = tester()
    histories = [led.history(sid) for sid in servers]
    expected = [scalar.test(h) for h in histories]
    folded = fold_cold_batch([h.outcomes() for h in histories], tester())
    assert folded == expected


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_vectorized_service_matches_per_call(backend, tmp_path, events, histories):
    config = AssessorConfig(test_config=CONFIG)
    vector = AssessmentService(config=config, vectorized=True)
    vector.attach_ledger(_ledger(backend, tmp_path, events))
    per_call = TwoPhaseAssessor.from_config(config)
    ids = sorted(histories)
    assert vector.assess_many(ids) == {
        sid: per_call.assess(histories[sid]) for sid in ids
    }
    assert vector.n_vector_prefolds == 1
