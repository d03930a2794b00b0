"""Columnar-path equivalence smoke: cheap enough for the default CI job.

The heavyweight throughput acceptance lives in ``test_ingest_scale.py``;
this file is the fast correctness companion that every CI run executes:
a small population recorded once, then checked end-to-end — backend
state (histories, feedback graph) and verdicts (batched fold vs
the scalar tester, vectorized service vs the scalar service) must be
identical across the memory, columnar, and mmap backends.
"""

import numpy as np
import pytest

from repro.core.calibration import ThresholdCalibrator
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.multi_testing import MultiBehaviorTest, fold_cold_batch
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


def _ledger(backend, tmp_path, events):
    kwargs = {"path": str(tmp_path / "led.bin")} if backend == "mmap" else {}
    led = FeedbackLedger(backend=backend, **kwargs)
    led.record_many(events)
    return led


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_backend_state_matches_memory(backend, tmp_path, events):
    reference = _ledger("memory", tmp_path, events)
    led = _ledger(backend, tmp_path, events)
    assert led.servers() == reference.servers()
    assert led.feedback_graph() == reference.feedback_graph()
    for sid in sorted(reference.servers()):
        assert np.array_equal(
            led.history(sid).outcomes(), reference.history(sid).outcomes()
        )


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


@pytest.mark.parametrize("backend", ["memory", "columnar", "mmap"])
def test_vectorized_service_matches_scalar(backend, tmp_path, events):
    config = AssessorConfig(test_config=CONFIG)
    vector = AssessmentService(config=config, vectorized=True)
    scalar = AssessmentService(config=config, vectorized=False)
    vector.attach_ledger(_ledger(backend, tmp_path, events))
    scalar.attach_ledger(_ledger("memory", tmp_path / "ref", events))
    ids = sorted(f"server-{i:03d}" for i in range(40))
    assert vector.assess_many(ids) == scalar.assess_many(ids)
    assert vector.n_vector_prefolds == 1
