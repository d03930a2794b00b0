"""Property-based ledger equivalence: every backend tells the stream's story.

For arbitrary populations — honest players, hibernating and periodic
attackers, colluding issuer cliques — the in-memory (``columnar``) and
persisted (``mmap``) backends must agree with the stream itself:
*verdict-for-verdict* with the scalar tester run on one
``TransactionHistory`` per server fed by ``append_feedback`` (each
backend is judged through the vectorized cold-path kernel), and
*byte-for-byte* with the ``(client, server)`` graph counted from the
events.  A chaos variant replays the same stream under per-backend
fresh fault plans built from the CI seed matrix and demands identical
fold/quarantine decisions.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.hibernating import hibernating_attack_history
from repro.adversary.periodic import periodic_attack_history
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest, fold_cold_batch
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.resilience import FaultPlan, Quarantine
from repro.resilience import runtime as res

BACKENDS = ("columnar", "mmap")
CHAOS_SEEDS = (0, 1337, 90210)

CONFIG = BehaviorTestConfig(calibration_sets=50)

server_spec = st.tuples(
    st.sampled_from(["honest", "hibernating", "periodic", "collusion"]),
    st.integers(min_value=0, max_value=150),  # history length
    st.integers(min_value=0, max_value=2**20),  # per-server seed
)
population = st.lists(server_spec, min_size=1, max_size=5)


def _outcomes(family: str, length: int, seed: int) -> np.ndarray:
    if length == 0:
        return np.empty(0, dtype=np.int64)
    if family == "honest":
        return generate_honest_outcomes(length, 0.9, seed=seed)
    if family == "hibernating":
        return hibernating_attack_history(length, max(length // 6, 1), seed=seed)
    if family == "periodic":
        return periodic_attack_history(length, 12, seed=seed)
    # collusion: a low-quality server whose outcome stream is mostly bad
    rng = np.random.default_rng(seed)
    return (rng.random(length) < 0.35).astype(np.int64)


def _stream(spec) -> list:
    """One deterministic feedback stream for a population spec.

    Collusion servers get their feedback from a small colluding clique
    (repeat issuers, ``authentic=False`` on fabricated praise); everyone
    else draws issuers from a broad client pool.
    """
    events = []
    for idx, (family, length, seed) in enumerate(spec):
        sid = f"{family}-{idx}"
        rng = np.random.default_rng(seed ^ 0xC0FFEE)
        outcomes = _outcomes(family, length, seed)
        for t, outcome in enumerate(outcomes.tolist()):
            if family == "collusion":
                client = f"clique-{rng.integers(0, 3)}"
                # the clique praises regardless of the real outcome
                fabricated = rng.random() < 0.5
                rating = Rating.POSITIVE if fabricated else Rating(outcome)
                authentic = not fabricated
            else:
                client = f"client-{rng.integers(0, 20)}"
                rating = Rating(outcome)
                authentic = True
            events.append(
                Feedback(
                    time=float(t),
                    server=sid,
                    client=client,
                    rating=rating,
                    authentic=authentic,
                )
            )
    return events


def _replay(events):
    """The stream's own story: a history per server fed by
    ``append_feedback``, and the ``(client, server) -> (n_positive,
    n_negative)`` graph counted in first-appearance order."""
    histories = {}
    for fb in events:
        history = histories.get(fb.server)
        if history is None:
            history = histories[fb.server] = TransactionHistory(fb.server)
        history.append_feedback(fb)
    counts = Counter((fb.client, fb.server, fb.rating) for fb in events)
    graph = {
        (c, s): (counts[c, s, Rating.POSITIVE], counts[c, s, Rating.NEGATIVE])
        for c, s in dict.fromkeys((fb.client, fb.server) for fb in events)
    }
    return histories, graph


def _rows(feedbacks):
    """Comparable field tuples (``Feedback`` equality looks at time only)."""
    return [
        (fb.time, fb.server, fb.client, fb.rating, fb.category, fb.authentic)
        for fb in feedbacks
    ]


def _ledger(backend: str, tmp_path_factory, tag: str, **kwargs) -> FeedbackLedger:
    if backend == "mmap":
        root = tmp_path_factory.mktemp("ledger-eq")
        kwargs["path"] = str(root / f"{tag}.bin")
    return FeedbackLedger(backend=backend, **kwargs)


def _tester() -> MultiBehaviorTest:
    return MultiBehaviorTest(
        CONFIG,
        ThresholdCalibrator(
            confidence=CONFIG.confidence,
            n_sets=CONFIG.calibration_sets,
            distance=CONFIG.distance,
            p_quantum=CONFIG.p_quantum,
            seed=424242,
        ),
    )


class TestBackendEquivalence:
    @given(spec=population)
    @settings(max_examples=20, deadline=None)
    def test_verdicts_and_graph_agree(self, spec, tmp_path_factory):
        events = _stream(spec)
        histories, graph = _replay(events)
        servers = sorted(histories)
        # scalar verdicts on the replayed histories are the ground
        # truth; each backend is judged by the batched fold so the
        # equivalence covers the whole cold path, not just storage
        tester = _tester()
        expected = {sid: tester.test(histories[sid]) for sid in servers}
        for backend in BACKENDS:
            led = _ledger(backend, tmp_path_factory, f"clean-{backend}")
            assert led.record_many(events) == len(events)
            assert led.servers() == set(servers)
            assert list(led.feedback_graph().items()) == list(graph.items())
            folded = fold_cold_batch(
                [led.history(sid).outcomes() for sid in servers], tester
            )
            for sid, report in zip(servers, folded):
                assert report == expected[sid], f"{backend} diverged on {sid}"
            for sid in servers:
                assert np.array_equal(
                    led.history(sid).outcomes(), histories[sid].outcomes()
                )
                assert _rows(led.feedbacks_for_server(sid)) == _rows(
                    histories[sid].feedbacks()
                )

    @given(spec=population)
    @settings(max_examples=10, deadline=None)
    def test_round_trip_through_persistence(self, spec, tmp_path_factory):
        """Closing and reopening the mmap ledger loses nothing."""
        events = _stream(spec)
        root = tmp_path_factory.mktemp("ledger-rt")
        path = str(root / "led.bin")
        with FeedbackLedger(backend="mmap", path=path) as led:
            led.record_many(events)
            graph = led.feedback_graph()
        with FeedbackLedger(backend="mmap", path=path) as reopened:
            assert reopened.feedback_graph() == graph
            assert len(reopened) == len(events)


class TestChaosEquivalence:
    @pytest.mark.parametrize("chaos_seed", CHAOS_SEEDS)
    @given(spec=population)
    @settings(max_examples=5, deadline=None)
    def test_fault_decisions_identical_across_backends(
        self, chaos_seed, spec, tmp_path_factory
    ):
        """A fresh same-seed fault plan per backend, the same per-event
        invocation sequence: every backend must fold and quarantine the
        exact same events, and hold the graph of the events it folded."""
        events = _stream(spec)
        folded_sets = {}
        for backend in BACKENDS:
            quarantine = Quarantine(name=f"eq-{backend}")
            led = _ledger(
                backend,
                tmp_path_factory,
                f"chaos-{backend}-{chaos_seed}",
                quarantine=quarantine,
            )
            plan = FaultPlan(seed=chaos_seed)
            plan.arm("feedback.ledger.fold", "exception", probability=0.3)
            folded = []
            with res.activate(plan):
                for i, fb in enumerate(events):
                    if led.record(fb):
                        folded.append(i)
            folded_sets[backend] = folded
            assert len(folded) + quarantine.depth == len(events)
            assert len(led) == len(folded)
            _, graph = _replay([events[i] for i in folded])
            assert list(led.feedback_graph().items()) == list(graph.items())
        assert folded_sets["mmap"] == folded_sets["columnar"]
