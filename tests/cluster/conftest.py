"""Shared fixtures for the cluster suite.

Like the resilience chaos suite, everything derives from one
environment variable, ``REPRO_CHAOS_SEED`` (default 0): CI runs the
directory under a seed matrix with node-kill fault sites armed, and any
failure replays locally by exporting the same seed.

The central invariant under test: a *healthy* cluster returns verdicts
bit-identical to a single-node :class:`~repro.serve.AssessmentService`
with the same calibrator settings and seed (every ε threshold is a pure
function of its key and the seed; sharing the calibrator only shares
its cache).
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np
import pytest

from repro.adversary.hibernating import hibernating_attack_history
from repro.adversary.periodic import periodic_attack_history
from repro.cluster import ClusterAssessmentService
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.two_phase import Assessor
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.serve import AssessmentService


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """The seed every fault plan in this run derives from."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


#: Small-but-real serving config: single behavior test, cheap Monte-Carlo
#: calibration, low trust bar so statuses vary across servers.
CLUSTER_CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(
        window_size=8, min_windows=2, calibration_sets=50
    ),
)


def corpus(
    n_per_kind: int = 3, n_events: int = 40, seed: int = 7
) -> List[Feedback]:
    """A mixed fleet: honest, hibernating, periodic, and collusive servers.

    Streams are time-ordered per server; the collusive pattern is a
    colluder-pumped positive prep followed by a cheat burst against
    ordinary clients — enough to vary both assessment phases.
    """
    rng = np.random.default_rng(seed)
    events: List[Feedback] = []
    t = 0.0

    def emit(server: str, outcomes, clients: List[str]) -> None:
        nonlocal t
        for ok in outcomes:
            t += 0.001
            events.append(
                Feedback(
                    time=t,
                    server=server,
                    client=clients[int(rng.integers(0, len(clients)))],
                    rating=Rating.POSITIVE if ok else Rating.NEGATIVE,
                )
            )

    ordinary = [f"cli-{i:03d}" for i in range(25)]
    colluders = [f"colluder-{i}" for i in range(3)]
    for i in range(n_per_kind):
        emit(
            f"honest-{i:02d}",
            generate_honest_outcomes(n_events, 0.9, seed=seed + i),
            ordinary,
        )
        emit(
            f"hibernating-{i:02d}",
            hibernating_attack_history(n_events, 10, seed=seed + i),
            ordinary,
        )
        emit(
            f"periodic-{i:02d}",
            periodic_attack_history(n_events, 5, seed=seed + i),
            ordinary,
        )
        prep = [1] * (n_events - 10)
        emit(f"collusive-{i:02d}", prep, colluders)
        emit(f"collusive-{i:02d}", [0] * 10, ordinary)
    return events


def make_cluster(
    calibrator=None, **kwargs
) -> ClusterAssessmentService:
    """A cluster over a private simulated network (default 5×K3 R2)."""
    kwargs.setdefault("n_nodes", 5)
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("read_quorum", 2)
    return ClusterAssessmentService(
        CLUSTER_CONFIG, calibrator=calibrator, **kwargs
    )


def make_reference(
    events: List[Feedback],
    calibrator,
    servers: Optional[List[str]] = None,
) -> AssessmentService:
    """The single-node ground truth sharing ``calibrator``."""
    ledger = FeedbackLedger()
    service = AssessmentService(
        assessor=Assessor.from_config(CLUSTER_CONFIG, calibrator=calibrator),
        ledger=ledger,
    )
    keep = set(servers) if servers is not None else None
    for feedback in events:
        if keep is None or feedback.server in keep:
            ledger.record(feedback)
    return service
