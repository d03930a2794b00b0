"""Shared fixtures for the chaos suite.

The suite is parameterized by one environment variable,
``REPRO_CHAOS_SEED`` (default 0): CI runs the whole directory under a
matrix of seeds, and any failure is replayed locally by exporting the
same seed — the fault plans derive every decision from it.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.feedback.records import Feedback, Rating
from repro.resilience.health import GLOBAL_HEALTH
from repro.serve import AssessmentService


@pytest.fixture(scope="session")
def chaos_seed() -> int:
    """The seed every fault plan in this run derives from."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _isolate_health_registry():
    """Each test sees only the resilience components it creates."""
    GLOBAL_HEALTH.clear()
    yield
    GLOBAL_HEALTH.clear()


#: Small-but-real serving config: single behavior test, cheap Monte-Carlo
#: calibration, low trust bar so statuses vary across servers.
CHAOS_CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(
        window_size=8, min_windows=2, calibration_sets=50
    ),
)


def make_service(n_servers: int = 6, n_feedbacks: int = 40, **kwargs) -> AssessmentService:
    """A populated service over a deterministic feedback stream.

    One pool worker by default: it rebuilds the assessor from the
    config's default seed and assesses the servers in order, so a
    healthy ``executor="process"`` sweep reproduces the serial
    calibration order and every ``chaos == baseline`` stays exact.
    """
    kwargs.setdefault("max_workers", 1)
    service = AssessmentService(config=CHAOS_CONFIG, **kwargs)
    stream = random.Random(1234)
    t = 0.0
    for s in range(n_servers):
        sid = f"srv-{s:02d}"
        service.add_server(sid)
        p_good = 0.95 - 0.05 * s
        for i in range(n_feedbacks):
            t += 1.0
            service.observe(
                Feedback(
                    time=t,
                    server=sid,
                    client=f"cli-{i % 5}",
                    rating=(
                        Rating.POSITIVE
                        if stream.random() < p_good
                        else Rating.NEGATIVE
                    ),
                )
            )
    return service


@pytest.fixture()
def service() -> AssessmentService:
    return make_service()
