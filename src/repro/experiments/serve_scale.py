"""Serving-layer scaling: batched incremental assessment vs. per-call.

Not a figure from the paper — the paper's evaluation times one behavior
test at a time (Fig. 9), but the ROADMAP's serving scenario is a
reputation service answering bulk trust queries over a mostly-quiet
population.  This experiment quantifies that regime: for growing server
populations, a full per-call ``TwoPhaseAssessor.assess`` sweep is
compared against ``AssessmentService.assess_many`` in steady state
(every sweep re-asks about all servers after a small fraction received
new feedback), asserting along the way that both engines return
identical assessments.

Like fig9/p2p_scale, timings flow through the obs layer; ``bench_path``
emits a schema-valid ``BENCH_serve.json`` so the serving layer joins the
regression gate, and ``events_path`` writes the run's lifecycle events.
``trace_path`` records the run's spans as JSONL
(inspect with ``repro obs trace``).  The final ``metrics`` snapshot in
the event log carries the ``serve.assess.seconds`` distribution and the
degraded counters that CI's serve health check reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from ..core.config import AssessorConfig, BehaviorTestConfig
from ..core.model import generate_honest_outcomes
from ..core.two_phase import Assessor
from ..feedback.history import TransactionHistory
from ..serve import AssessmentService
from ..stats.rng import make_rng
from .common import ExperimentResult, ExperimentRun, make_shared_calibrator

__all__ = ["run_serve_scale", "SERVER_COUNTS"]

SERVER_COUNTS = (2_000, 10_000)

_SWEEP_METRIC = "experiments.serve.sweep_seconds"


def _build_population(
    n_servers: int, *, base_seed: int
) -> List[TransactionHistory]:
    """Synthesize a serving population of mostly-honest servers.

    History lengths and success rates vary per server so the sweep
    exercises many calibration buckets and both phase-1 outcomes.
    """
    rng = make_rng(base_seed)
    lengths = rng.integers(120, 360, size=n_servers)
    rates = 0.85 + 0.14 * rng.random(n_servers)
    return [
        TransactionHistory.from_outcomes(
            generate_honest_outcomes(
                int(lengths[i]), float(rates[i]), seed=base_seed + i
            ),
            server=f"server-{i:05d}",
        )
        for i in range(n_servers)
    ]


def run_serve_scale(
    *,
    server_counts: Optional[Sequence[int]] = None,
    touch_fraction: float = 0.01,
    repeats: int = 3,
    base_seed: int = 2008,
    quick: bool = False,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> ExperimentResult:
    """Measure per-call vs. batched-incremental assessment sweeps.

    For every population size: build per-server histories, time full
    per-call ``assess`` sweeps, then time ``assess_many`` steady-state
    sweeps where ``touch_fraction`` of the servers received one new
    feedback since the last sweep.  The two engines' assessments are
    compared server-for-server; any mismatch raises.  ``bench_path``
    writes ``BENCH_serve.json`` through :mod:`repro.obs.bench`;
    ``events_path`` a lifecycle JSONL log; ``trace_path`` a span-sink
    JSONL (the whole run becomes one trace rooted at
    ``experiments.serve.run``).
    """
    if server_counts is None:
        server_counts = (200, 500) if quick else SERVER_COUNTS
    if not 0.0 <= touch_fraction <= 1.0:
        raise ValueError(
            f"touch_fraction must lie in [0, 1], got {touch_fraction}"
        )
    if quick:
        repeats = min(repeats, 2)
    server_counts = tuple(server_counts)

    config = BehaviorTestConfig()
    calibrator = make_shared_calibrator(config)
    assessor_config = AssessorConfig(
        trust_function="average", behavior_test="multi", test_config=config
    )
    assessor = Assessor.from_config(assessor_config, calibrator=calibrator)

    result = ExperimentResult(
        experiment="serve",
        title="Assessment serving: per-call vs. batched incremental sweeps",
        columns=[
            "n_servers",
            "percall_s",
            "serve_cold_s",
            "serve_warm_s",
            "speedup",
        ],
        notes=(
            f"{touch_fraction:.0%} of servers touched between warm sweeps; "
            f"best of {repeats} sweeps; identical verdicts asserted per server"
        ),
    )

    with ExperimentRun(
        "serve",
        seed=base_seed,
        config=config,
        meta={"quick": quick, "touch_fraction": touch_fraction, "repeats": repeats},
        bench_path=bench_path,
        events_path=events_path,
        trace_path=trace_path,
    ) as run:
        registry = run.registry
        for n in server_counts:
            with obs.span("experiments.serve.prepare", n_servers=n):
                histories = _build_population(n, base_seed=base_seed)
                service = AssessmentService(assessor)
                for history in histories:
                    service.add_server(history)
                # Warm the ε-threshold cache so both engines measure
                # assessment work, not one-off Monte-Carlo calibration.
                for history in histories:
                    assessor.assess(history)
            touch_rng = make_rng(base_seed + n)
            n_touch = max(int(n * touch_fraction), 1)
            with obs.span("experiments.serve.cold_sweep", n_servers=n):
                with obs.timer(_SWEEP_METRIC, mode="serve_cold", n_servers=n):
                    service.assess_many()
            with obs.span("experiments.serve.warm_sweeps", n_servers=n):
                for _ in range(max(repeats, 1)):
                    touched = touch_rng.choice(n, size=n_touch, replace=False)
                    for idx in touched:
                        history = histories[int(idx)]
                        service.observe_outcome(
                            history.server, int(touch_rng.random() < 0.95)
                        )
                    with obs.timer(_SWEEP_METRIC, mode="serve_warm", n_servers=n):
                        batched = service.assess_many()
            with obs.span("experiments.serve.percall_sweeps", n_servers=n):
                for _ in range(max(repeats, 1)):
                    with obs.timer(_SWEEP_METRIC, mode="percall", n_servers=n):
                        percall = {
                            history.server: assessor.assess(history)
                            for history in histories
                        }
            with obs.span("experiments.serve.verify", n_servers=n):
                mismatched = [
                    server
                    for server, assessment in percall.items()
                    if batched[server] != assessment
                ]
                if mismatched:
                    raise AssertionError(
                        f"engines disagree on {len(mismatched)} of {n} "
                        f"servers (first: {mismatched[0]})"
                    )
            row: Dict[str, float] = {"n_servers": n}
            for mode, column in (
                ("percall", "percall_s"),
                ("serve_cold", "serve_cold_s"),
                ("serve_warm", "serve_warm_s"),
            ):
                hist = registry.histogram(_SWEEP_METRIC, mode=mode, n_servers=n)
                row[column] = hist.min
                run.bench_row(hist, mode, {"n_servers": n})
            row["speedup"] = (
                row["percall_s"] / row["serve_warm_s"]
                if row["serve_warm_s"] > 0
                else float("inf")
            )
            result.add_row(**row)
    return result
