"""Fig. 7 — detection rate vs. attack window size.

A periodic attacker keeps its reputation at ~0.9 while launching
``0.1 * N`` attacks within every window of ``N`` transactions
(N = 10, 20, ..., 80).  Bad positions are uniform inside each window
(see DESIGN.md §3.4 — deterministic placement is trivially caught and
flat-lines the curve).  The detection rate is the fraction of generated
histories the behavior test flags.

Expected shape (paper): detection decreases monotonically with N — a
small window forces a nearly regular, under-dispersed pattern that is
very different from binomial behavior, while a large window lets the
randomized attack converge toward genuine B(m, 0.9) behavior.  The paper
frames the tail as a feature: an attacker that must look this much like
an honest player effectively *is* one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .. import obs
from ..adversary.periodic import periodic_attack_history
from ..core.multi_testing import MultiBehaviorTest
from ..core.testing import SingleBehaviorTest
from ..obs import audit as _audit
from ..stats.rng import make_rng
from .common import (
    PAPER_CONFIG,
    ExperimentResult,
    ExperimentRun,
    make_shared_calibrator,
)

__all__ = ["run_fig7", "ATTACK_WINDOWS"]

ATTACK_WINDOWS = (10, 20, 30, 40, 50, 60, 70, 80)

_TIMER_METRIC = "experiments.fig7.test_seconds"


def run_fig7(
    *,
    attack_windows: Optional[Sequence[int]] = None,
    trials: int = 200,
    history_length: int = 800,
    attack_rate: float = 0.1,
    base_seed: int = 2008,
    quick: bool = False,
    audit_path: Optional[str] = None,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
) -> ExperimentResult:
    """Reproduce Fig. 7 (plus a multi-testing series as a bonus).

    ``audit_path`` writes an audit record for every behavior test to a
    JSONL log (no sampling: Fig. 7's point *is* the per-trial verdict)
    and appends an audit-derived detection breakdown to the notes — the
    two countings must agree, which the test suite asserts.

    ``bench_path`` times every behavior test through the obs layer and
    writes a schema-validated ``BENCH_fig7.json`` (test × attack window
    → mean/min/p95 seconds plus the detection rate) so detection speed
    joins fig9 in the regression gate.  ``events_path`` writes the run's
    lifecycle events to a JSONL log.
    """
    if attack_windows is None:
        attack_windows = ATTACK_WINDOWS
    if quick:
        trials = min(trials, 40)
        attack_windows = tuple(attack_windows)[::2]
    config = PAPER_CONFIG
    calibrator = make_shared_calibrator(config)
    single = SingleBehaviorTest(config, calibrator)
    multi = MultiBehaviorTest(config, calibrator)
    rng = make_rng(base_seed)

    result = ExperimentResult(
        experiment="fig7",
        title="Detection rate vs. attack window size",
        columns=["attack_window", "single_detection_rate", "multi_detection_rate"],
        notes=(
            f"{trials} trials per point; history length {history_length}; "
            f"{attack_rate:.0%} attacks per window, reputation kept at "
            f"{1 - attack_rate:.2f}"
        ),
    )
    with ExperimentRun(
        "fig7",
        seed=base_seed,
        config=config,
        meta={"quick": quick, "trials": trials, "history_length": history_length},
        bench_path=bench_path,
        events_path=events_path,
        audit_path=audit_path,
    ) as run:
        for window in attack_windows:
            single_hits = 0
            multi_hits = 0
            with obs.span("experiments.fig7.window", attack_window=window):
                for _ in range(trials):
                    trace = periodic_attack_history(
                        history_length, window, attack_rate=attack_rate, seed=rng
                    )
                    with obs.timer(_TIMER_METRIC, test="single", attack_window=window):
                        single_hits += not _tested(
                            single, trace, window, run.trail
                        ).passed
                    with obs.timer(_TIMER_METRIC, test="multi", attack_window=window):
                        multi_hits += not _tested(
                            multi, trace, window, run.trail
                        ).passed
            result.add_row(
                attack_window=window,
                single_detection_rate=single_hits / trials,
                multi_detection_rate=multi_hits / trials,
            )
            for test, hits in (("single", single_hits), ("multi", multi_hits)):
                hist = run.registry.histogram(
                    _TIMER_METRIC, test=test, attack_window=window
                )
                run.bench_row(
                    hist,
                    test,
                    {"attack_window": window},
                    detection_rate=hits / trials,
                )
        if run.trail is not None:
            for line in _audit_breakdown(run.trail.records):
                result.notes += "\n" + line
    return result


def _tested(test, trace, window: int, trail):
    if trail is None:
        return test.test(trace)
    with _audit.trail.decision_scope(
        server=f"periodic-w{window}", adversary=f"periodic-w{window}"
    ):
        return test.test(trace)


def _audit_breakdown(records) -> Sequence[str]:
    """Detection counts per (adversary class, test) from audit records."""
    counts: Dict[Tuple[str, str], Dict[str, int]] = {}
    for record in records:
        if record.get("kind") != "behavior_test":
            continue
        context = record.get("context") or {}
        key = (str(context.get("adversary", "?")), str(record.get("test", "?")))
        entry = counts.setdefault(key, {"tests": 0, "detections": 0})
        entry["tests"] += 1
        entry["detections"] += not record.get("passed")
    lines = []
    for (adversary, test), entry in sorted(counts.items()):
        lines.append(
            f"audit[{adversary}/{test}]: {entry['detections']}/{entry['tests']} detected"
        )
    return lines
