"""Shared driver for the attacker-cost experiments (Figs. 3-6).

All four figures sweep the preparation-history size and measure the
number of (real) good transactions a strategic attacker needs to finish
20 bad ones, under three defenses: the bare trust function, the trust
function + single behavior testing (Scheme 1), and the trust function +
multi behavior testing (Scheme 2).  Figures 5/6 repeat the sweep with a
colluder ring and the collusion-resilient variants of the schemes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..adversary.collusion import ColludingStrategicAttacker
from ..adversary.strategic import StrategicAttacker
from ..core.calibration import ThresholdCalibrator
from ..core.collusion import CollusionResilientMultiTest, CollusionResilientTest
from ..core.config import BehaviorTestConfig
from ..core.multi_testing import MultiBehaviorTest
from ..core.testing import SingleBehaviorTest
from ..obs import audit as _audit
from ..trust.base import TrustFunction
from .common import (
    PAPER_CONFIG,
    PAPER_PREP_HONESTY,
    PAPER_TARGET_BADS,
    PAPER_TRUST_THRESHOLD,
    ExperimentResult,
    ExperimentRun,
    make_shared_calibrator,
    mean_over_seeds,
)

__all__ = [
    "SCHEME_NONE",
    "SCHEME_SINGLE",
    "SCHEME_MULTI",
    "standard_schemes",
    "collusion_schemes",
    "attack_cost_sweep",
    "collusion_cost_sweep",
]

#: Default decision-sampling rate for ``audit_path=`` runs.  The
#: strategic attacker's look-ahead probes the behavior test thousands of
#: times per run, so full auditing would swamp the log; 1-in-64 keeps a
#: representative rejection-reason sample at negligible cost.
AUDIT_SAMPLE_EVERY = 64


class _AuditedTest:
    """Wrap a behavior test so every look-ahead probe carries context.

    Each ``test()`` call opens its own top-level decision scope: one
    sampling decision per probe, tagged with the defense scheme and prep
    size so the rejection-reason breakdown can attribute records.
    """

    def __init__(self, inner, **context):
        self._inner = inner
        self._context = context

    def test(self, history):
        with _audit.trail.decision_scope(**self._context):
            return self._inner.test(history)


def _append_audit_notes(result: ExperimentResult, records) -> None:
    """Per-scheme rejection-reason breakdown from the sampled audit log."""
    by_scheme: Dict[str, Dict[str, object]] = {}
    for record in records:
        if record.get("kind") != "behavior_test":
            continue
        context = record.get("context") or {}
        scheme = str(context.get("scheme", "?"))
        entry = by_scheme.setdefault(scheme, {"tests": 0, "rejections": 0, "reasons": {}})
        entry["tests"] += 1
        if not record.get("passed"):
            entry["rejections"] += 1
            reason = record.get("reason") or "unknown"
            entry["reasons"][reason] = entry["reasons"].get(reason, 0) + 1
    for scheme in sorted(by_scheme):
        entry = by_scheme[scheme]
        reasons = ", ".join(
            f"{name}={count}"
            for name, count in sorted(entry["reasons"].items(), key=lambda kv: -kv[1])
        )
        result.notes += (
            f"\naudit[{scheme}]: {entry['rejections']}/{entry['tests']} sampled "
            f"look-ahead tests rejected"
            + (f" ({reasons})" if reasons else "")
        )

SCHEME_NONE = "none"
SCHEME_SINGLE = "scheme1"
SCHEME_MULTI = "scheme2"

SchemeFactory = Callable[[BehaviorTestConfig, ThresholdCalibrator], Optional[object]]


def standard_schemes() -> Dict[str, SchemeFactory]:
    """The Fig. 3/4 defenses: bare, +single testing, +multi testing."""
    return {
        SCHEME_NONE: lambda cfg, cal: None,
        SCHEME_SINGLE: lambda cfg, cal: SingleBehaviorTest(cfg, cal),
        SCHEME_MULTI: lambda cfg, cal: MultiBehaviorTest(cfg, cal),
    }


def collusion_schemes() -> Dict[str, SchemeFactory]:
    """The Fig. 5/6 defenses: bare, +collusion-resilient single / multi."""
    return {
        SCHEME_NONE: lambda cfg, cal: None,
        SCHEME_SINGLE: lambda cfg, cal: CollusionResilientTest(cfg, cal),
        SCHEME_MULTI: lambda cfg, cal: CollusionResilientMultiTest(cfg, cal),
    }


def attack_cost_sweep(
    result: ExperimentResult,
    trust_factory: Callable[[], TrustFunction],
    *,
    prep_sizes: Sequence[int],
    n_seeds: int = 5,
    base_seed: int = 2008,
    config: BehaviorTestConfig = PAPER_CONFIG,
    trust_threshold: float = PAPER_TRUST_THRESHOLD,
    prep_honesty: float = PAPER_PREP_HONESTY,
    target_bads: int = PAPER_TARGET_BADS,
    max_steps: int = 20_000,
    audit_path: Optional[str] = None,
    audit_sample: int = AUDIT_SAMPLE_EVERY,
    events_path: Optional[str] = None,
) -> ExperimentResult:
    """Fill ``result`` with the Fig. 3/4 sweep for one trust function."""
    return _sweep(
        result,
        standard_schemes(),
        lambda test: StrategicAttacker(
            trust_factory(),
            test,
            trust_threshold=trust_threshold,
            prep_honesty=prep_honesty,
            target_bads=target_bads,
            max_steps=max_steps,
        ),
        adversary="strategic",
        seed_stride=7919,
        prep_sizes=prep_sizes,
        n_seeds=n_seeds,
        base_seed=base_seed,
        config=config,
        audit_path=audit_path,
        audit_sample=audit_sample,
        events_path=events_path,
    )


def collusion_cost_sweep(
    result: ExperimentResult,
    trust_factory: Callable[[], TrustFunction],
    *,
    prep_sizes: Sequence[int],
    n_seeds: int = 3,
    base_seed: int = 2008,
    config: BehaviorTestConfig = PAPER_CONFIG,
    trust_threshold: float = PAPER_TRUST_THRESHOLD,
    prep_honesty: float = PAPER_PREP_HONESTY,
    target_bads: int = PAPER_TARGET_BADS,
    n_clients: int = 100,
    n_colluders: int = 5,
    max_steps: int = 20_000,
    audit_path: Optional[str] = None,
    audit_sample: int = AUDIT_SAMPLE_EVERY,
    events_path: Optional[str] = None,
) -> ExperimentResult:
    """Fill ``result`` with the Fig. 5/6 collusion sweep."""
    return _sweep(
        result,
        collusion_schemes(),
        lambda test: ColludingStrategicAttacker(
            trust_factory(),
            test,
            trust_threshold=trust_threshold,
            n_clients=n_clients,
            n_colluders=n_colluders,
            prep_honesty=prep_honesty,
            target_bads=target_bads,
            max_steps=max_steps,
        ),
        adversary="colluding-strategic",
        seed_stride=6007,
        prep_sizes=prep_sizes,
        n_seeds=n_seeds,
        base_seed=base_seed,
        config=config,
        audit_path=audit_path,
        audit_sample=audit_sample,
        events_path=events_path,
    )


def _sweep(
    result: ExperimentResult,
    schemes: Dict[str, SchemeFactory],
    make_attacker: Callable[[Optional[object]], object],
    *,
    adversary: str,
    seed_stride: int,
    prep_sizes: Sequence[int],
    n_seeds: int,
    base_seed: int,
    config: BehaviorTestConfig,
    audit_path: Optional[str],
    audit_sample: int,
    events_path: Optional[str],
) -> ExperimentResult:
    """Mean attack cost per (prep size, defense scheme), one row per prep."""
    calibrator = make_shared_calibrator(config)
    with ExperimentRun(
        result.experiment,
        seed=base_seed,
        events_path=events_path,
        audit_path=audit_path,
        audit_sample=audit_sample,
    ) as experiment:
        for prep in prep_sizes:
            row: Dict[str, object] = {"prep_size": prep}
            for name, factory in schemes.items():
                test = factory(config, calibrator)
                if experiment.trail is not None and test is not None:
                    test = _AuditedTest(
                        test,
                        server=f"{name}-prep{prep}",
                        scheme=name,
                        adversary=adversary,
                        prep_size=prep,
                    )
                attacker = make_attacker(test)
                costs = []
                for s in range(n_seeds):
                    run = attacker.run(prep, seed=base_seed + seed_stride * s)
                    costs.append(run.cost)
                row[name] = mean_over_seeds(costs)
            result.add_row(**row)
        if experiment.trail is not None:
            _append_audit_notes(result, experiment.trail.records)
    return result
