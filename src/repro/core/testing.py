"""Single behavior testing — Scheme 1 (Sec. 3.2, Fig. 2).

Break the history into ``k = floor(n/m)`` windows, count the good
transactions ``G_i`` per window, estimate ``p_hat = sum(G_i) / n`` and
check whether the empirical distribution of the ``G_i`` is within L1
distance ε of ``B(m, p_hat)``, with ε calibrated empirically at the
configured confidence level.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..feedback.history import TransactionHistory, check_binary
from ..obs import audit as _audit
from ..obs import runtime as _obs
from ..stats.distances import get_distance
from .calibration import ThresholdCalibrator
from .config import DEFAULT_CONFIG, BehaviorTestConfig
from .model import HonestPlayerModel
from .verdict import BehaviorVerdict

__all__ = ["SingleBehaviorTest"]

HistoryInput = Union[TransactionHistory, np.ndarray, list, tuple]


def _extract_outcomes(history: HistoryInput) -> np.ndarray:
    """The 0/1 outcome vector of ``history``; raw arrays are validated
    (a :class:`TransactionHistory` already was, on every append)."""
    if isinstance(history, TransactionHistory):
        return history.outcomes()
    arr = np.asarray(history)
    if arr.ndim != 1:
        raise ValueError("history must be a TransactionHistory or 1-D outcomes")
    check_binary(arr)
    return arr


class SingleBehaviorTest:
    """The paper's single distribution-distance behavior test.

    A shared :class:`ThresholdCalibrator` may be supplied so several
    tests (e.g. single and multi in the same experiment) reuse one
    threshold cache.
    """

    name = "single"

    def __init__(
        self,
        config: BehaviorTestConfig = DEFAULT_CONFIG,
        calibrator: Optional[ThresholdCalibrator] = None,
        *,
        emit_audit: bool = True,
    ):
        self._config = config
        self._model = HonestPlayerModel(config.window_size, align=config.align)
        self._distance = get_distance(config.distance)
        # Composite tests (multi, collusion-resilient) run this test as an
        # internal round and emit their own, richer audit record instead.
        self._emit_audit = emit_audit
        self._calibrator = calibrator or ThresholdCalibrator(
            confidence=config.confidence,
            n_sets=config.calibration_sets,
            distance=config.distance,
            p_quantum=config.p_quantum,
        )

    @property
    def config(self) -> BehaviorTestConfig:
        return self._config

    @property
    def calibrator(self) -> ThresholdCalibrator:
        return self._calibrator

    def test(self, history: HistoryInput) -> BehaviorVerdict:
        """Judge a whole history (most recent behavior included)."""
        if _audit.enabled and self._emit_audit:
            server = getattr(history, "server", None)
            with _audit.trail.decision_scope(server=server):
                return self.test_outcomes(_extract_outcomes(history))
        return self.test_outcomes(_extract_outcomes(history))

    def test_outcomes(self, outcomes: np.ndarray) -> BehaviorVerdict:
        """Judge a bare 0/1 outcome vector."""
        cfg = self._config
        n = int(np.asarray(outcomes).size)
        if n < cfg.min_transactions:
            if _obs.enabled:
                _obs.registry.inc("core.testing.tests", test=self.name, result="insufficient")
            verdict = BehaviorVerdict.insufficient_history(
                passed=(cfg.on_insufficient == "pass"),
                window_size=cfg.window_size,
                n_considered=n,
            )
            self._audit(outcomes, verdict)
            return verdict
        with _obs.timer("core.testing.seconds"):
            fitted = self._model.fit(outcomes)
            threshold = self._calibrator.threshold(
                fitted.window_size, fitted.n_windows, fitted.p_hat
            )
            distance = self._distance(fitted.observed_pmf(), fitted.expected_pmf())
        passed = bool(distance <= threshold)
        if _obs.enabled:
            _obs.registry.inc(
                "core.testing.tests",
                test=self.name,
                result="pass" if passed else "fail",
            )
        verdict = BehaviorVerdict(
            passed=passed,
            distance=float(distance),
            threshold=float(threshold),
            p_hat=fitted.p_hat,
            n_windows=fitted.n_windows,
            window_size=fitted.window_size,
            n_considered=fitted.n_considered,
        )
        self._audit(outcomes, verdict)
        return verdict

    def _audit(self, outcomes: np.ndarray, verdict: BehaviorVerdict) -> None:
        if not (_audit.enabled and self._emit_audit):
            return
        trail = _audit.trail
        if not trail.want_record():
            return
        trail.emit(
            _audit.single_test_record(
                self.name,
                config=self._config,
                outcomes=outcomes,
                verdict=verdict,
                include_pmfs=trail.include_pmfs,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SingleBehaviorTest(m={self._config.window_size})"
