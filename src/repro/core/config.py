"""Configuration for behavior testing.

One frozen dataclass gathers every knob of the paper's schemes with the
paper's experimental defaults, so an experiment is fully described by
(config, trust function, attacker).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["BehaviorTestConfig", "DEFAULT_CONFIG", "AssessorConfig"]

_INSUFFICIENT_POLICIES = ("pass", "fail")

#: Constructor options as declared (any mapping) or as stored (sorted pairs).
OptionsLike = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


@dataclass(frozen=True)
class BehaviorTestConfig:
    """Knobs of the behavior-testing schemes.

    Attributes
    ----------
    window_size:
        ``m``, transactions per window (paper: 10).
    confidence:
        Confidence level for the empirical threshold ε (paper: 0.95).
    calibration_sets:
        Number of Monte-Carlo sample sets used to estimate the null
        distance distribution ("a reasonably large number", Sec. 3.2).
    distance:
        Distribution-distance name (paper: ``"l1"``; see
        :mod:`repro.stats.distances` for alternatives).
    min_windows:
        Multi-testing stops when a suffix has fewer complete windows than
        this ("too small to be statistically significant", Sec. 3.3).
    multi_step:
        ``k`` of Sec. 3.3 — each multi-testing round drops this many of
        the oldest transactions.
    p_quantum:
        Quantization of ``p_hat`` for threshold caching: thresholds are
        calibrated at ``p_hat`` rounded to this grid (0 disables caching
        by p, forcing exact recalibration every call).
    align:
        Window alignment, ``"recent"`` (default, anchors windows at the
        newest transaction so suffixes share boundaries) or ``"oldest"``.
    on_insufficient:
        Verdict when a history is too short to test: ``"pass"`` defers to
        the trust function / other mechanisms (the paper's position is
        that short histories need separate handling), ``"fail"`` treats
        them as suspicious.
    """

    window_size: int = 10
    confidence: float = 0.95
    calibration_sets: int = 400
    distance: str = "l1"
    min_windows: int = 4
    multi_step: int = 50
    p_quantum: float = 0.01
    align: str = "recent"
    on_insufficient: str = "pass"

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError(f"window_size must be positive, got {self.window_size}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.calibration_sets <= 0:
            raise ValueError(
                f"calibration_sets must be positive, got {self.calibration_sets}"
            )
        if self.min_windows <= 0:
            raise ValueError(f"min_windows must be positive, got {self.min_windows}")
        if self.multi_step <= 0:
            raise ValueError(f"multi_step must be positive, got {self.multi_step}")
        if self.p_quantum < 0:
            raise ValueError(f"p_quantum must be non-negative, got {self.p_quantum}")
        if self.align not in ("recent", "oldest"):
            raise ValueError(f"align must be 'recent' or 'oldest', got {self.align!r}")
        if self.on_insufficient not in _INSUFFICIENT_POLICIES:
            raise ValueError(
                f"on_insufficient must be one of {_INSUFFICIENT_POLICIES}, "
                f"got {self.on_insufficient!r}"
            )

    @property
    def min_transactions(self) -> int:
        """Smallest history length the single test will actually judge."""
        return self.window_size * self.min_windows

    def suffix_lengths(self, n: int) -> List[int]:
        """Multi-testing's suffix schedule for an ``n``-transaction history.

        ``[n, n - k, n - 2k, ...]`` down to the statistical-significance
        floor (:attr:`min_transactions`); empty below the floor.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return list(range(n, self.min_transactions - 1, -self.multi_step))

    def with_(self, **changes) -> "BehaviorTestConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The paper's experimental settings.
DEFAULT_CONFIG = BehaviorTestConfig()


def _freeze_options(options: Optional[OptionsLike]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize constructor options to a sorted tuple of (name, value)."""
    if options is None:
        return ()
    items = options.items() if isinstance(options, Mapping) else options
    return tuple(sorted((str(name), value) for name, value in items))


@dataclass(frozen=True)
class AssessorConfig:
    """Declarative description of a two-phase assessor.

    Both phases are referred to *by registry name* (see
    :func:`repro.core.registry.make_behavior_test` and
    :func:`repro.trust.registry.make_trust_function`), so a full assessor
    is serializable configuration rather than wired-up objects:
    ``Assessor.from_config(AssessorConfig(trust_function="beta"))``.

    Attributes
    ----------
    trust_function:
        Registered phase-2 trust-function name (aliases accepted).
    behavior_test:
        Registered phase-1 test name (aliases accepted); ``None`` or
        ``"none"`` disables screening, reducing the assessor to the bare
        trust function.
    trust_threshold:
        Client acceptance threshold over trust values (paper: 0.9).
    test_config:
        Behavior-testing knobs shared by whichever phase-1 test is named.
    behavior_options / trust_options:
        Extra constructor keywords for the named test / trust function.
        Accepts any mapping; stored as a sorted tuple of pairs so the
        config stays hashable and frozen.
    """

    trust_function: str = "average"
    behavior_test: Optional[str] = "multi"
    trust_threshold: float = 0.9
    test_config: BehaviorTestConfig = DEFAULT_CONFIG
    behavior_options: OptionsLike = ()
    trust_options: OptionsLike = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust_threshold <= 1.0:
            raise ValueError(
                f"trust_threshold must lie in [0, 1], got {self.trust_threshold}"
            )
        object.__setattr__(
            self, "behavior_options", _freeze_options(self.behavior_options)
        )
        object.__setattr__(self, "trust_options", _freeze_options(self.trust_options))

    @property
    def behavior_kwargs(self) -> Dict[str, Any]:
        """``behavior_options`` as a constructor-ready dict."""
        return dict(self.behavior_options)

    @property
    def trust_kwargs(self) -> Dict[str, Any]:
        """``trust_options`` as a constructor-ready dict."""
        return dict(self.trust_options)

    def with_(self, **changes) -> "AssessorConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
