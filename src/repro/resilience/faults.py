"""Deterministic, seeded fault injection for the serving pipeline.

Real reputation overlays run on lossy, partially-failing infrastructure
(EigenTrust and PeerTrust both assume it); the paper's honest-player
guarantees only matter if the assessor keeps answering under those
conditions.  This module provides the *controlled* version of that
chaos: a :class:`FaultPlan` arms named injection sites with
crash/corrupt/delay/exception faults, every decision is drawn from a
per-site generator derived deterministically from the plan seed, and the
full decision sequence is recorded in :attr:`FaultPlan.log` — so a chaos
run replays exactly, fault for fault, from nothing but its seed.

Sites are dotted names chosen where production failures actually land:

========================  ==============================================
``serve.cache.load``      the persisted calibration cache is corrupt
``feedback.io.row``       one row of a feedback file is malformed
``feedback.ledger.fold``  a ledger event cannot be folded
``p2p.network.send``      a network request is lost or errors out
``p2p.network.kill``      the destination node dies mid-request
``core.calibration``      the Monte-Carlo calibration pass fails
========================  ==============================================

Instrumented code pays one module-attribute read when nothing is armed
(the same discipline as :mod:`repro.obs.runtime`); see
:mod:`repro.resilience.runtime` for the hot-path entry points.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stats.rng import make_rng

__all__ = [
    "FAULT_SITES",
    "FAULT_MODES",
    "InjectedFault",
    "ResilienceError",
    "FaultSpec",
    "FaultPlan",
]

#: The named injection sites wired into the pipeline.
FAULT_SITES: Tuple[str, ...] = (
    "serve.cache.load",
    "feedback.io.row",
    "feedback.ledger.fold",
    "p2p.network.send",
    "p2p.network.kill",
    "core.calibration",
)

#: ``exception`` raises :class:`InjectedFault`; ``crash`` simulates a
#: dead node or process (call sites map it onto their native failure,
#: e.g. a dropped network message); ``corrupt`` damages the in-flight
#: value (text, row, or message); ``delay`` sleeps for ``delay_s``.
FAULT_MODES: Tuple[str, ...] = ("exception", "crash", "corrupt", "delay")


class InjectedFault(RuntimeError):
    """An artificial failure raised at an armed injection site."""

    def __init__(self, site: str, mode: str, index: int):
        super().__init__(f"injected {mode} fault at {site} (invocation {index})")
        self.site = site
        self.mode = mode
        self.index = index


class ResilienceError(RuntimeError):
    """A failure that exhausted every recovery path.

    Carries the originating ``site`` and the per-step ``attempts`` list
    ``[(step, repr(error)), ...]`` so operators see one structured error
    instead of a bare traceback from deep inside the pipeline.
    """

    def __init__(self, site: str, attempts: List[Tuple[str, str]], message: str = ""):
        detail = "; ".join(f"{step}: {err}" for step, err in attempts)
        super().__init__(
            message or f"no recovery path left for fault at {site} ({detail})"
        )
        self.site = site
        self.attempts = list(attempts)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, what kind, and how often it fires."""

    site: str
    mode: str = "exception"
    #: Per-invocation firing probability (1.0 = every invocation).
    probability: float = 1.0
    #: Stop firing after this many faults (``None`` = unbounded).
    max_fires: Optional[int] = None
    #: Skip the first ``after`` invocations before the fault can fire.
    after: int = 0
    #: Sleep duration for ``delay`` faults.
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {FAULT_SITES}"
            )
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known modes: {FAULT_MODES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be non-negative, got {self.max_fires}")
        if self.after < 0:
            raise ValueError(f"after must be non-negative, got {self.after}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {self.delay_s}")


@dataclass
class _SiteState:
    """Mutable per-site bookkeeping of one plan run."""

    spec: FaultSpec
    invocations: int = 0
    fires: int = 0
    rng: object = None


class FaultPlan:
    """A seeded, replayable schedule of faults across injection sites.

    Each armed site draws its fire/skip decisions from its own generator
    seeded by ``(seed, crc32(site))``, so the per-site fault sequence
    depends only on the plan seed and that site's invocation order —
    interleaving with other sites cannot perturb it.  Every decision is
    appended to :attr:`log` as ``(site, invocation_index, fired, mode)``,
    which is what the determinism suite compares across runs.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._sites: Dict[str, _SiteState] = {}
        #: Chronological decision log: ``(site, index, fired, mode)``.
        self.log: List[Tuple[str, int, bool, str]] = []

    @property
    def seed(self) -> int:
        """The seed every per-site decision stream derives from."""
        return self._seed

    @property
    def specs(self) -> Dict[str, FaultSpec]:
        """The armed specs, by site."""
        return {site: state.spec for site, state in self._sites.items()}

    def arm(self, site, mode: str = "exception", **spec_fields) -> FaultSpec:
        """Arm a fault; returns the normalized spec.

        Accepts either a prebuilt :class:`FaultSpec` or
        ``(site, mode, **spec_fields)`` to build one in place.
        """
        if isinstance(site, FaultSpec):
            if mode != "exception" or spec_fields:
                raise TypeError(
                    "pass either a FaultSpec or site/mode fields, not both"
                )
            spec = site
        else:
            spec = FaultSpec(site=site, mode=mode, **spec_fields)
        site = spec.site
        self._sites[site] = _SiteState(
            spec=spec,
            rng=make_rng([self._seed, zlib.crc32(site.encode("utf-8"))]),
        )
        return spec

    def disarm(self, site: str) -> None:
        """Remove the fault armed at ``site`` (no-op when absent)."""
        self._sites.pop(site, None)

    def decide(self, site: str) -> Optional[FaultSpec]:
        """One invocation of ``site``: fire the armed fault or pass.

        Returns the spec when the fault fires, ``None`` otherwise.  The
        decision (either way) is appended to :attr:`log` for armed
        sites; un-armed sites cost a dict miss and log nothing.
        """
        state = self._sites.get(site)
        if state is None:
            return None
        index = state.invocations
        state.invocations += 1
        spec = state.spec
        fired = index >= spec.after and (
            spec.max_fires is None or state.fires < spec.max_fires
        )
        if fired and spec.probability < 1.0:
            fired = float(state.rng.random()) < spec.probability
        if fired:
            state.fires += 1
        self.log.append((site, index, fired, spec.mode))
        return spec if fired else None

    def counts(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"invocations": ..., "fires": ...}`` totals."""
        return {
            site: {"invocations": state.invocations, "fires": state.fires}
            for site, state in self._sites.items()
        }

    def reset(self) -> None:
        """Rewind the plan to its freshly-armed state (same seed)."""
        self.log.clear()
        for site, state in self._sites.items():
            state.invocations = 0
            state.fires = 0
            state.rng = make_rng([self._seed, zlib.crc32(site.encode("utf-8"))])
