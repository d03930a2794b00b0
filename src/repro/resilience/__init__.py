"""repro.resilience — fault injection and recovery for the pipeline.

Production-scale serving of trust assessments has to survive lossy,
partially-failing infrastructure: corrupted cache files, malformed
feedback rows, failed calibrations, dropped messages.  This package
provides both halves of that story:

* **Fault injection** — a seeded, replayable
  :class:`~repro.resilience.faults.FaultPlan` arming named sites
  (``serve.cache.load``, ``feedback.io.row``, ``feedback.ledger.fold``,
  ``p2p.network.send``, ``p2p.network.kill``, ``core.calibration``)
  with crash/corrupt/delay/exception faults, scoped with
  :func:`~repro.resilience.runtime.activate`;
* **Recovery policies** — :class:`RetryPolicy` (exponential backoff,
  deterministic jitter), :class:`CircuitBreaker` (per cluster peer),
  and a bounded :class:`Quarantine` for bad input;
* **Health** — every policy emits its activity as structured events
  (:func:`~repro.resilience.runtime.emit`); ``repro obs report`` on a
  run's event log counts them by name and by fault site.

Fault checking is **off by default** and costs one module-attribute
read per site when disarmed — the same zero-overhead discipline as
:mod:`repro.obs`.  See ``docs/RESILIENCE.md`` for the recovery paths
and how to replay a chaos seed.
"""

from __future__ import annotations

from .breaker import CircuitBreaker
from .faults import (
    FAULT_MODES,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResilienceError,
)
from .quarantine import Quarantine, QuarantinedItem
from .retry import RetryExhausted, RetryPolicy
from .runtime import activate, check, emit, inject

__all__ = [
    "FAULT_MODES",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ResilienceError",
    "CircuitBreaker",
    "Quarantine",
    "QuarantinedItem",
    "RetryExhausted",
    "RetryPolicy",
    "activate",
    "check",
    "emit",
    "inject",
]
