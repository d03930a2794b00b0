"""Global fault-injection state and the hot-path entry points.

Mirrors :mod:`repro.obs.runtime`: instrumented code checks one
module-level flag before doing anything, so the fully disabled path
costs a single attribute read per site:

    from ..resilience import runtime as _res
    ...
    if _res.armed:
        _res.inject("core.calibration")

:func:`activate` scopes a :class:`~repro.resilience.faults.FaultPlan`
(and an optional :class:`~repro.obs.events.EventLog` for structured
resilience events) to a ``with`` block and restores the previous state
on exit — chaos tests arm faults without permanently flipping the
global switch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..obs import context as _ctx
from ..obs import runtime as _obs
from ..obs import scope as _scope
from ..obs.events import EventLog
from .faults import FaultPlan, FaultSpec, InjectedFault

__all__ = [
    "armed",
    "plan",
    "events",
    "activate",
    "check",
    "inject",
    "corrupt_text",
    "corrupt_row",
    "emit",
]

#: Master switch — instrumented sites check this before any other work.
armed: bool = False

#: The active fault plan (``None`` unless a chaos run armed one).
plan: Optional[FaultPlan] = None

#: Optional structured-event sink for resilience events (faults fired,
#: degradations, quarantines, breaker transitions).  ``None`` routes
#: events to obs counters only.
events: Optional[EventLog] = None


@contextmanager
def activate(
    fault_plan: Optional[FaultPlan] = None,
    event_log: Optional[EventLog] = None,
) -> Iterator[Optional[FaultPlan]]:
    """Arm ``fault_plan`` (and ``event_log``) within a ``with`` block."""
    global armed, plan, events
    saved = (armed, plan, events)
    plan = fault_plan
    events = event_log
    armed = fault_plan is not None
    try:
        yield plan
    finally:
        armed, plan, events = saved


def check(site: str) -> Optional[FaultSpec]:
    """Consult the plan for ``site``; the fired spec, or ``None``.

    Low-level entry point for call sites with native failure semantics
    (e.g. the network maps a fired fault onto a message drop or a dead
    node).  Emits the
    ``fault_injected`` event for every fired fault.
    """
    if plan is None:
        return None
    spec = plan.decide(site)
    if spec is not None:
        emit("fault_injected", site=site, mode=spec.mode)
    return spec


def inject(site: str, value: Any = None) -> Any:
    """Default fault semantics for ``site``; returns ``value`` (possibly
    corrupted).

    * ``exception`` / ``crash`` → raise :class:`InjectedFault`;
    * ``delay`` → sleep ``spec.delay_s``, then return ``value``;
    * ``corrupt`` → return a damaged copy of ``value`` (text is
      truncated, mapping rows get an unparseable rating).
    """
    spec = check(site)
    if spec is None:
        return value
    if spec.mode in ("exception", "crash"):
        raise InjectedFault(site, spec.mode, plan.counts()[site]["invocations"] - 1)
    if spec.mode == "delay":
        if spec.delay_s > 0:
            time.sleep(spec.delay_s)
        return value
    # corrupt
    if isinstance(value, str):
        return corrupt_text(value)
    if isinstance(value, dict):
        return corrupt_row(value)
    return value


def corrupt_text(text: str) -> str:
    """Deterministically damage a text payload (truncate to half)."""
    return text[: len(text) // 2]


def corrupt_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """Deterministically damage a parsed feedback row."""
    damaged = dict(row)
    damaged["rating"] = "<injected-corruption>"
    return damaged


def emit(event: str, **fields: object) -> None:
    """Record one structured resilience event.

    Lands in the scoped :data:`events` log when one is active, and in
    the obs counter ``resilience.events`` (labelled by event name)
    whenever obs collection is on — so ``repro obs report`` and the
    chaos determinism suite see the same stream.

    When the calling flow carries a
    :class:`~repro.obs.context.TraceContext`, the event is additionally
    stamped with its ``trace_id`` and attached to the innermost open
    span as an annotated span event — this one funnel is what turns
    retry attempts, breaker flips, degradations, and calibration
    fallbacks into trace-visible annotations.
    """
    ctx = _ctx.current()
    if ctx is not None and "trace_id" not in fields:
        fields = dict(fields, trace_id=ctx.trace_id)
    if _scope.active and "node" not in fields:
        # node-scoped attribution mirrors the trace_id stamp: events
        # emitted while a node scope is open are attributable per node
        node = _scope.current_node()
        if node is not None:
            fields = dict(fields, node=node)
    if ctx is not None or _obs.enabled:
        _obs.span_event(event, **fields)
    if events is not None:
        events.emit(event, **fields)
    if _obs.enabled:
        _obs.registry.inc("resilience.events", event=event)
