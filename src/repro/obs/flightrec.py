"""Crash flight recorder: bounded recent history, dumped on failure.

When the serving path raises a resilience error, a breaker opens, or
the process catches a fatal signal, the question is always "what did
the system look like *just before*?" — and until now the answer died
with the process.  A :class:`FlightRecorder` keeps bounded rings of

* recent finished **spans** (fed by the obs runtime's span exit path,
  the same records the span sink writes), and
* recent structured **events** (fed by the resilience emit funnel and
  any :class:`~repro.obs.events.EventLog` opted in),

and on a trigger writes one schema-validated **post-mortem bundle**: the
trace-tree tail, the last-N events, and the active fault plan.
Triggers:

* a :class:`~repro.resilience.faults.ResilienceError` escaping the
  serving path (``AssessmentService`` dumps before raising);
* a circuit breaker opening (the resilience emit funnel forwards every
  event into the ring; ``breaker_open`` is a trigger event);
* a fatal signal (:meth:`install_signal_handlers`, opt-in).

Install with :func:`flight_recording` (scoped) or by assigning
``obs.runtime.flight_recorder`` directly; dumps are throttled by
``min_dump_interval_s`` so a failure storm produces a handful of
bundles, not thousands.  ``repro obs report <bundle>`` renders a
bundle back into human form.
"""

from __future__ import annotations

import json
import signal
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .events import run_metadata

__all__ = [
    "POSTMORTEM_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_recording",
    "read_postmortem",
    "validate_postmortem_bundle",
    "render_postmortem",
]

POSTMORTEM_SCHEMA_VERSION = 2

PathLike = Union[str, Path]

#: Structured events whose arrival triggers a bundle dump.
DEFAULT_TRIGGER_EVENTS = ("breaker_open",)

#: How many of a bundle's most recent events :func:`render_postmortem` shows.
EVENT_TAIL = 20


class FlightRecorder:
    """Bounded rings of recent spans/events plus post-mortem dumping.

    Parameters
    ----------
    out_dir:
        Directory bundles are written into (created on first dump) as
        ``POSTMORTEM_<seq>_<reason>.json``.
    max_spans / max_events:
        Ring sizes.
    trigger_events:
        Event names that trigger a dump on arrival (via
        :meth:`record_event`); default ``("breaker_open",)``.
    min_dump_interval_s:
        Dump throttle: triggers inside the window are counted
        (:attr:`n_suppressed`) but produce no bundle.
    clock:
        Injectable wall clock (tests).
    """

    def __init__(
        self,
        out_dir: PathLike,
        *,
        max_spans: int = 256,
        max_events: int = 512,
        trigger_events=DEFAULT_TRIGGER_EVENTS,
        min_dump_interval_s: float = 5.0,
        clock=time.time,
    ):
        if max_spans < 1 or max_events < 1:
            raise ValueError("ring sizes must be >= 1")
        if min_dump_interval_s < 0:
            raise ValueError(
                f"min_dump_interval_s must be non-negative, got {min_dump_interval_s}"
            )
        self.out_dir = Path(out_dir)
        self.trigger_events = frozenset(trigger_events)
        self.min_dump_interval_s = min_dump_interval_s
        self._clock = clock
        self._spans: deque = deque(maxlen=max_spans)
        self._events: deque = deque(maxlen=max_events)
        self._last_dump: Optional[float] = None
        self._seq = 0
        self._prev_handlers: Dict[int, object] = {}
        self.n_triggers = 0
        self.n_suppressed = 0
        #: Paths of every bundle written, in order.
        self.dumps: List[Path] = []

    # -- feeding the rings ---------------------------------------------- #

    def record_span(self, span: Dict[str, object]) -> None:
        """Append one finished span (the JSONL line shape)."""
        self._spans.append(span)

    def record_event(self, event: Dict[str, object]) -> None:
        """Append one structured event; trigger events dump a bundle."""
        self._events.append(event)
        name = event.get("event")
        if isinstance(name, str) and name in self.trigger_events:
            self.dump(reason=name, trigger_event=dict(event))

    # -- signal hook ---------------------------------------------------- #

    def install_signal_handlers(self, signals=("SIGTERM", "SIGINT")) -> List[str]:
        """Dump a bundle when a fatal signal arrives, then re-raise it.

        Returns the names actually hooked (signals the platform lacks,
        or that cannot be hooked off the main thread, are skipped).
        The previous handler is chained when callable; otherwise the
        default disposition is restored and the signal re-sent so the
        process still dies with the right status.
        """
        hooked = []
        for name in signals:
            signum = getattr(signal, name, None)
            if signum is None:
                continue
            try:
                previous = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # non-main thread / unsupported
                continue
            self._prev_handlers[signum] = previous
            hooked.append(name)
        return hooked

    def uninstall_signal_handlers(self) -> None:
        """Restore the handlers replaced by :meth:`install_signal_handlers`."""
        for signum, previous in self._prev_handlers.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        self._prev_handlers.clear()

    def _on_signal(self, signum, frame) -> None:
        self.dump(reason="fatal_signal", signal=int(signum), force=True)
        previous = self._prev_handlers.get(signum)
        if callable(previous):
            previous(signum, frame)
            return
        # restore the default disposition and re-send: the process dies
        # with the conventional signal exit status
        signal.signal(signum, signal.SIG_DFL)
        import os

        os.kill(os.getpid(), signum)

    # -- dumping -------------------------------------------------------- #

    def dump(
        self, *, reason: str, force: bool = False, **info: object
    ) -> Optional[Path]:
        """Write a post-mortem bundle now; ``None`` when throttled."""
        self.n_triggers += 1
        now = self._clock()
        if (
            not force
            and self._last_dump is not None
            and now - self._last_dump < self.min_dump_interval_s
        ):
            self.n_suppressed += 1
            return None
        self._last_dump = now
        self._seq += 1
        bundle = self.bundle(reason=reason, **info)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        safe_reason = "".join(c if c.isalnum() or c in "-_" else "_" for c in reason)
        path = self.out_dir / f"POSTMORTEM_{self._seq:03d}_{safe_reason}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
        self.dumps.append(path)
        return path

    def bundle(self, *, reason: str, **info: object) -> Dict[str, object]:
        """The post-mortem payload (also what :meth:`dump` writes)."""
        payload: Dict[str, object] = {
            "postmortem": POSTMORTEM_SCHEMA_VERSION,
            "reason": reason,
            "info": {k: v for k, v in info.items()},
            "meta": run_metadata(),
            "spans": [dict(s) for s in self._spans],
            "events": [dict(e) for e in self._events],
            "fault_plan": self._fault_plan_state(),
        }
        return payload

    def _fault_plan_state(self) -> Optional[Dict[str, object]]:
        # lazy import: resilience.runtime imports obs modules at import
        # time, so the reverse edge must not exist at module level
        from ..resilience import runtime as _res

        if _res.plan is None:
            return None
        return {
            "seed": _res.plan.seed,
            "specs": {
                site: {
                    "mode": spec.mode,
                    "probability": spec.probability,
                    "max_fires": spec.max_fires,
                    "after": spec.after,
                    "delay_s": spec.delay_s,
                }
                for site, spec in _res.plan.specs.items()
            },
            "counts": _res.plan.counts(),
        }


@contextmanager
def flight_recording(
    out_dir: PathLike, **recorder_kwargs
) -> Iterator[FlightRecorder]:
    """Install a :class:`FlightRecorder` globally for a ``with`` block.

    The recorder lands in ``obs.runtime.flight_recorder`` (where the
    span exit path and the resilience emit funnel find it) and the
    previous recorder is restored on exit.
    """
    from . import runtime as _rt

    recorder = FlightRecorder(out_dir, **recorder_kwargs)
    saved = _rt.flight_recorder
    _rt.flight_recorder = recorder
    try:
        yield recorder
    finally:
        _rt.flight_recorder = saved


# ---------------------------------------------------------------------- #
# bundle round trip: read, validate, render


def read_postmortem(path: PathLike) -> Dict[str, object]:
    """Load and schema-validate a post-mortem bundle."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    validate_postmortem_bundle(payload)
    return payload


def validate_postmortem_bundle(payload: Dict[str, object]) -> None:
    """Schema check; raises ``ValueError`` naming the offending path."""
    if not isinstance(payload, dict):
        raise ValueError("bundle must be a JSON object")
    if payload.get("postmortem") != POSTMORTEM_SCHEMA_VERSION:
        raise ValueError(
            f"postmortem: expected schema version {POSTMORTEM_SCHEMA_VERSION}, "
            f"got {payload.get('postmortem')!r}"
        )
    if not isinstance(payload.get("reason"), str) or not payload["reason"]:
        raise ValueError("reason: expected a non-empty string")
    if not isinstance(payload.get("meta"), dict):
        raise ValueError("meta: expected an object")
    for key in ("spans", "events"):
        value = payload.get(key)
        if not isinstance(value, list):
            raise ValueError(f"{key}: expected a list")
        for i, item in enumerate(value):
            if not isinstance(item, dict):
                raise ValueError(f"{key}[{i}]: expected an object")
    plan = payload.get("fault_plan")
    if plan is not None and not isinstance(plan, dict):
        raise ValueError("fault_plan: expected an object or null")


def render_postmortem(payload: Dict[str, object]) -> str:
    """A bundle as the text report behind ``repro obs report``."""
    from .export import render_trace_tree, trace_ids

    lines: List[str] = []
    meta = payload.get("meta") or {}
    lines.append(f"post-mortem: {payload.get('reason')}")
    info = payload.get("info") or {}
    if info:
        lines.append(
            "  " + "  ".join(f"{k}={v}" for k, v in sorted(info.items()))
        )
    interesting = {
        k: meta[k]
        for k in ("timestamp", "git_rev", "python", "seed")
        if isinstance(meta, dict) and meta.get(k) is not None
    }
    if interesting:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in interesting.items()))

    spans = payload.get("spans") or []
    lines.append("")
    if spans:
        ids = trace_ids(spans)
        lines.append(f"trace tail: {len(spans)} span(s), {len(ids)} trace(s)")
        if ids:
            # render the most recent trace's tree — the one that died
            try:
                tree = render_trace_tree(spans, ids[-1], prefix_match=False)
            except ValueError:  # pragma: no cover - ids come from spans
                tree = ""
            if tree:
                lines.extend("  " + line for line in tree.splitlines())
    else:
        lines.append("trace tail: (no spans recorded)")

    events = payload.get("events") or []
    lines.append("")
    if events:
        shown = events[-EVENT_TAIL:]
        lines.append(f"events (last {len(shown)} of {len(events)}):")
        for event in shown:
            name = event.get("event", "?")
            attrs = {
                k: v
                for k, v in event.items()
                if k not in ("event", "time") and v is not None
            }
            attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(f"  {name}  {attr_text}".rstrip())
    else:
        lines.append("events: (none recorded)")

    plan = payload.get("fault_plan")
    lines.append("")
    if plan:
        counts = plan.get("counts") or {}
        specs = plan.get("specs") or {}
        lines.append(f"active fault plan (seed {plan.get('seed')}):")
        for site in sorted(specs):
            spec = specs[site]
            count = counts.get(site, {})
            lines.append(
                f"  {site}: mode={spec.get('mode')} "
                f"p={spec.get('probability')} "
                f"fired {count.get('fires', 0)}/{count.get('invocations', 0)}"
            )
    else:
        lines.append("active fault plan: (none)")
    return "\n".join(lines)
