"""Phase-attributed profiling: where wall time goes inside a run.

The regression gate (``repro obs diff``) can say *that* a bench got
slower; this module says *where*.  A :class:`PhaseProfiler` is a view
over the spans the active :class:`~repro.obs.tracing.Tracer` finished
during a profiling session (calibration, suffix rounds, distance evals,
reorder, trust update, p2p gossip — whatever the pipeline opened).
Every such span belongs to a *phase*, keyed by the semicolon-joined
span names along its ``parent_id`` chain, and the profiler attributes
to each phase

* **wall time** — cumulative and *self* (duration minus the direct
  children's durations), read straight off the tracer's records;
* **periodic stack samples** — with ``sample_hz=h`` a daemon thread
  wakes ``h`` times a second and reads the tracer's open span stack and
  the profiled thread's current python frame out-of-band
  (``sys._current_frames()``, the py-spy approach).  The profiled
  thread pays nothing beyond its ordinary span bookkeeping, which is
  what keeps the enabled profiler inside the <10% overhead budget
  asserted in ``benchmarks/``.

Exports are flamegraph-compatible folded stacks (``a;b;c 1234`` — feed
them to ``flamegraph.pl`` or speedscope) and a schema-versioned
``PROFILE_*.json`` that ``repro obs report`` renders.

The profiler installs no hook on the span path, so it costs nothing
while no session is open.  Use :func:`profile_session`::

    from repro import obs

    with obs.profile_session(sample_hz=97) as prof:
        run_fig9(quick=True)
    print(obs.render_folded(prof))
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from . import runtime as _runtime
from .tracing import SpanRecord, Tracer

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PhaseStat",
    "PhaseProfiler",
    "profile_session",
    "render_folded",
    "profile_payload",
    "validate_profile_payload",
    "write_profile_json",
    "read_profile_json",
    "write_folded",
    "folded_path_for",
]

PROFILE_SCHEMA_VERSION = 2

PathLike = Union[str, Path]

#: Folded-stack key used for samples taken outside any open span.
UNTRACED = "(untraced)"


@dataclass
class PhaseStat:
    """Aggregated cost of one phase path across all its visits."""

    path: str
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    samples: int = 0

    def as_dict(self) -> Dict[str, object]:
        """The JSON shape stored in ``PROFILE_*.json`` artifacts."""
        return {
            "path": self.path,
            "calls": self.calls,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
            "samples": self.samples,
        }


class PhaseProfiler:
    """Aggregates the spans a tracer finished while it was installed.

    Passive until :meth:`install` binds it to a tracer (default: the
    active one, done by :func:`profile_session`); from then until
    :meth:`uninstall`, every span that tracer finishes is part of the
    profile.
    """

    def __init__(self, *, sample_hz: float = 0.0):
        if sample_hz < 0:
            raise ValueError(f"sample_hz must be non-negative, got {sample_hz}")
        self._hz = float(sample_hz)
        self._tracer: Optional[Tracer] = None
        self._first = 0
        self._last: Optional[int] = None
        self._base_depth = 0
        self._samples: Dict[str, int] = {}
        self._folded: Dict[str, int] = {}
        self._installed = False
        self._sampler: Optional["_PeriodicSampler"] = None

    # -- results -------------------------------------------------------- #

    @property
    def sample_hz(self) -> float:
        """Out-of-band samples per second (0 = periodic sampling off)."""
        return self._hz

    def records(self) -> List[SpanRecord]:
        """The tracer's records finished inside the session."""
        if self._tracer is None:
            return []
        return self._tracer.finished[self._first : self._last]

    def phases(self) -> List[PhaseStat]:
        """Every phase seen so far, most cumulative wall time first."""
        records = self.records()
        by_id = {r.span_id: r for r in records}
        child_s: Dict[int, float] = {}
        for r in records:
            if r.parent_id in by_id:
                child_s[r.parent_id] = child_s.get(r.parent_id, 0.0) + r.duration
        paths: Dict[int, str] = {}

        def path_of(record: SpanRecord) -> str:
            path = paths.get(record.span_id)
            if path is None:
                parent = by_id.get(record.parent_id)
                path = (
                    record.name
                    if parent is None
                    else f"{path_of(parent)};{record.name}"
                )
                paths[record.span_id] = path
            return path

        stats: Dict[str, PhaseStat] = {}
        for r in records:
            path = path_of(r)
            stat = stats.get(path)
            if stat is None:
                stat = stats[path] = PhaseStat(path)
            stat.calls += 1
            stat.wall_s += r.duration
            stat.self_s += max(r.duration - child_s.get(r.span_id, 0.0), 0.0)
        for path, hits in list(self._samples.items()):  # sampler may append
            if path in stats:
                stats[path].samples += hits
        return sorted(stats.values(), key=lambda s: (-s.wall_s, s.path))

    def phase(self, path: str) -> Optional[PhaseStat]:
        """The stats for one exact phase path, or ``None``."""
        return next((s for s in self.phases() if s.path == path), None)

    @property
    def folded_samples(self) -> Dict[str, int]:
        """Sampled folded call stacks (``phase;...;module:function`` → hits)."""
        return dict(self._folded)

    # -- periodic out-of-band sampling ---------------------------------- #

    def _sample(self, target_ident: int) -> None:
        """Take one sample of the open span stack and a thread's frame.

        Runs on the sampler thread: the profiled thread's only cost is
        its ordinary span bookkeeping.  The read races benignly with
        span push/pop under the GIL — a sample landing exactly on a
        boundary may be attributed to the neighbouring phase, which is
        noise a sampling profiler has anyway.
        """
        names = self._tracer.open_names()[self._base_depth :]
        if names:
            prefix = ";".join(names)
            self._samples[prefix] = self._samples.get(prefix, 0) + 1
        else:
            prefix = UNTRACED
        frame = sys._current_frames().get(target_ident)
        if frame is None:
            key = prefix
        else:
            module = frame.f_globals.get("__name__", "?")
            key = f"{prefix};{module}:{frame.f_code.co_name}"
        self._folded[key] = self._folded.get(key, 0) + 1

    # -- lifecycle ------------------------------------------------------ #

    def install(self, tracer: Optional[Tracer] = None) -> None:
        """Start the session on ``tracer`` (default: the active one)."""
        if self._installed:
            raise RuntimeError("profiler is already installed")
        self._installed = True
        self._tracer = tracer if tracer is not None else _runtime.tracer
        self._first = len(self._tracer.finished)
        self._last = None
        # spans already open belong to the caller, not to the profile
        self._base_depth = self._tracer.depth
        if self._hz:
            self._sampler = _PeriodicSampler(self, self._hz, threading.get_ident())
            self._sampler.start()

    def uninstall(self) -> None:
        """End the session: later spans are no longer part of the profile."""
        if not self._installed:
            return
        self._installed = False
        self._last = len(self._tracer.finished)
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None


class _PeriodicSampler(threading.Thread):
    """Daemon thread driving :meth:`PhaseProfiler._sample`."""

    def __init__(self, profiler: PhaseProfiler, hz: float, target_ident: int):
        super().__init__(name="repro-obs-sampler", daemon=True)
        self._profiler = profiler
        self._period = 1.0 / hz
        self._target = target_ident
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def run(self) -> None:
        while not self._halt.wait(self._period):
            self._profiler._sample(self._target)


@contextlib.contextmanager
def profile_session(*, sample_hz: float = 0.0) -> Iterator[PhaseProfiler]:
    """Profile a block: obs collection on, profiler viewing its spans.

    Reuses the ambient obs session when one is active (so the caller's
    tracer still sees the spans), otherwise activates a fresh scoped
    session exactly like the experiment runners do.  The session ends
    and the previous runtime state is restored on exit, even on error.
    """
    profiler = PhaseProfiler(sample_hz=sample_hz)
    if _runtime.is_enabled():
        scope = contextlib.nullcontext()
    else:
        scope = _runtime.activate()
    with scope:
        profiler.install()
        try:
            yield profiler
        finally:
            profiler.uninstall()


# ---------------------------------------------------------------------- #
# exports


def render_folded(profile: PhaseProfiler, *, source: str = "wall") -> str:
    """Flamegraph-compatible folded stacks, one ``path count`` per line.

    ``source="wall"`` emits one line per phase weighted by *self* time in
    microseconds (the span tree as a flamegraph); ``source="samples"``
    emits the sampled call stacks (phase path + called function) weighted
    by hit count — empty unless the profiler ran with ``sample_hz``.
    """
    if source == "wall":
        lines = [
            f"{stat.path} {max(int(round(stat.self_s * 1e6)), 0)}"
            for stat in sorted(profile.phases(), key=lambda s: s.path)
        ]
    elif source == "samples":
        folded = profile.folded_samples
        lines = [f"{path} {folded[path]}" for path in sorted(folded)]
    else:
        raise ValueError(f"source must be 'wall' or 'samples', got {source!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def profile_payload(
    name: str,
    profile: PhaseProfiler,
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble (and validate) a ``PROFILE_*.json`` artifact payload."""
    payload: Dict[str, object] = {
        "profile": name,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "sample_hz": profile.sample_hz,
        "phases": [stat.as_dict() for stat in profile.phases()],
        "folded_samples": profile.folded_samples,
    }
    validate_profile_payload(payload)
    return payload


def validate_profile_payload(payload: object) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid profile artifact."""
    if not isinstance(payload, dict):
        raise ValueError("profile payload must be a JSON object")
    for key in ("profile", "schema_version", "meta", "phases", "folded_samples"):
        if key not in payload:
            raise ValueError(f"profile payload missing key {key!r}")
    if not isinstance(payload["profile"], str) or not payload["profile"]:
        raise ValueError("'profile' must be a non-empty string")
    if payload["schema_version"] != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {payload['schema_version']!r}; "
            f"expected {PROFILE_SCHEMA_VERSION}"
        )
    if not isinstance(payload["meta"], dict):
        raise ValueError("'meta' must be an object")
    phases = payload["phases"]
    if not isinstance(phases, list):
        raise ValueError("'phases' must be a list")
    for i, phase in enumerate(phases):
        if not isinstance(phase, dict):
            raise ValueError(f"phases[{i}] must be an object")
        if not isinstance(phase.get("path"), str) or not phase["path"]:
            raise ValueError(f"phases[{i}].path must be a non-empty string")
        for stat in ("calls", "wall_s", "self_s", "samples"):
            value = phase.get(stat)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"phases[{i}].{stat} must be a number, got {value!r}"
                )
    folded = payload["folded_samples"]
    if not isinstance(folded, dict):
        raise ValueError("'folded_samples' must be an object")


def write_profile_json(
    path: PathLike,
    name: str,
    profile: PhaseProfiler,
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Validate and write a ``PROFILE_<name>.json``; returns the payload."""
    payload = profile_payload(name, profile, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")
    return payload


def read_profile_json(path: PathLike) -> Dict[str, object]:
    """Load and validate a profile artifact."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_profile_payload(payload)
    return payload


def folded_path_for(profile_path: PathLike) -> Path:
    """The sibling ``.folded`` path of a ``PROFILE_*.json`` artifact."""
    return Path(profile_path).with_suffix(".folded")


def write_folded(
    path: PathLike, profile: PhaseProfiler, *, source: str = "wall"
) -> None:
    """Write :func:`render_folded` output (default: phase self-times)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_folded(profile, source=source))
