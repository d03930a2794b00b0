"""Live run monitoring: heartbeats, progress, RSS, and a text dashboard.

Long simulations (fig5–7 sweeps, p2p scale benches) are black boxes
until they finish; this module opens them up.  A :class:`ProgressMonitor`
wraps the run's :class:`~repro.obs.events.EventLog` and emits

* ``progress_start`` — the declared total and a first RSS reading;
* ``heartbeat`` — done/total, % complete, throughput (overall and since
  the previous heartbeat) for every tracked counter, ETA, and RSS;
* ``progress_end`` — final totals and wall time;

throttled by elapsed time and/or tick count so a tight loop costs one
comparison per tick.  Because heartbeats flow through the ordinary JSONL
event stream, a *separate process* can watch the run: ``repro obs top
run.jsonl`` tails the file and renders :func:`render_dashboard` in
place until the run ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from .events import EventLog

__all__ = [
    "rss_bytes",
    "ProgressMonitor",
    "read_events_lenient",
    "render_dashboard",
    "render_sparkline",
    "tail_dashboard",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def rss_bytes() -> Optional[int]:
    """The process's resident set size, or ``None`` when unavailable.

    Prefers ``/proc/self/status`` (current RSS, linux); falls back to
    ``resource.ru_maxrss`` (lifetime peak — close enough for a
    monotonically growing simulation).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):
        return None
    # ru_maxrss is kilobytes on linux, bytes on macOS
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def read_events_lenient(path: Union[str, Path]):
    """Load an event JSONL file, skipping rows a strict read would reject.

    A live dashboard must not die because the producer wrote half a line,
    a log rotated mid-row, or an experiment crashed while flushing — so
    unparsable lines and non-event objects are *skipped and counted*
    (the same policy ``obs trend`` applies to result files) instead of
    raising.  Returns ``(events, skipped)``.
    """
    events: List[Dict[str, object]] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict) or "event" not in record:
                skipped += 1
                continue
            events.append(record)
    return events, skipped


class ProgressMonitor:
    """Emit throttled heartbeat/progress events into an event log.

    ``total`` is the number of ticks the run expects (``None`` when
    unknown — the dashboard then shows counts without a bar or ETA).
    ``interval_seconds`` / ``interval_ticks`` throttle heartbeats; either
    may be ``None`` to disable that trigger (tick-based throttling keeps
    test runs deterministic).  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        log: EventLog,
        *,
        total: Optional[int] = None,
        label: str = "ticks",
        interval_seconds: Optional[float] = 1.0,
        interval_ticks: Optional[int] = None,
        clock=time.perf_counter,
    ):
        if total is not None and total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        if interval_seconds is None and interval_ticks is None:
            raise ValueError("need interval_seconds and/or interval_ticks")
        if interval_seconds is not None and interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if interval_ticks is not None and interval_ticks < 1:
            raise ValueError("interval_ticks must be >= 1")
        self._log = log
        self._total = total
        self._label = label
        self._interval_s = interval_seconds
        self._interval_t = interval_ticks
        self._clock = clock
        self._started: Optional[float] = None
        self._done = 0
        self._counts: Dict[str, float] = {}
        self._last_time = 0.0
        self._last_done = 0
        self._last_counts: Dict[str, float] = {}
        self._heartbeats = 0
        self._finished = False

    @property
    def done(self) -> int:
        """Ticks recorded so far."""
        return self._done

    @property
    def heartbeats(self) -> int:
        """Heartbeat events emitted so far."""
        return self._heartbeats

    def start(self, **fields: object) -> Dict[str, object]:
        """Open the progress stream (called implicitly by first tick)."""
        self._started = self._clock()
        self._last_time = self._started
        return self._log.emit(
            "progress_start",
            total=self._total,
            label=self._label,
            rss_bytes=rss_bytes(),
            **fields,
        )

    def tick(self, n: int = 1, **counts: float) -> None:
        """Record ``n`` units of progress plus named counter increments."""
        if self._started is None:
            self.start()
        self._done += n
        for name, amount in counts.items():
            self._counts[name] = self._counts.get(name, 0) + amount
        if self._due():
            self.heartbeat()

    def _due(self) -> bool:
        if (
            self._interval_t is not None
            and self._done - self._last_done >= self._interval_t
        ):
            return True
        return (
            self._interval_s is not None
            and self._clock() - self._last_time >= self._interval_s
        )

    def heartbeat(self, **fields: object) -> Dict[str, object]:
        """Emit one heartbeat now, regardless of throttling."""
        if self._started is None:
            self.start()
        now = self._clock()
        elapsed = now - self._started
        window = now - self._last_time
        rates: Dict[str, Optional[float]] = {}
        recent: Dict[str, Optional[float]] = {}
        tracked = [(self._label, self._done, self._last_done)]
        tracked += [
            (name, count, self._last_counts.get(name, 0.0))
            for name, count in sorted(self._counts.items())
        ]
        for name, count, last in tracked:
            key = f"{name}_per_s"
            rates[key] = count / elapsed if elapsed > 0 else None
            recent[key] = (count - last) / window if window > 0 else None
        overall = rates.get(f"{self._label}_per_s")
        pct = None
        eta = None
        if self._total:
            pct = 100.0 * self._done / self._total
            if overall:
                eta = max(self._total - self._done, 0) / overall
        record = self._log.emit(
            "heartbeat",
            done=self._done,
            total=self._total,
            label=self._label,
            pct=pct,
            elapsed_s=elapsed,
            eta_s=eta,
            rss_bytes=rss_bytes(),
            rates=rates,
            recent=recent,
            counts=dict(self._counts),
            **fields,
        )
        self._heartbeats += 1
        self._last_time = now
        self._last_done = self._done
        self._last_counts = dict(self._counts)
        return record

    def finish(self, **fields: object) -> Dict[str, object]:
        """Emit a final heartbeat plus the closing ``progress_end``."""
        if self._started is None:
            self.start()
        self.heartbeat()
        self._finished = True
        return self._log.emit(
            "progress_end",
            done=self._done,
            total=self._total,
            label=self._label,
            elapsed_s=self._clock() - self._started,
            counts=dict(self._counts),
            rss_bytes=rss_bytes(),
            **fields,
        )

    def close(self, **fields: object) -> Optional[Dict[str, object]]:
        """Finish the stream unless already finished (then a no-op).

        The safe teardown call for ``finally`` blocks: ticks recorded
        since the last heartbeat still reach the log (via the final
        heartbeat :meth:`finish` emits), a monitor that never started
        emits nothing, and closing twice emits nothing twice.
        """
        if self._finished or self._started is None:
            return None
        return self.finish(**fields)

    def __enter__(self) -> "ProgressMonitor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------- #
# dashboard rendering


def _fmt_bytes(n: Optional[object]) -> str:
    if not isinstance(n, (int, float)):
        return "?"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{value:.0f} B"
        value /= 1024
    return "?"  # pragma: no cover - loop always returns


def _fmt_seconds(s: Optional[object]) -> str:
    if not isinstance(s, (int, float)):
        return "?"
    s = float(s)
    if s < 60:
        return f"{s:.1f}s"
    minutes, seconds = divmod(s, 60.0)
    if minutes < 60:
        return f"{int(minutes)}m{seconds:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"


def _fmt_rate(value: Optional[object]) -> str:
    if not isinstance(value, (int, float)):
        return "?"
    return f"{float(value):,.1f}"


def render_dashboard(
    events: List[Dict[str, object]],
    *,
    now: Optional[float] = None,
    width: int = 40,
    skipped: int = 0,
    history: bool = True,
) -> str:
    """A run's event stream as a compact text dashboard.

    Works on *partial* logs (a run still in flight): renders the latest
    heartbeat, the progress bar, throughput (with sparkline history over
    the recorded heartbeats when ``history`` is on), ETA, and RSS, plus
    how stale the last event is; a ``run_end`` with ``status="error"``
    renders as failed.  ``skipped`` (from
    :func:`read_events_lenient`) is surfaced as a notice, never an
    error.  ``now`` is injectable for tests.
    """
    now = time.time() if now is None else now
    events = [e for e in events if isinstance(e, dict)]
    run_start = next((e for e in events if e.get("event") == "run_start"), None)
    start = next((e for e in events if e.get("event") == "progress_start"), None)
    beats = [e for e in events if e.get("event") == "heartbeat"]
    end = next((e for e in events if e.get("event") == "progress_end"), None)
    failed = next(
        (
            e
            for e in events
            if e.get("event") == "run_end" and e.get("status") == "error"
        ),
        None,
    )

    lines: List[str] = []
    if skipped:
        lines.append(f"(skipped {skipped} malformed log line(s))")
    if run_start is not None:
        interesting = {
            k: run_start[k]
            for k in ("experiment", "tool", "seed", "git_rev", "config_hash")
            if run_start.get(k) is not None
        }
        rendered = "  ".join(f"{k}={v}" for k, v in interesting.items())
        lines.append(f"run: {rendered}" if rendered else "run: (no metadata)")
    if start is None and not beats:
        lines.append(f"(no progress events yet; {len(events)} event(s) in log)")
        return "\n".join(lines)

    last = beats[-1] if beats else None
    label = str((last or start or {}).get("label", "ticks"))
    done = (last or {}).get("done", 0)
    total = (last or start or {}).get("total")
    pct = (last or {}).get("pct")
    if isinstance(pct, (int, float)) and isinstance(total, (int, float)):
        filled = int(width * min(max(pct / 100.0, 0.0), 1.0))
        bar = "#" * filled + "-" * (width - filled)
        lines.append(f"[{bar}] {float(pct):5.1f}%  {done}/{int(total)} {label}")
    else:
        lines.append(f"progress: {done} {label} (total unknown)")

    if last is not None:
        rates = last.get("rates") or {}
        recent = last.get("recent") or {}
        if isinstance(rates, dict) and rates:
            parts = []
            for key in rates:
                part = f"{key} {_fmt_rate(rates[key])}"
                if isinstance(recent, dict) and recent.get(key) is not None:
                    part += f" (recent {_fmt_rate(recent[key])})"
                parts.append(part)
            lines.append("rates: " + "  ".join(parts))
        lines.append(
            f"elapsed: {_fmt_seconds(last.get('elapsed_s'))}"
            f"  eta: {_fmt_seconds(last.get('eta_s'))}"
            f"  rss: {_fmt_bytes(last.get('rss_bytes'))}"
        )

    if history and len(beats) >= 2:
        lines.extend(_render_history(beats))

    if end is not None:
        lines.append(
            f"status: finished ({end.get('done')} {label} in "
            f"{_fmt_seconds(end.get('elapsed_s'))})"
        )
    elif failed is not None:
        lines.append(f"status: failed ({failed.get('error')})")
    else:
        last_event = events[-1] if events else None
        age = None
        if last_event is not None and isinstance(last_event.get("time"), (int, float)):
            age = now - float(last_event["time"])
        lines.append(
            "status: running"
            + (f" (last event {_fmt_seconds(age)} ago)" if age is not None else "")
        )
    return "\n".join(lines)


def _render_history(beats: List[Dict[str, object]]) -> List[str]:
    """Sparkline columns over the heartbeat history (newest-right).

    One row per throughput key (the per-window ``recent`` rates, the
    honest shape of a run speeding up or stalling) plus an RSS row;
    malformed beats contribute nothing to a row rather than killing it.
    """
    rate_keys: List[str] = []
    for beat in beats:
        recent = beat.get("recent")
        if isinstance(recent, dict):
            for key in recent:
                if key not in rate_keys:
                    rate_keys.append(key)
    rows: List[Tuple[str, List[float]]] = []
    for key in rate_keys:
        values = []
        for beat in beats:
            recent = beat.get("recent")
            value = recent.get(key) if isinstance(recent, dict) else None
            if isinstance(value, (int, float)):
                values.append(float(value))
        if values:
            rows.append((key, values))
    rss = [
        float(beat["rss_bytes"])
        for beat in beats
        if isinstance(beat.get("rss_bytes"), (int, float))
    ]
    if rss:
        rows.append(("rss", rss))
    if not rows:
        return []
    label_width = max(len(label) for label, _ in rows)
    lines = [f"history ({len(beats)} heartbeats):"]
    for label, values in rows:
        spark = render_sparkline(values)
        lines.append(f"  {label:<{label_width}}  {spark}  {_fmt_rate(values[-1])}")
    return lines


def render_sparkline(values: Sequence[float], width: int = 24) -> str:
    """A unicode sparkline of ``values`` (newest-last), width-bounded."""
    values = [v for v in values if isinstance(v, (int, float)) and not math.isnan(v)]
    if not values:
        return ""
    values = values[-width:]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int((v - lo) * scale)] for v in values)


def tail_dashboard(
    path: Union[str, Path],
    *,
    interval: float = 2.0,
    once: bool = False,
    max_updates: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Follow a live run's JSONL event file, re-rendering the dashboard.

    Re-reads ``path`` every ``interval`` seconds (skipping malformed
    lines rather than dying on them — a live producer is mid-write by
    definition) and redraws; returns once the run emits
    ``progress_end``/``run_end``, after ``max_updates`` redraws, or after
    a single render with ``once=True``.  Backs ``repro obs top``.
    """
    out = stream if stream is not None else sys.stdout
    updates = 0
    while True:
        try:
            events, skipped = read_events_lenient(path)
        except FileNotFoundError:
            events, skipped = [], 0
        text = render_dashboard(events, skipped=skipped)
        if not once and updates and out.isatty():  # pragma: no cover - tty only
            out.write("\x1b[2J\x1b[H")
        out.write(text + "\n")
        out.flush()
        updates += 1
        if once:
            return 0
        if any(e.get("event") in ("progress_end", "run_end") for e in events):
            return 0
        if max_updates is not None and updates >= max_updates:
            return 0
        time.sleep(interval)
