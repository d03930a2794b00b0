"""Shared infrastructure for the figure-reproduction experiments.

Every ``fig*`` module exposes ``run_figN(...) -> ExperimentResult``: a
self-describing table of the series the paper's figure plots, plus notes
recording parameters.  The CLI and EXPERIMENTS.md are generated from
these objects, and the benchmark suite calls the same entry points with
``quick=True``.  Every runner writes its artifacts (BENCH, EVENTS,
AUDIT, TRACE) through one :class:`ExperimentRun`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..core.calibration import ThresholdCalibrator
from ..core.config import BehaviorTestConfig
from ..obs import audit as _audit

__all__ = [
    "ExperimentResult",
    "ExperimentRun",
    "make_shared_calibrator",
    "mean_over_seeds",
    "PAPER_CONFIG",
    "PAPER_TRUST_THRESHOLD",
    "PAPER_PREP_HONESTY",
    "PAPER_TARGET_BADS",
]

#: The paper's experimental constants (Sec. 5.1).
PAPER_CONFIG = BehaviorTestConfig()  # window m = 10, 95% confidence
PAPER_TRUST_THRESHOLD = 0.9
PAPER_PREP_HONESTY = 0.95
PAPER_TARGET_BADS = 20


@dataclass
class ExperimentResult:
    """A reproduced figure, as the table of points it plots.

    ``columns`` names the fields of each row dict; the first column is
    the x axis.  ``render()`` produces the aligned text table the CLI
    prints and EXPERIMENTS.md embeds.
    """

    experiment: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        """Append one row; every declared column must be present."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({c: values[c] for c in self.columns})

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; have {self.columns}")
        return [row[name] for row in self.rows]

    def render(self) -> str:
        """The aligned plain-text table (title, notes, header, rows)."""
        header = f"{self.experiment}: {self.title}"
        lines = [header, "=" * len(header)]
        if self.notes:
            lines.append(self.notes)
        widths = {
            c: max(len(c), *(len(_fmt(row[c])) for row in self.rows)) if self.rows else len(c)
            for c in self.columns
        }
        lines.append("  ".join(c.rjust(widths[c]) for c in self.columns))
        lines.append("  ".join("-" * widths[c] for c in self.columns))
        for row in self.rows:
            lines.append("  ".join(_fmt(row[c]).rjust(widths[c]) for c in self.columns))
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def make_shared_calibrator(config: BehaviorTestConfig) -> ThresholdCalibrator:
    """One calibrator for all schemes in an experiment (shared ε cache)."""
    return ThresholdCalibrator(
        confidence=config.confidence,
        n_sets=config.calibration_sets,
        distance=config.distance,
        p_quantum=config.p_quantum,
    )


def mean_over_seeds(values: Sequence[float]) -> float:
    """Mean of per-seed measurements (the smoothing the figures need)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one measurement")
    return float(arr.mean())


class ExperimentRun:
    """How one experiment run writes its artifacts, as a context manager.

    Entering the run reuses the ambient obs session (or activates a
    private one), opens the ``events_path`` log with ``run_start``, the
    audit and tracing sessions the runner was given paths for, and the
    ``experiments.<name>.run`` span (labelled with ``meta``, the
    runner's own ``run_meta`` fields).

    Leaving it normally writes the collected :meth:`bench_row` rows to
    ``bench_path`` (inside ``experiments.<name>.export``), the metrics
    snapshot and ``run_end``.  Leaving it by an exception writes only
    ``run_end`` with ``status="error"`` and the exception type; either
    way every session and the log are closed and the exception
    propagates.  The span log at ``trace_path`` is the run's timing
    record: ``repro obs report`` renders it as a phase table.
    """

    def __init__(
        self,
        name: str,
        *,
        seed: object,
        config: object = None,
        meta: Optional[Dict[str, object]] = None,
        bench_path: Optional[str] = None,
        events_path: Optional[str] = None,
        audit_path: Optional[str] = None,
        audit_sample: int = 1,
        trace_path: Optional[str] = None,
    ):
        self.name = name
        self._labels = dict(meta or {})
        self.meta = obs.run_metadata(
            seed=seed, config=config, experiment=name, **self._labels
        )
        self._bench_path = bench_path
        self._events_path = events_path
        self._audit = (audit_path, audit_sample)
        self._trace_path = trace_path
        self.rows: List[Dict[str, object]] = []
        self.log: Optional[obs.EventLog] = None
        self.registry: Optional[obs.MetricsRegistry] = None
        self.trail = None
        self._lifecycle = None

    def __enter__(self) -> "ExperimentRun":
        self._lifecycle = self._run()
        return self._lifecycle.__enter__()

    def __exit__(self, *exc_info) -> bool:
        return self._lifecycle.__exit__(*exc_info)

    @contextlib.contextmanager
    def _run(self):
        if self._events_path is not None:
            self.log = obs.EventLog(self._events_path, run_meta=self.meta)
        try:
            with contextlib.ExitStack() as stack:
                if obs.is_enabled():
                    self.registry = obs.get_registry()
                else:
                    self.registry = stack.enter_context(obs.activate()).registry
                audit_path, audit_sample = self._audit
                if audit_path is not None:
                    self.trail = stack.enter_context(
                        _audit.audit_session(
                            audit_sample,
                            path=audit_path,
                            run_meta=self.meta,
                            include_pmfs=False,
                        )
                    )
                if self._trace_path is not None:
                    # one causal trace: every span of the run, service
                    # request and network hop shares this trace_id
                    stack.enter_context(obs.tracing_session(self._trace_path))
                    stack.enter_context(obs.use(obs.new_root(experiment=self.name)))
                with obs.span(f"experiments.{self.name}.run", **self._labels):
                    yield self
                    if self._bench_path is not None:
                        with obs.span(f"experiments.{self.name}.export"):
                            obs.write_bench_json(
                                self._bench_path, self.name, self.rows, meta=self.meta
                            )
                if self.log is not None:
                    self.log.emit_metrics(self.registry)
        except BaseException as exc:
            if self.log is not None:
                self.log.emit(
                    "run_end",
                    experiment=self.name,
                    status="error",
                    error=type(exc).__name__,
                )
            raise
        else:
            if self.log is not None:
                self.log.emit("run_end", experiment=self.name)
        finally:
            if self.log is not None:
                self.log.close()

    def bench_row(
        self, metric, name: str, params: Dict[str, object], **extra_stats: object
    ) -> None:
        """Queue one BENCH row from a timer histogram's summary stats."""
        self.rows.append(
            {
                "name": name,
                "params": dict(params),
                "stats": {
                    "mean_s": metric.mean,
                    "min_s": metric.min,
                    # tail latency, preferred by `repro obs diff`
                    "p95_s": metric.p95,
                    "repeats": metric.count,
                    **extra_stats,
                },
            }
        )
