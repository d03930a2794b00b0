"""Declarative SLOs: objectives, error budgets, and burn rates.

An :class:`SloSpec` states an objective over signals the obs layer
already collects — no new instrumentation required:

* ``latency`` — "99% of ``serve.assess.seconds`` observations finish
  within 50 ms": good/total read from a
  :class:`~repro.obs.registry.StreamingHistogram` via ``fraction_below``;
* ``ratio`` — "degraded verdicts stay under 1% of assessments":
  bad/total read from two counter families (each summed across labels);
* ``freshness`` — "stale-fallback calibrations stay under 0.1% of
  calibrations": a ``ratio`` specialization named separately because the
  budget it protects (calibration staleness) is a correctness budget,
  not an availability one.

The **error budget** is the complement of the objective: a 99% latency
objective leaves a 1% budget of slow requests.  :class:`SloEngine`
evaluates specs against a live registry or a serialized snapshot and
reports, per SLO, the bad fraction, the budget consumed
(``bad / budget`` — >1 means blown), and **burn rates** over multiple
windows.  A burn rate of 1.0 spends exactly the budget over the window;
alerting on a *fast* burn over a *short* window and a *slow* burn over a
long one (the multi-window pattern) catches both sudden breakage and
slow rot.  Windows here are successive registry snapshots (cumulative
counts), so burn over a window is computed from snapshot deltas —
the same math as time-windowed burn with snapshots as the clock.

``evaluation_to_bench_rows`` renders an evaluation as standard
``BENCH_slo.json`` rows so the existing bench diff/trend gate (PR 2)
can gate on SLO health with zero new gating machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .registry import MetricsRegistry, StreamingHistogram

__all__ = [
    "SloSpec",
    "SloResult",
    "SloEvaluation",
    "SloEngine",
    "default_serve_slos",
    "evaluate_events",
    "render_slo_report",
    "evaluation_to_bench_rows",
    "validate_slo_payload",
]

_KINDS = ("latency", "ratio", "freshness")

Snapshot = Mapping[str, List[Dict[str, object]]]


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over already-collected signals.

    ``objective`` is the good-fraction target in (0, 1); the error
    budget is ``1 - objective``.  Which other fields apply depends on
    ``kind``:

    * ``latency`` — ``metric`` names a histogram family;
      ``threshold_s`` is the latency bound defining "good".
    * ``ratio`` / ``freshness`` — ``bad_metric`` and ``total_metric``
      name counter families (summed across label sets).
    """

    name: str
    kind: str
    objective: float
    description: str = ""
    metric: Optional[str] = None
    threshold_s: Optional[float] = None
    bad_metric: Optional[str] = None
    total_metric: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; expected one of {_KINDS}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must lie in (0, 1), got {self.objective}")
        if self.kind == "latency":
            if not self.metric or self.threshold_s is None:
                raise ValueError(f"latency SLO {self.name!r} needs metric and threshold_s")
            if self.threshold_s <= 0:
                raise ValueError(f"threshold_s must be positive, got {self.threshold_s}")
        else:
            if not self.bad_metric or not self.total_metric:
                raise ValueError(
                    f"{self.kind} SLO {self.name!r} needs bad_metric and total_metric"
                )

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.objective


@dataclass
class SloResult:
    """One spec evaluated at one point: counts, budget, burn.

    ``bad_fraction``/``budget_consumed`` are ``nan`` when the SLO saw no
    traffic (``total == 0``) — no traffic is "no data", not "healthy".
    ``burn_rates`` maps window label → burn rate (bad_fraction within
    that window divided by the budget); present only when the engine
    was given history.
    """

    spec: SloSpec
    total: float
    bad: float
    burn_rates: Dict[str, float] = field(default_factory=dict)

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total > 0 else math.nan

    @property
    def budget_consumed(self) -> float:
        """bad_fraction / budget; >1.0 means the budget is blown."""
        fraction = self.bad_fraction
        return fraction / self.spec.budget if not math.isnan(fraction) else math.nan

    @property
    def burning(self) -> bool:
        """Is the budget blown overall, or burning >1× in any window?"""
        consumed = self.budget_consumed
        if not math.isnan(consumed) and consumed > 1.0:
            return True
        return any(rate > 1.0 for rate in self.burn_rates.values() if not math.isnan(rate))


@dataclass
class SloEvaluation:
    """All specs evaluated together; the unit the CLI/bench rows render."""

    results: List[SloResult]

    @property
    def burning(self) -> List[SloResult]:
        return [r for r in self.results if r.burning]

    @property
    def ok(self) -> bool:
        return not self.burning


def _sum_counter_family(snapshot: Snapshot, name: str) -> float:
    total = 0.0
    for entry in snapshot.get(name, []):
        value = entry.get("value")
        if isinstance(value, (int, float)):
            total += value
    return total


def _merge_histogram_family(
    snapshot: Snapshot, name: str
) -> Optional[StreamingHistogram]:
    """Rebuild one histogram from every label set's serialized buckets."""
    merged = StreamingHistogram()
    seen = False
    for entry in snapshot.get(name, []):
        if entry.get("kind") != "histogram":
            continue
        summary = entry.get("summary") or {}
        buckets = entry.get("buckets")
        if not isinstance(buckets, dict):
            continue
        seen = True
        merged.merge_serialized(summary, buckets)
    return merged if seen else None


class SloEngine:
    """Evaluates :class:`SloSpec` lists against registries/snapshots."""

    def __init__(self, specs: Sequence[SloSpec]):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.specs = list(specs)

    # -- single-point evaluation ---------------------------------------- #

    def evaluate(
        self,
        source: Union[MetricsRegistry, Snapshot],
        history: Optional[Sequence[Snapshot]] = None,
    ) -> SloEvaluation:
        """Evaluate every spec against ``source``.

        ``history`` — older cumulative snapshots, oldest first — adds
        multi-window burn rates: window ``w1`` is the delta from the
        most recent history point to ``source``, ``w2`` from the one
        before it, and so on (wider windows looking further back).
        """
        latest = source.snapshot() if isinstance(source, MetricsRegistry) else source
        # w1 = since the last snapshot, w2 = since the one before, …
        windows = [
            (f"w{width}", older)
            for width, older in enumerate(reversed(list(history or ())), start=1)
        ]
        results = [self._evaluate_one(spec, latest) for spec in self.specs]
        for result in results:
            result.burn_rates = {
                label: self._window_burn(result.spec, older, latest)
                for label, older in windows
            }
        return SloEvaluation(results)

    def _evaluate_one(self, spec: SloSpec, snapshot: Snapshot) -> SloResult:
        if spec.kind == "latency":
            hist = _merge_histogram_family(snapshot, spec.metric)
            if hist is None or hist.count == 0:
                return SloResult(spec, total=0.0, bad=0.0)
            good = hist.fraction_below(spec.threshold_s)
            return SloResult(spec, total=float(hist.count), bad=(1.0 - good) * hist.count)
        bad = _sum_counter_family(snapshot, spec.bad_metric)
        total = _sum_counter_family(snapshot, spec.total_metric)
        return SloResult(spec, total=total, bad=bad)

    def _window_burn(self, spec: SloSpec, older: Snapshot, latest: Snapshot) -> float:
        """Burn rate over the window between two cumulative snapshots."""
        now = self._evaluate_one(spec, latest)
        then = self._evaluate_one(spec, older)
        total = now.total - then.total
        bad = now.bad - then.bad
        if total <= 0:
            return math.nan
        # counters are cumulative; a reset between snapshots shows up as
        # a negative delta — clamp rather than report negative burn
        return max(bad, 0.0) / total / spec.budget


def default_serve_slos(
    latency_threshold_s: float = 0.050,
    latency_objective: float = 0.99,
    degraded_objective: float = 0.99,
    staleness_objective: float = 0.999,
) -> List[SloSpec]:
    """The serving stack's stock SLOs over existing metric families."""
    return [
        SloSpec(
            name="serve.latency.assess",
            kind="latency",
            objective=latency_objective,
            metric="serve.assess.seconds",
            threshold_s=latency_threshold_s,
            description=(
                f"{latency_objective:.0%} of single assessments within "
                f"{latency_threshold_s * 1e3:g} ms"
            ),
        ),
        SloSpec(
            name="serve.degraded_verdicts",
            kind="ratio",
            objective=degraded_objective,
            bad_metric="serve.service.degraded_assessments",
            total_metric="serve.service.assessments",
            description=(
                f"degraded verdicts under {1 - degraded_objective:.1%} of "
                "fresh assessments"
            ),
        ),
        SloSpec(
            name="core.calibration.staleness",
            kind="freshness",
            objective=staleness_objective,
            bad_metric="core.calibration.degraded",
            total_metric="core.calibration.cache_misses",
            description=(
                f"stale-fallback calibrations under "
                f"{1 - staleness_objective:.2%} of calibrations"
            ),
        ),
    ]


def evaluate_events(path, specs: Optional[Sequence[SloSpec]] = None) -> SloEvaluation:
    """Evaluate SLOs over a JSONL event log's metric snapshots.

    Every event carrying a ``metrics`` registry snapshot (see
    :meth:`~repro.obs.events.EventLog.emit_metrics`) is one evaluation
    point; the last is the run's final state, the earlier ones become
    the burn-rate windows.
    """
    from .events import read_events

    snapshots = [
        event["metrics"]
        for event in read_events(path, allow_partial=True)
        if isinstance(event.get("metrics"), dict)
    ]
    if not snapshots:
        raise ValueError(f"no metric snapshots in {path}")
    engine = SloEngine(list(specs) if specs is not None else default_serve_slos())
    return engine.evaluate(snapshots[-1], history=snapshots[:-1])


def render_slo_report(evaluation: SloEvaluation) -> str:
    """The evaluation as the aligned text behind ``repro obs slo``."""
    lines = []
    width = max((len(r.spec.name) for r in evaluation.results), default=0)
    for result in evaluation.results:
        fraction = result.bad_fraction
        consumed = result.budget_consumed
        if math.isnan(fraction):
            body = "no traffic"
            status = "----"
        else:
            body = (
                f"bad {result.bad:g}/{result.total:g} ({fraction:.3%}) "
                f"budget {result.spec.budget:.3%} consumed {consumed:.0%}"
            )
            status = "BURN" if result.burning else "ok"
        burn_text = ""
        if result.burn_rates:
            rendered = " ".join(
                f"{window}={'-' if math.isnan(rate) else format(rate, '.2f')}"
                for window, rate in sorted(result.burn_rates.items())
            )
            burn_text = f"  burn[{rendered}]"
        lines.append(
            f"{result.spec.name:<{width}}  [{status:>4}]  {body}{burn_text}"
        )
    blown = evaluation.burning
    lines.append(
        "error budgets: "
        + (
            f"{len(blown)}/{len(evaluation.results)} burning "
            f"({', '.join(r.spec.name for r in blown)})"
            if blown
            else f"all {len(evaluation.results)} within budget"
        )
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# BENCH_slo.json bridge


def evaluation_to_bench_rows(evaluation: SloEvaluation) -> List[Dict[str, object]]:
    """Render an evaluation as BENCH-schema result rows.

    One row per SLO; ``mean_s``/``min_s`` carry the *budget consumed*
    (dimensionless, but the bench gate only needs "bigger is worse"),
    so the standard diff gate flags budget regressions between runs.
    SLOs with no traffic report 0.0 consumption (nothing to gate on)
    and say so in ``params.traffic``.
    """
    rows = []
    for result in evaluation.results:
        consumed = result.budget_consumed
        no_traffic = math.isnan(consumed)
        value = 0.0 if no_traffic else consumed
        row: Dict[str, object] = {
            "name": f"slo.{result.spec.name}",
            "params": {
                "kind": result.spec.kind,
                "objective": result.spec.objective,
                "traffic": "none" if no_traffic else "observed",
            },
            "stats": {"mean_s": value, "min_s": value, "repeats": 1},
            "slo": {
                "total": result.total,
                "bad": result.bad,
                "bad_fraction": None if no_traffic else result.bad_fraction,
                "budget": result.spec.budget,
                "budget_consumed": None if no_traffic else consumed,
                "burning": result.burning,
                "burn_rates": {
                    k: (None if math.isnan(v) else v)
                    for k, v in result.burn_rates.items()
                },
                "description": result.spec.description,
            },
        }
        rows.append(row)
    return rows


def validate_slo_payload(payload: Dict[str, object]) -> None:
    """Schema check for BENCH_slo.json beyond the base bench schema.

    Every row must carry the ``slo`` extension block with numeric
    total/bad/budget; raises ``ValueError`` with the offending path.
    """
    from .bench import validate_bench_payload

    validate_bench_payload(payload)
    if payload.get("bench") != "slo":
        raise ValueError(f"bench field must be 'slo', got {payload.get('bench')!r}")
    for i, row in enumerate(payload["results"]):
        slo = row.get("slo")
        if not isinstance(slo, dict):
            raise ValueError(f"results[{i}]: missing slo extension block")
        for key in ("total", "bad", "budget"):
            if not isinstance(slo.get(key), (int, float)):
                raise ValueError(f"results[{i}].slo.{key}: expected a number")
        if not isinstance(slo.get("burning"), bool):
            raise ValueError(f"results[{i}].slo.burning: expected a bool")
