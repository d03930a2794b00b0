"""Process-local metrics: counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` owns every metric of a run, addressed by a
dotted name (``core.calibration.cache_hits``) plus an optional label set
(``strategy="optimized"``).  Three metric kinds cover what the trust
pipeline needs to report:

* :class:`Counter` — monotonically increasing totals (tests run, cache
  hits, messages sent);
* :class:`Gauge` — last-written values (population sizes, current trust);
* :class:`StreamingHistogram` — latency/size distributions summarized
  *without storing samples*: exact count/sum/min/max plus
  exponentially-bucketed counts, so p50/p95/p99 are available at a small
  bounded memory cost no matter how many observations arrive.

The registry is deliberately dependency-free (stdlib only) so every
layer of the package — ``stats`` included — can report into it without
import cycles.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple, Union

from . import scope as _scope

__all__ = ["Counter", "Gauge", "StreamingHistogram", "MetricSample", "MetricsRegistry"]

LabelSet = Tuple[Tuple[str, str], ...]

# Exponential bucket layout shared by all histograms: relative bucket
# width of 2**0.25 - 1 ≈ 19% bounds the quantile error at ~±9% while one
# histogram stays under a few hundred integer slots across 12 decades.
_BUCKET_BASE = 1e-9
_BUCKET_GROWTH = 2.0 ** 0.25
_LOG_GROWTH = math.log(_BUCKET_GROWTH)


def _labels_key(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        self._value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        """The most recently set value."""
        return self._value

    def set(self, value: Union[int, float]) -> None:
        """Record the current value of the measured quantity."""
        self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self._value += amount


class StreamingHistogram:
    """Quantile sketch over exponential buckets — no samples stored.

    Tracks exact ``count``/``sum``/``min``/``max`` and per-bucket counts
    on a fixed geometric grid; :meth:`quantile` walks the cumulative
    bucket counts and returns the geometric midpoint of the target
    bucket (clamped to the observed min/max), giving p50/p95/p99 with a
    bounded ~9% relative error at O(1) memory per observation.
    """

    __slots__ = ("_buckets", "_count", "_sum", "_min", "_max")
    kind = "histogram"

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (``nan`` when empty)."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest observation (``nan`` when empty)."""
        return self._max if self._count else math.nan

    @property
    def mean(self) -> float:
        """Exact mean of all observations (``nan`` when empty)."""
        return self._sum / self._count if self._count else math.nan

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation (negative values clamp to bucket 0)."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """The approximate ``q``-quantile of everything observed so far."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        target = max(1, math.ceil(q * self._count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                return self._representative(index)
        return self._max  # pragma: no cover - defensive; loop always hits

    @property
    def p50(self) -> float:
        """Approximate median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """Approximate 95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """Approximate 99th percentile."""
        return self.quantile(0.99)

    def fraction_below(self, threshold: float) -> float:
        """Fraction of observations ≤ ``threshold`` (the latency "good" rate).

        Exact when ``threshold`` falls outside the observed range;
        otherwise resolved on the bucket grid — a bucket wholly below
        the threshold counts in full, the bucket straddling it counts
        in full iff its geometric midpoint is below (≤ one bucket width,
        ~19%, of resolution — the same error bound as ``quantile``).
        ``nan`` when empty.
        """
        if self._count == 0:
            return math.nan
        if threshold >= self._max:
            return 1.0
        if threshold < self._min:
            return 0.0
        boundary = self._bucket_index(threshold)
        good = 0
        for index, count in self._buckets.items():
            if index < boundary:
                good += count
            elif index == boundary and self._representative(index) <= threshold:
                good += count
        return good / self._count

    def merge_serialized(
        self, summary: Dict[str, float], buckets: Dict[str, int]
    ) -> "StreamingHistogram":
        """Fold one snapshot-serialized histogram (summary + buckets) in.

        The inverse of ``summary()``/``bucket_counts()`` for merge
        purposes: count/sum add, min/max extremize and per-bucket counts
        sum, so the result is indistinguishable from having observed
        both sample sets in one histogram.
        """
        count = int(summary.get("count", 0))
        if count <= 0:
            return self
        self._count += count
        self._sum += float(summary.get("sum", 0.0))
        other_min = float(summary.get("min", math.inf))
        other_max = float(summary.get("max", -math.inf))
        if other_min < self._min:
            self._min = other_min
        if other_max > self._max:
            self._max = other_max
        for index, bucket_count in (buckets or {}).items():
            index = int(index)
            self._buckets[index] = self._buckets.get(index, 0) + int(bucket_count)
        return self

    def bucket_counts(self) -> Dict[str, int]:
        """Per-bucket counts keyed by stringified index (JSON-safe)."""
        return {str(index): count for index, count in sorted(self._buckets.items())}

    def summary(self) -> Dict[str, float]:
        """count/sum/min/mean/max/p50/p95/p99 as one flat dict."""
        return {
            "count": float(self._count),
            "sum": self._sum,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    @staticmethod
    def _bucket_index(value: float) -> int:
        if value <= _BUCKET_BASE:
            return -1  # underflow bucket: (-inf, base]
        return int(math.floor(math.log(value / _BUCKET_BASE) / _LOG_GROWTH))

    def _representative(self, index: int) -> float:
        if index < 0:
            rep = _BUCKET_BASE
        else:
            lower = _BUCKET_BASE * _BUCKET_GROWTH ** index
            rep = lower * math.sqrt(_BUCKET_GROWTH)
        return min(max(rep, self._min), self._max)


class MetricSample:
    """One collected metric: name, labels, kind, and its value(s)."""

    __slots__ = ("name", "labels", "kind", "value", "summary")

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        kind: str,
        value: Optional[float],
        summary: Optional[Dict[str, float]] = None,
    ):
        self.name = name
        self.labels = labels
        self.kind = kind
        self.value = value
        self.summary = summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSample({self.name!r}, {dict(self.labels)!r}, {self.kind})"


Metric = Union[Counter, Gauge, StreamingHistogram]


class MetricsRegistry:
    """All metrics of one run, addressable by dotted name + labels.

    ``counter()``/``gauge()``/``histogram()`` get-or-create the metric
    for a ``(name, labels)`` pair; ``inc()``/``set()``/``observe()`` are
    one-call conveniences over them.  A name is bound to a single metric
    kind — asking for the same name as a different kind raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        self._kinds: Dict[str, str] = {}

    # -- get-or-create ------------------------------------------------- #

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``(name, labels)``, creating it."""
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``(name, labels)``, creating it."""
        return self._get_or_create(name, Gauge, labels)

    def histogram(self, name: str, **labels: object) -> StreamingHistogram:
        """The histogram registered under ``(name, labels)``, creating it."""
        return self._get_or_create(name, StreamingHistogram, labels)

    # -- one-call conveniences ----------------------------------------- #

    def inc(self, name: str, amount: Union[int, float] = 1, **labels: object) -> None:
        """Increment the counter ``name`` (created on first use)."""
        self.counter(name, **labels).inc(amount)

    def set(self, name: str, value: Union[int, float], **labels: object) -> None:
        """Set the gauge ``name`` (created on first use)."""
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: Union[int, float], **labels: object) -> None:
        """Record one observation into the histogram ``name``."""
        self.histogram(name, **labels).observe(value)

    # -- reading ------------------------------------------------------- #

    def value(self, name: str, default: float = 0.0, **labels: object) -> float:
        """Counter/gauge value for ``(name, labels)``; ``default`` if absent."""
        metric = self._metrics.get((name, _labels_key(labels)))
        if metric is None:
            return default
        if isinstance(metric, StreamingHistogram):
            raise TypeError(f"{name!r} is a histogram; read .histogram(...) instead")
        return metric.value

    def total(self, name: str) -> float:
        """Counter/gauge values for ``name`` summed across all label sets."""
        total = 0.0
        for (metric_name, _), metric in self._metrics.items():
            if metric_name == name and not isinstance(metric, StreamingHistogram):
                total += metric.value
        return total

    def collect(self) -> List[MetricSample]:
        """Every metric as a :class:`MetricSample`, sorted by name+labels."""
        samples = []
        for (name, labels), metric in sorted(self._metrics.items()):
            if isinstance(metric, StreamingHistogram):
                samples.append(
                    MetricSample(name, labels, metric.kind, None, metric.summary())
                )
            else:
                samples.append(MetricSample(name, labels, metric.kind, metric.value))
        return samples

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """A JSON-serializable dump of every metric (for event logs)."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            entry: Dict[str, object] = {
                "labels": dict(labels),
                "kind": metric.kind,
            }
            if isinstance(metric, StreamingHistogram):
                entry["summary"] = metric.summary()
                # bucket counts let offline readers (CI's serve health
                # check) recompute fraction_below from a serialized snapshot
                entry["buckets"] = metric.bucket_counts()
            else:
                entry["value"] = metric.value
            out.setdefault(name, []).append(entry)
        return out

    def reset(self) -> None:
        """Drop every registered metric."""
        self._metrics.clear()
        self._kinds.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[MetricSample]:
        return iter(self.collect())

    # ------------------------------------------------------------------ #

    def _get_or_create(self, name: str, cls, labels: Dict[str, object]):
        if _scope.active:
            # Node-scoped attribution: stamp the ambient node id as a
            # label so existing call sites report per-node without any
            # rewrite.  ``labels`` is the per-call ``**labels`` dict, so
            # mutating it in place is safe and allocation-free.
            node = _scope.attribution_node()
            if node is not None and _scope.NODE_LABEL not in labels:
                labels[_scope.NODE_LABEL] = node
        key = (name, _labels_key(labels) if labels else ())
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):  # pragma: no cover - defensive
                raise TypeError(
                    f"{name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric
        bound = self._kinds.get(name)
        if bound is not None and bound != cls.kind:
            raise TypeError(f"{name!r} is already registered as a {bound}")
        metric = cls()
        self._metrics[key] = metric
        self._kinds[name] = cls.kind
        return metric
