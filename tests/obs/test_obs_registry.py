"""Counter/gauge/histogram semantics and label separation."""

import math

import pytest

from repro.obs import MetricsRegistry, StreamingHistogram


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        counter = reg.counter("a.b")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a.b").inc(-1)

    def test_inc_convenience_is_same_metric(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2)
        reg.inc("hits")
        assert reg.counter("hits").value == 3.0
        assert reg.value("hits") == 3.0

    def test_value_default_for_absent_metric(self):
        assert MetricsRegistry().value("never.written") == 0.0
        assert MetricsRegistry().value("never.written", default=7.0) == 7.0


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set("pop", 10)
        reg.set("pop", 4)
        assert reg.value("pop") == 4.0

    def test_gauge_inc_can_go_negative(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("delta")
        gauge.inc(-2)
        assert gauge.value == -2.0


class TestLabelSeparation:
    def test_same_name_different_labels_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("msgs", 1, type="ping")
        reg.inc("msgs", 5, type="pong")
        assert reg.value("msgs", type="ping") == 1.0
        assert reg.value("msgs", type="pong") == 5.0
        assert reg.value("msgs") == 0.0  # unlabelled is its own series
        assert reg.total("msgs") == 6.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, a="1", b="2")
        assert reg.value("m", b="2", a="1") == 1.0

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, size=100)
        assert reg.value("m", size="100") == 1.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, a="x")
        with pytest.raises(TypeError):
            reg.gauge("m", a="y")  # same name, other kind, any labels

    def test_value_on_histogram_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        with pytest.raises(TypeError):
            reg.value("h")


class TestStreamingHistogram:
    def test_exact_count_sum_min_max_mean(self):
        h = StreamingHistogram()
        for v in (0.5, 1.5, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.min == pytest.approx(0.5)
        assert h.max == pytest.approx(4.0)
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_quantiles_are_nan(self):
        h = StreamingHistogram()
        assert math.isnan(h.p50)
        assert math.isnan(h.mean)
        assert math.isnan(h.min)

    def test_quantiles_approximate_uniform(self):
        h = StreamingHistogram()
        n = 10_000
        for i in range(1, n + 1):
            h.observe(i / n)
        # the sketch guarantees ~±10% relative error on the value axis
        assert h.p50 == pytest.approx(0.5, rel=0.15)
        assert h.p95 == pytest.approx(0.95, rel=0.15)
        assert h.p99 == pytest.approx(0.99, rel=0.15)

    def test_quantiles_bounded_by_observed_range(self):
        h = StreamingHistogram()
        for v in (0.02, 0.021, 0.019):
            h.observe(v)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert 0.019 <= h.quantile(q) <= 0.021

    def test_wide_dynamic_range(self):
        h = StreamingHistogram()
        for v in (1e-7, 1e-3, 10.0, 1e4):
            h.observe(v)
        assert h.quantile(1.0) == pytest.approx(1e4, rel=0.2)
        assert h.quantile(0.0) == pytest.approx(1e-7, rel=0.2)

    def test_zero_and_negative_observations_survive(self):
        h = StreamingHistogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.min == -1.0
        assert h.quantile(0.5) <= 0.0 + 1e-8

    def test_invalid_quantile_rejected(self):
        h = StreamingHistogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_summary_keys(self):
        h = StreamingHistogram()
        h.observe(1.0)
        assert set(h.summary()) == {
            "count", "sum", "min", "mean", "max", "p50", "p95", "p99",
        }

    def test_empty_histogram_percentiles_are_nan(self):
        h = StreamingHistogram()
        assert h.count == 0
        for value in (h.min, h.max, h.mean, h.p50, h.p95, h.p99):
            assert math.isnan(value)

    def test_single_sample_every_percentile_is_that_sample(self):
        h = StreamingHistogram()
        h.observe(0.125)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.125, rel=0.1)
        assert h.min == h.max == 0.125
        assert h.mean == 0.125

    def test_all_identical_samples_collapse(self):
        h = StreamingHistogram()
        for _ in range(1000):
            h.observe(3.5)
        assert h.min == h.max == 3.5
        assert h.mean == pytest.approx(3.5)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == pytest.approx(3.5, rel=0.1)

    def test_percentiles_monotone_p50_p95_p99(self):
        rng = __import__("random").Random(7)
        h = StreamingHistogram()
        for _ in range(5000):
            h.observe(rng.expovariate(10.0))
        assert h.p50 <= h.p95 <= h.p99
        assert h.min <= h.p50 and h.p99 <= h.max * 1.1


class TestFractionBelow:
    def test_empty_is_nan(self):
        assert math.isnan(StreamingHistogram().fraction_below(1.0))

    def test_all_below_and_all_above(self):
        hist = StreamingHistogram()
        for value in (0.01, 0.02, 0.03):
            hist.observe(value)
        assert hist.fraction_below(1.0) == 1.0
        assert hist.fraction_below(0.001) == 0.0

    def test_split_is_bucket_resolution_close(self):
        hist = StreamingHistogram()
        for _ in range(90):
            hist.observe(0.01)
        for _ in range(10):
            hist.observe(0.5)
        assert hist.fraction_below(0.1) == pytest.approx(0.9, abs=0.02)


class TestHistogramMerge:
    def _sample(self, values):
        hist = StreamingHistogram()
        for value in values:
            hist.observe(value)
        return hist

    def test_merge_serialized_round_trip(self):
        source = self._sample([0.25, 4.0, 4.0, 100.0])
        target = self._sample([0.125])
        expected = self._sample([0.25, 4.0, 4.0, 100.0, 0.125])
        target.merge_serialized(source.summary(), source.bucket_counts())
        assert target.count == expected.count
        assert target.sum == expected.sum
        assert target.min == expected.min
        assert target.max == expected.max
        assert target.bucket_counts() == expected.bucket_counts()

    def test_merge_serialized_ignores_empty_summary(self):
        hist = self._sample([1.0])
        hist.merge_serialized({"count": 0}, {})
        assert hist.count == 1
        assert hist.min == 1.0


class TestRegistryCollection:
    def test_collect_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.inc("z.counter")
        reg.set("a.gauge", 2)
        reg.observe("m.hist", 0.5)
        samples = reg.collect()
        assert [s.name for s in samples] == ["a.gauge", "m.hist", "z.counter"]
        assert [s.kind for s in samples] == ["gauge", "histogram", "counter"]
        assert samples[1].summary["count"] == 1.0

    def test_snapshot_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.inc("c", 2, side="left")
        reg.observe("h", 0.25)
        snap = reg.snapshot()
        json.dumps(snap)  # must be serializable as-is
        assert snap["c"][0]["labels"] == {"side": "left"}
        assert snap["c"][0]["value"] == 2.0
        assert snap["h"][0]["summary"]["count"] == 1.0

    def test_reset_empties_registry(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert len(reg) == 0
        assert reg.value("c") == 0.0
