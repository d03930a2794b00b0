"""SLO-engine unit tests: specs, budgets, burn rates, bench bridge.

The contract: an :class:`SloSpec` is validated at construction, the
engine reads good/bad straight from registry snapshots (histogram
``fraction_below`` for latency, counter-family sums for ratios), burn
rates come from cumulative snapshot deltas, and the whole evaluation
round-trips through the BENCH_slo.json schema.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.obs.registry import MetricsRegistry, StreamingHistogram
from repro.obs.slo import (
    SloEngine,
    SloSpec,
    default_serve_slos,
    evaluate_events,
    evaluation_to_bench_rows,
    render_slo_report,
    validate_slo_payload,
)

LATENCY = SloSpec(
    name="lat",
    kind="latency",
    objective=0.9,
    metric="op.seconds",
    threshold_s=0.1,
)
RATIO = SloSpec(
    name="deg",
    kind="ratio",
    objective=0.9,
    bad_metric="op.bad",
    total_metric="op.total",
)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SloSpec(name="x", kind="weird", objective=0.9)

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.1, 1.5])
    def test_objective_must_be_open_interval(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(
                name="x",
                kind="ratio",
                objective=objective,
                bad_metric="b",
                total_metric="t",
            )

    def test_latency_needs_metric_and_threshold(self):
        with pytest.raises(ValueError, match="metric"):
            SloSpec(name="x", kind="latency", objective=0.9)
        with pytest.raises(ValueError, match="threshold_s"):
            SloSpec(
                name="x", kind="latency", objective=0.9, metric="m", threshold_s=0.0
            )

    def test_ratio_needs_counter_pair(self):
        with pytest.raises(ValueError, match="bad_metric"):
            SloSpec(name="x", kind="ratio", objective=0.9, bad_metric="b")

    def test_budget_is_complement(self):
        assert LATENCY.budget == pytest.approx(0.1)

    def test_engine_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine([RATIO, RATIO])


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


class TestEvaluation:
    def _registry(self, slow=0, fast=100, bad=0, total=100):
        registry = MetricsRegistry()
        for _ in range(fast):
            registry.observe("op.seconds", 0.01)
        for _ in range(slow):
            registry.observe("op.seconds", 0.5)
        if total:
            registry.inc("op.total", total)
        if bad:
            registry.inc("op.bad", bad)
        return registry

    def test_healthy_run_is_ok(self):
        evaluation = SloEngine([LATENCY, RATIO]).evaluate(
            self._registry(slow=0, bad=0)
        )
        assert evaluation.ok
        assert [r.burning for r in evaluation.results] == [False, False]

    def test_blown_latency_budget_burns(self):
        evaluation = SloEngine([LATENCY]).evaluate(self._registry(slow=50, fast=50))
        [result] = evaluation.results
        assert result.budget_consumed > 1.0
        assert result.burning
        assert not evaluation.ok

    def test_blown_ratio_budget_burns(self):
        evaluation = SloEngine([RATIO]).evaluate(self._registry(bad=30))
        [result] = evaluation.results
        assert result.bad_fraction == pytest.approx(0.3)
        assert result.budget_consumed == pytest.approx(3.0)
        assert result.burning

    def test_within_budget_does_not_burn(self):
        evaluation = SloEngine([RATIO]).evaluate(self._registry(bad=5))
        [result] = evaluation.results
        assert result.budget_consumed == pytest.approx(0.5)
        assert not result.burning

    def test_no_traffic_is_nan_not_healthy(self):
        evaluation = SloEngine([LATENCY, RATIO]).evaluate(MetricsRegistry())
        for result in evaluation.results:
            assert math.isnan(result.bad_fraction)
            assert math.isnan(result.budget_consumed)
            assert not result.burning  # no data — surfaced as '----', not BURN
        assert evaluation.ok

    def test_counter_families_summed_across_labels(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 50, mode="a")
        registry.inc("op.total", 50, mode="b")
        registry.inc("op.bad", 4, mode="a")
        registry.inc("op.bad", 8, mode="b")
        [result] = SloEngine([RATIO]).evaluate(registry).results
        assert result.total == 100
        assert result.bad == 12

    def test_snapshot_source_equals_registry_source(self):
        registry = self._registry(slow=10, fast=90, bad=7)
        engine = SloEngine([LATENCY, RATIO])
        from_registry = engine.evaluate(registry)
        from_snapshot = engine.evaluate(registry.snapshot())
        for a, b in zip(from_registry.results, from_snapshot.results):
            assert a.total == b.total
            assert a.bad == b.bad


class TestBurnRates:
    def test_windows_from_history_deltas(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        old = registry.snapshot()  # 0 bad / 100 total so far
        registry.inc("op.total", 100)
        registry.inc("op.bad", 20)  # this window: 20 bad / 100 -> burn 2.0
        [result] = SloEngine([RATIO]).evaluate(registry, history=[old]).results
        assert result.burn_rates["w1"] == pytest.approx(2.0)
        assert result.burning  # window burn >1 even though overall is 10%/10%=1.0

    def test_multi_window_labels_widen_backwards(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        first = registry.snapshot()
        registry.inc("op.total", 100)
        second = registry.snapshot()
        registry.inc("op.total", 100)
        registry.inc("op.bad", 5)
        [result] = (
            SloEngine([RATIO]).evaluate(registry, history=[first, second]).results
        )
        # w1 spans the newest window (since `second`), w2 reaches to `first`
        assert result.burn_rates["w1"] == pytest.approx(0.5)
        assert result.burn_rates["w2"] == pytest.approx(0.25)

    def test_counter_reset_clamps_to_zero(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        registry.inc("op.bad", 30)
        old = registry.snapshot()
        fresh = MetricsRegistry()  # simulated process restart
        fresh.inc("op.total", 200)
        fresh.inc("op.bad", 10)
        [result] = SloEngine([RATIO]).evaluate(fresh, history=[old]).results
        assert result.burn_rates["w1"] == 0.0

    def test_empty_window_is_nan(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        snap = registry.snapshot()
        [result] = SloEngine([RATIO]).evaluate(registry, history=[snap]).results
        assert math.isnan(result.burn_rates["w1"])


class TestEventLogBridge:
    def test_evaluate_events_uses_last_snapshot_and_history(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry()
        log = obs.EventLog(path)
        registry.inc("serve.service.assessments", 100)
        log.emit_metrics(registry)
        registry.inc("serve.service.assessments", 100)
        registry.inc("serve.service.degraded_assessments", 5)
        log.emit_metrics(registry)
        log.close()
        evaluation = evaluate_events(path)
        by_name = {r.spec.name: r for r in evaluation.results}
        degraded = by_name["serve.degraded_verdicts"]
        assert degraded.total == 200
        assert degraded.bad == 5
        assert degraded.burn_rates["w1"] == pytest.approx(5.0)

    def test_no_snapshots_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path)
        log.emit("run_start")
        log.close()
        with pytest.raises(ValueError, match="no metric snapshots"):
            evaluate_events(path)


class TestRendering:
    def test_report_shows_status_and_summary(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        registry.inc("op.bad", 30)
        report = render_slo_report(SloEngine([RATIO, LATENCY]).evaluate(registry))
        assert "[BURN]" in report
        assert "no traffic" in report  # latency saw nothing
        assert "1/2 burning (deg)" in report

    def test_report_all_ok(self):
        registry = MetricsRegistry()
        registry.inc("op.total", 100)
        report = render_slo_report(SloEngine([RATIO]).evaluate(registry))
        assert "all 1 within budget" in report


class TestBenchBridge:
    def _payload(self, tmp_path, registry):
        evaluation = SloEngine(default_serve_slos()).evaluate(registry)
        path = tmp_path / "BENCH_slo.json"
        obs.write_bench_json(
            path, "slo", evaluation_to_bench_rows(evaluation), meta=obs.run_metadata()
        )
        return obs.read_bench_json(path)

    def test_round_trip_validates(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 100)
        registry.observe("serve.assess.seconds", 0.001)
        payload = self._payload(tmp_path, registry)
        validate_slo_payload(payload)
        names = {row["name"] for row in payload["results"]}
        assert names == {
            "slo.serve.latency.assess",
            "slo.serve.degraded_verdicts",
            "slo.core.calibration.staleness",
        }

    def test_no_traffic_rows_report_zero_consumption(self, tmp_path):
        payload = self._payload(tmp_path, MetricsRegistry())
        for row in payload["results"]:
            assert row["params"]["traffic"] == "none"
            assert row["stats"]["mean_s"] == 0.0
            assert row["slo"]["burning"] is False

    def test_validate_rejects_wrong_bench_kind(self, tmp_path):
        registry = MetricsRegistry()
        evaluation = SloEngine(default_serve_slos()).evaluate(registry)
        path = tmp_path / "BENCH_other.json"
        obs.write_bench_json(
            path, "other", evaluation_to_bench_rows(evaluation), meta={}
        )
        with pytest.raises(ValueError, match="bench field"):
            validate_slo_payload(obs.read_bench_json(path))

    def test_validate_rejects_missing_slo_block(self, tmp_path):
        path = tmp_path / "BENCH_slo.json"
        obs.write_bench_json(
            path,
            "slo",
            [
                {
                    "name": "slo.x",
                    "params": {},
                    "stats": {"mean_s": 0.0, "min_s": 0.0, "repeats": 1},
                }
            ],
            meta={},
        )
        with pytest.raises(ValueError, match="slo extension"):
            validate_slo_payload(obs.read_bench_json(path))

    def test_burn_rate_nan_serializes_as_null(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 10)
        snap = registry.snapshot()
        evaluation = SloEngine(default_serve_slos()).evaluate(
            registry, history=[snap]
        )
        rows = evaluation_to_bench_rows(evaluation)
        by_name = {row["name"]: row for row in rows}
        rates = by_name["slo.serve.degraded_verdicts"]["slo"]["burn_rates"]
        assert rates["w1"] is None  # empty window: no traffic delta


class TestDefaults:
    def test_default_specs_are_well_formed(self):
        specs = default_serve_slos()
        assert [s.name for s in specs] == [
            "serve.latency.assess",
            "serve.degraded_verdicts",
            "core.calibration.staleness",
        ]
        SloEngine(specs)  # no duplicates, all valid

    def test_default_overrides_flow_through(self):
        [latency, degraded, staleness] = default_serve_slos(
            latency_threshold_s=0.2, latency_objective=0.95
        )
        assert latency.threshold_s == 0.2
        assert latency.objective == 0.95
