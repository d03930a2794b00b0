"""The ``repro`` umbrella CLI and the ``obs report`` subcommand."""

import json
import logging

import pytest

from repro import obs
from repro.main import build_parser, main

GOOD_ROW = {
    "name": "single",
    "params": {"history_size": 1000},
    "stats": {"mean_s": 0.25, "min_s": 0.2, "repeats": 3},
}


@pytest.fixture()
def bench_file(tmp_path):
    path = tmp_path / "BENCH_fig9.json"
    obs.write_bench_json(path, "fig9", [GOOD_ROW], meta={"seed": 2008})
    return path


@pytest.fixture()
def events_file(tmp_path):
    path = tmp_path / "run_events.jsonl"
    reg = obs.MetricsRegistry()
    reg.inc("core.two_phase.assessments", 4)
    with obs.EventLog(path, run_meta=obs.run_metadata(seed=7)) as log:
        log.emit("phase", name="calibration")
        log.emit_metrics(reg)
    return path


class TestObsReport:
    def test_reports_bench_artifact(self, bench_file, capsys):
        assert main(["obs", "report", str(bench_file)]) == 0
        out = capsys.readouterr().out
        assert "bench: fig9" in out
        assert "single" in out
        assert "seed=2008" in out

    def test_reports_event_log(self, events_file, capsys):
        assert main(["obs", "report", str(events_file)]) == 0
        out = capsys.readouterr().out
        assert "run_start" in out
        assert "seed=7" in out
        assert "core.two_phase.assessments" in out

    def test_missing_artifact_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_artifact_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"bench": "x"}), encoding="utf-8")
        assert main(["obs", "report", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestParserShape:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_forwarding_captures_remainder(self):
        args = build_parser().parse_args(
            ["experiments", "fig9", "--quick", "--seed", "5"]
        )
        assert args.command == "experiments"
        assert args.rest == ["fig9", "--quick", "--seed", "5"]

    def test_assess_remainder(self):
        args = build_parser().parse_args(["assess", "feedback.csv", "--test", "multi"])
        assert args.rest == ["feedback.csv", "--test", "multi"]


class TestLogLevel:
    def test_log_level_configures_repro_logger(self, bench_file):
        logger = logging.getLogger("repro")
        prior_level = logger.level
        prior_handlers = list(logger.handlers)
        try:
            assert main(["--log-level", "DEBUG", "obs", "report", str(bench_file)]) == 0
            assert logger.level == logging.DEBUG
            assert any(
                isinstance(h, logging.StreamHandler) for h in logger.handlers
            )
        finally:
            logger.setLevel(prior_level)
            for handler in logger.handlers[:]:
                if handler not in prior_handlers:
                    logger.removeHandler(handler)

    def test_configure_logging_idempotent(self):
        logger = logging.getLogger("repro.test_idempotent")
        prior_handlers = list(logger.handlers)
        try:
            obs.configure_logging("INFO", logger_name="repro.test_idempotent")
            obs.configure_logging("DEBUG", logger_name="repro.test_idempotent")
            added = [h for h in logger.handlers if h not in prior_handlers]
            assert len(added) == 1
            assert logger.level == logging.DEBUG
        finally:
            for handler in logger.handlers[:]:
                if handler not in prior_handlers:
                    logger.removeHandler(handler)

    def test_package_logger_has_null_handler(self):
        logger = logging.getLogger("repro.obs")
        assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)


@pytest.fixture()
def audit_file(tmp_path):
    import numpy as np

    from repro.core.multi_testing import MultiBehaviorTest
    from repro.obs import audit as audit_module

    path = tmp_path / "run_audit.jsonl"
    outcomes = np.concatenate(
        [
            (np.random.default_rng(0).random(600) < 0.95).astype(np.int8),
            np.zeros(40, dtype=np.int8),
        ]
    )
    with audit_module.audit_session(path=path) as trail:
        with trail.decision_scope(server="mallory"):
            MultiBehaviorTest().test(outcomes)
    return path


class TestObsReportDirectory:
    def test_empty_directory_is_clear_error_not_traceback(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "no observability artifacts" in err
        assert "Traceback" not in err

    def test_directory_with_artifacts_renders_all(self, tmp_path, capsys):
        obs.write_bench_json(
            tmp_path / "BENCH_fig9.json", "fig9", [GOOD_ROW], meta={"seed": 2008}
        )
        with obs.EventLog(tmp_path / "run.jsonl", run_meta=obs.run_metadata(seed=3)):
            pass
        assert main(["obs", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bench: fig9" in out
        assert "run_start" in out


class TestObsDiff:
    def _write(self, path, factor=1.0):
        row = {
            "name": "single",
            "params": {"history_size": 1000},
            "stats": {"mean_s": 0.25 * factor, "min_s": 0.2, "p95_s": 0.3 * factor, "repeats": 3},
        }
        obs.write_bench_json(path, "fig9", [row], meta={})
        return path

    def test_identical_artifacts_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json")
        assert main(["obs", "diff", str(base), str(base)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_two(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json")
        slow = self._write(tmp_path / "slow.json", factor=1.5)
        assert main(["obs", "diff", str(base), str(slow)]) == 2
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_max_regression_flag(self, tmp_path):
        base = self._write(tmp_path / "base.json")
        slow = self._write(tmp_path / "slow.json", factor=1.5)
        assert (
            main(["obs", "diff", str(base), str(slow), "--max-regression", "0.6"]) == 0
        )

    def test_missing_file_is_error(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json")
        assert main(["obs", "diff", str(base), str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsDiffDefaultBaseline:
    def _bench(self, path, factor=1.0):
        row = {
            "name": "single",
            "params": {"history_size": 1000},
            "stats": {"mean_s": 0.25 * factor, "min_s": 0.2, "p95_s": 0.3 * factor, "repeats": 3},
        }
        obs.write_bench_json(path, "fig9", [row], meta={})
        return path

    def test_single_path_diffs_against_committed_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        self._bench(tmp_path / "BENCH_fig9.json")  # the committed baseline
        cand = self._bench(tmp_path / "candidate.json", factor=1.5)
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 2
        assert "REGRESSED" in capsys.readouterr().out

    def test_single_path_ok_when_within_gate(self, tmp_path, monkeypatch, capsys):
        self._bench(tmp_path / "BENCH_fig9.json")
        cand = self._bench(tmp_path / "candidate.json", factor=1.05)
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_committed_baseline_is_clear_error(
        self, tmp_path, monkeypatch, capsys
    ):
        cand = self._bench(tmp_path / "candidate.json")
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 1
        err = capsys.readouterr().err
        assert "no committed baseline" in err
        assert "BENCH_fig9.json" in err


class TestObsTop:
    def _progressing_log(self, path, *, finish):
        from repro.obs.monitor import ProgressMonitor

        with obs.EventLog(path, run_meta=obs.run_metadata(seed=1, experiment="fig7")) as log:
            monitor = ProgressMonitor(
                log, total=40, label="trials", interval_seconds=None, interval_ticks=10
            )
            monitor.start(experiment="fig7")
            monitor.tick(10, tests=20)
            if finish:
                monitor.tick(30, tests=60)
                monitor.finish()
        return path

    def test_once_renders_live_run_snapshot(self, tmp_path, capsys):
        path = self._progressing_log(tmp_path / "run.jsonl", finish=False)
        assert main(["obs", "top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "experiment=fig7" in out
        assert "10/40 trials" in out
        assert "status: running" in out

    def test_partially_written_tail_line_is_tolerated(self, tmp_path, capsys):
        path = self._progressing_log(tmp_path / "run.jsonl", finish=False)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "heartbe')  # producer mid-write
        assert main(["obs", "top", str(path), "--once"]) == 0
        assert "10/40 trials" in capsys.readouterr().out

    def test_finished_run_exits_without_once(self, tmp_path, capsys):
        path = self._progressing_log(tmp_path / "run.jsonl", finish=True)
        assert main(["obs", "top", str(path), "--interval", "0.01"]) == 0
        assert "status: finished" in capsys.readouterr().out

    def test_missing_file_renders_empty_dashboard(self, tmp_path, capsys):
        assert main(["obs", "top", str(tmp_path / "absent.jsonl"), "--once"]) == 0
        assert "(no progress events yet" in capsys.readouterr().out


class TestObsTrend:
    def _history(self, tmp_path, p95s):
        for i, p95 in enumerate(p95s):
            row = {
                "name": "single",
                "params": {"history_size": 1000},
                "stats": {"mean_s": p95 * 0.9, "min_s": 0.2, "p95_s": p95, "repeats": 3},
            }
            obs.write_bench_json(
                tmp_path / f"BENCH_fig9_{i:03d}.json",
                "fig9",
                [row],
                meta={"timestamp": 1000.0 + i},
            )
        return tmp_path

    def test_stable_history_exits_zero(self, tmp_path, capsys):
        directory = self._history(tmp_path, [0.30, 0.31, 0.30])
        assert main(["obs", "trend", str(directory)]) == 0
        assert "OK: no series regressed" in capsys.readouterr().out

    def test_regression_exits_two(self, tmp_path, capsys):
        directory = self._history(tmp_path, [0.30, 0.31, 0.30, 0.60])
        assert main(["obs", "trend", str(directory)]) == 2
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_max_regression_flag(self, tmp_path):
        directory = self._history(tmp_path, [0.30, 0.31, 0.30, 0.60])
        assert main(["obs", "trend", str(directory), "--max-regression", "1.5"]) == 0

    def test_bench_filter_flag(self, tmp_path, capsys):
        directory = self._history(tmp_path, [0.30, 0.60])
        assert main(["obs", "trend", str(directory), "--bench", "other"]) == 0
        assert "(no series found)" in capsys.readouterr().out

    def test_missing_directory_is_error(self, tmp_path, capsys):
        assert main(["obs", "trend", str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsValidate:
    def test_valid_audit_log_passes(self, audit_file, capsys):
        assert main(["obs", "validate", str(audit_file)]) == 0
        assert "all valid" in capsys.readouterr().out

    def test_log_without_audit_records_is_error(self, events_file, capsys):
        assert main(["obs", "validate", str(events_file)]) == 1
        assert "no audit records" in capsys.readouterr().err

    def test_malformed_audit_record_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"event": "audit", "schema_version": 1, "kind": "nope"}) + "\n",
            encoding="utf-8",
        )
        assert main(["obs", "validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_json_validates(self, bench_file, capsys):
        assert main(["obs", "validate", str(bench_file)]) == 0
        assert "valid bench artifact" in capsys.readouterr().out

    def test_profile_json_validates(self, tmp_path, capsys):
        from repro.obs.profile import PhaseProfiler
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        prof = PhaseProfiler()
        prof.install(tracer)
        tracer.begin("phase", {}, 0.0)
        tracer.finish(1.0)
        path = tmp_path / "PROFILE_x.json"
        obs.write_profile_json(path, "x", prof)
        assert main(["obs", "validate", str(path)]) == 0
        assert "valid profile artifact" in capsys.readouterr().out

    def test_json_matching_neither_schema_is_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"bench": "x"}), encoding="utf-8")
        assert main(["obs", "validate", str(path)]) == 1
        assert (
            "not a valid bench, profile, fleet, or postmortem"
            in capsys.readouterr().err
        )

    def test_unparsable_json_is_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["obs", "validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsReportProfile:
    def test_reports_profile_artifact(self, tmp_path, capsys):
        from repro.obs.profile import PhaseProfiler
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        prof = PhaseProfiler()
        prof.install(tracer)
        tracer.begin("calibrate", {}, 0.0)
        tracer.finish(2.0)
        path = tmp_path / "PROFILE_fig9.json"
        obs.write_profile_json(path, "fig9", prof, meta={"seed": 2008})
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "profile: fig9" in out
        assert "calibrate" in out
        assert "seed=2008" in out


class TestReproLogLevelEnv:
    def test_env_var_configures_logging(self, bench_file, monkeypatch):
        logger = logging.getLogger("repro")
        prior_level = logger.level
        prior_handlers = list(logger.handlers)
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        try:
            assert main(["obs", "report", str(bench_file)]) == 0
            assert logger.level == logging.DEBUG
        finally:
            logger.setLevel(prior_level)
            for handler in logger.handlers[:]:
                if handler not in prior_handlers:
                    logger.removeHandler(handler)

    def test_flag_beats_env_var(self, bench_file, monkeypatch):
        logger = logging.getLogger("repro")
        prior_level = logger.level
        prior_handlers = list(logger.handlers)
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        try:
            assert (
                main(["--log-level", "WARNING", "obs", "report", str(bench_file)]) == 0
            )
            assert logger.level == logging.WARNING
        finally:
            logger.setLevel(prior_level)
            for handler in logger.handlers[:]:
                if handler not in prior_handlers:
                    logger.removeHandler(handler)


class TestExplainCli:
    def test_explain_renders_rejection(self, audit_file, capsys):
        assert main(["explain", "mallory", str(audit_file)]) == 0
        out = capsys.readouterr().out
        assert "mallory" in out
        assert "failing suffix" in out

    def test_explain_missing_file_is_error(self, tmp_path, capsys):
        assert main(["explain", "x", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def spans_file(tmp_path):
    from repro.obs import context as trace_ctx

    path = tmp_path / "spans.jsonl"
    with obs.activate(), trace_ctx.tracing_session(path):
        with trace_ctx.use(trace_ctx.new_root(test="cli")):
            with obs.span("request"):
                with obs.span("request.child"):
                    pass
    return path


class TestObsTrace:
    def _trace_id(self, spans_file):
        from repro.obs.context import read_span_jsonl

        return read_span_jsonl(spans_file)[0]["trace_id"]

    def test_lists_trace_ids_without_argument(self, spans_file, capsys):
        assert main(["obs", "trace", str(spans_file)]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out
        assert self._trace_id(spans_file) in out
        assert "(2 spans)" in out

    def test_renders_tree_from_unique_prefix(self, spans_file, capsys):
        tid = self._trace_id(spans_file)
        assert main(["obs", "trace", str(spans_file), tid[:10]]) == 0
        out = capsys.readouterr().out
        assert f"trace {tid}" in out
        assert "request" in out
        assert "request.child" in out

    def test_unknown_trace_id_is_error(self, spans_file, capsys):
        assert main(["obs", "trace", str(spans_file), "feedbeef"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_span_log_is_error(self, tmp_path, capsys):
        assert main(["obs", "trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_span_log_is_error(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["obs", "trace", str(path)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_otlp_export_writes_resource_spans(self, spans_file, tmp_path, capsys):
        out_path = tmp_path / "spans_otlp.json"
        assert main(["obs", "trace", str(spans_file), "--otlp", str(out_path)]) == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert "resourceSpans" in payload
        assert "wrote OTLP JSON export" in capsys.readouterr().out


class TestObsSlo:
    def _events(self, tmp_path, *, degradations):
        path = tmp_path / "run_events.jsonl"
        registry = obs.MetricsRegistry()
        registry.inc("serve.requests", 100)
        if degradations:
            registry.inc("serve.resilience.degradations", degradations)
        with obs.EventLog(path) as log:
            log.emit_metrics(registry)
        return path

    def test_healthy_run_exits_zero(self, tmp_path, capsys):
        path = self._events(tmp_path, degradations=0)
        assert main(["obs", "slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.degraded_verdicts" in out
        assert "within budget" in out

    def test_burning_budget_exits_two(self, tmp_path, capsys):
        # 5% degraded against a 1% budget: the ratio SLO burns
        path = self._events(tmp_path, degradations=5)
        assert main(["obs", "slo", str(path)]) == 2
        assert "BURN" in capsys.readouterr().out

    def test_out_writes_validated_bench_artifact(self, tmp_path, capsys):
        path = self._events(tmp_path, degradations=0)
        artifact = tmp_path / "BENCH_slo.json"
        assert main(["obs", "slo", str(path), "--out", str(artifact)]) == 0
        payload = obs.read_bench_json(artifact)
        obs.validate_slo_payload(payload)  # schema round-trips
        assert "wrote" in capsys.readouterr().out

    def test_rereports_burn_from_written_artifact(self, tmp_path, capsys):
        path = self._events(tmp_path, degradations=5)
        artifact = tmp_path / "BENCH_slo.json"
        assert main(["obs", "slo", str(path), "--out", str(artifact)]) == 2
        capsys.readouterr()
        assert main(["obs", "slo", str(artifact)]) == 2
        assert "budgets burning" in capsys.readouterr().out

    def test_ok_artifact_exits_zero(self, tmp_path, capsys):
        path = self._events(tmp_path, degradations=0)
        artifact = tmp_path / "BENCH_slo.json"
        main(["obs", "slo", str(path), "--out", str(artifact)])
        capsys.readouterr()
        assert main(["obs", "slo", str(artifact)]) == 0
        assert "within budget" in capsys.readouterr().out

    def test_latency_flags_reach_the_specs(self, tmp_path, capsys):
        # every assessment takes ~100ms: burning against the default
        # 50ms bound, healthy once --latency-threshold raises it
        path = tmp_path / "run_events.jsonl"
        registry = obs.MetricsRegistry()
        for _ in range(100):
            registry.observe("serve.assess.seconds", 0.1)
        with obs.EventLog(path) as log:
            log.emit_metrics(registry)
        assert main(["obs", "slo", str(path)]) == 2
        capsys.readouterr()
        assert main(["obs", "slo", str(path), "--latency-threshold", "0.2"]) == 0

    def test_event_log_without_snapshots_is_error(self, tmp_path, capsys):
        path = tmp_path / "run_events.jsonl"
        with obs.EventLog(path) as log:
            log.emit("run_start")
        assert main(["obs", "slo", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_artifact_is_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_slo.json"
        path.write_text(json.dumps({"bench": "slo"}), encoding="utf-8")
        assert main(["obs", "slo", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsReportAuditSummary:
    def test_event_log_report_includes_audit_summary(self, audit_file, capsys):
        assert main(["obs", "report", str(audit_file)]) == 0
        out = capsys.readouterr().out
        assert "audit summary" in out
        assert "rejection reasons" in out
        assert "suffix_distance_exceeds_epsilon" in out


@pytest.fixture()
def tsdb_file(tmp_path):
    from repro.obs.tsdb import MetricsScraper

    registry = obs.MetricsRegistry()
    registry.inc("serve.requests", 10)
    registry.observe("serve.assess.seconds", 0.002)
    scraper = MetricsScraper(registry, interval_s=1.0, clock=lambda: 145.0)
    scraper.scrape()
    registry.inc("serve.requests", 5)
    scraper.scrape(now=146.0)
    path = tmp_path / "TSDB_serve.jsonl"
    scraper.store.dump(path)
    return path


class TestObsTsdb:
    def test_series_table_listing(self, tsdb_file, capsys):
        assert main(["obs", "tsdb", str(tsdb_file)]) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out
        assert "serve.assess.seconds.p95" in out
        assert "2 scrape(s)" in out

    def test_query_one_series(self, tsdb_file, capsys):
        assert main(["obs", "tsdb", str(tsdb_file), "serve.requests"]) == 0
        out = capsys.readouterr().out
        assert "serve.requests  (2 samples)" in out
        assert "145.000  10" in out
        assert "146.000  15" in out

    def test_bare_family_selects_every_field(self, tsdb_file, capsys):
        assert main(["obs", "tsdb", str(tsdb_file), "serve.assess.seconds"]) == 0
        out = capsys.readouterr().out
        assert "serve.assess.seconds.count" in out
        assert "serve.assess.seconds.p99" in out

    def test_downsampled_query(self, tsdb_file, capsys):
        assert (
            main(
                [
                    "obs", "tsdb", str(tsdb_file), "serve.requests",
                    "--step", "10", "--agg", "max",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(1 samples)" in out  # both scrapes share the 140s bucket
        assert "140.000  15" in out

    def test_unknown_series_errors_and_lists_known(self, tsdb_file, capsys):
        assert main(["obs", "tsdb", str(tsdb_file), "no.such"]) == 1
        err = capsys.readouterr().err
        assert "no series 'no.such'" in err
        assert "serve.assess.seconds.count" in err

    def test_missing_or_malformed_store_errors(self, tmp_path, capsys):
        assert main(["obs", "tsdb", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["obs", "tsdb", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_prom_stamps_scrape_time(self, tsdb_file, capsys):
        assert main(["obs", "tsdb", str(tsdb_file), "--export-prom", "-"]) == 0
        out = capsys.readouterr().out
        # the newest scrape (146.0s) becomes the exposition timestamp
        assert "repro_serve_requests_total 15 146000" in out
        assert "repro_serve_assess_seconds_count 1 146000" in out

    def test_export_prom_to_file(self, tsdb_file, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert (
            main(["obs", "tsdb", str(tsdb_file), "--export-prom", str(target)])
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        assert "146000" in target.read_text()


class TestObsPostmortem:
    def test_renders_bundle(self, tmp_path, capsys):
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(tmp_path, clock=lambda: 100.0)
        recorder.record_event({"event": "executor_degraded", "to": "serial"})
        path = recorder.dump(reason="resilience_error", site="serve.executor.worker")
        assert main(["obs", "postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "post-mortem: resilience_error" in out
        assert "site=serve.executor.worker" in out
        assert "executor_degraded" in out

    def test_tail_flag(self, tmp_path, capsys):
        from repro.obs.flightrec import FlightRecorder

        recorder = FlightRecorder(tmp_path, clock=lambda: 100.0)
        for i in range(10):
            recorder.record_event({"event": f"e{i}"})
        path = recorder.dump(reason="r")
        assert main(["obs", "postmortem", str(path), "--tail", "2"]) == 0
        out = capsys.readouterr().out
        assert "events (last 2 of 10):" in out

    def test_missing_or_invalid_bundle_errors(self, tmp_path, capsys):
        assert main(["obs", "postmortem", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"postmortem": 99}))
        assert main(["obs", "postmortem", str(bad)]) == 1
        assert "schema version" in capsys.readouterr().err


class TestObsTopDegradation:
    """Satellite: `obs top` exits 0 with a notice on broken logs."""

    def test_empty_log_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "top", str(path), "--once"]) == 0
        assert "(no progress events yet" in capsys.readouterr().out

    def test_fully_malformed_log_exits_zero_with_notice(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n[1, 2]\n")
        assert main(["obs", "top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(skipped 2 malformed log line(s))" in out
