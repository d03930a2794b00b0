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

    @pytest.mark.parametrize(
        "argv",
        [
            ["obs", "fleet", "out"],
            ["experiments", "p2p_scale", "--quick", "--fleet-dir", "out"],
        ],
    )
    def test_fleet_view_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_experiments_is_a_real_subparser(self):
        args = build_parser().parse_args(
            ["experiments", "fig9", "--quick", "--seed", "5"]
        )
        assert args.command == "experiments"
        assert (args.experiment, args.quick, args.seed) == ("fig9", True, 5)
        assert args.bench_dir is None and args.trace_dir is None

    def test_assess_is_a_real_subparser(self):
        args = build_parser().parse_args(["assess", "feedback.csv", "--test", "multi"])
        assert args.command == "assess"
        assert str(args.feedback_file) == "feedback.csv"
        assert (args.test, args.trust, args.window) == ("multi", "average", 10)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--log-level", "INFO", "obs", "report", "x"],
            ["obs", "report", "x", "--log-level", "INFO"],
        ],
    )
    def test_log_level_before_or_after_the_subcommand(self, argv):
        assert build_parser().parse_args(argv).log_level == "INFO"

    def test_log_level_after_does_not_erase_one_before(self):
        args = build_parser().parse_args(
            ["--log-level", "DEBUG", "experiments", "fig9"]
        )
        assert args.log_level == "DEBUG"
        assert build_parser().parse_args(["experiments", "fig9"]).log_level is None


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

    @staticmethod
    def _baselines(root):
        """The committed-baseline directory under ``root``."""
        path = root / "benchmarks" / "baselines"
        path.mkdir(parents=True)
        return path

    def test_single_path_diffs_against_committed_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        self._bench(self._baselines(tmp_path) / "BENCH_fig9.json")
        cand = self._bench(tmp_path / "candidate.json", factor=1.5)
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 2
        assert "REGRESSED" in capsys.readouterr().out

    def test_single_path_ok_when_within_gate(self, tmp_path, monkeypatch, capsys):
        self._bench(self._baselines(tmp_path) / "BENCH_fig9.json")
        cand = self._bench(tmp_path / "candidate.json", factor=1.05)
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_committed_baseline_is_clear_error(
        self, tmp_path, monkeypatch, capsys
    ):
        cand = self._bench(tmp_path / "candidate.json")
        self._bench(tmp_path / "BENCH_fig9.json")  # a root copy is not a baseline
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "diff", str(cand)]) == 1
        err = capsys.readouterr().err
        assert "no committed baseline" in err
        assert "benchmarks/baselines/BENCH_fig9.json" in err


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

    def test_json_matching_neither_schema_is_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"bench": "x"}), encoding="utf-8")
        assert main(["obs", "validate", str(path)]) == 1
        assert "not a valid bench artifact" in capsys.readouterr().err

    def test_unparsable_json_is_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["obs", "validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


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


class TestObsReportAuditSummary:
    def test_event_log_report_includes_audit_summary(self, audit_file, capsys):
        assert main(["obs", "report", str(audit_file)]) == 0
        out = capsys.readouterr().out
        assert "audit summary" in out
        assert "rejection reasons" in out
        assert "suffix_distance_exceeds_epsilon" in out


class TestObsReportSpanLog:
    def test_span_log_renders_phase_table(self, spans_file, capsys):
        assert main(["obs", "report", str(spans_file)]) == 0
        out = capsys.readouterr().out
        assert "phases: 2 spans" in out
        assert "self_s" in out
        assert "\n  request.child " in out  # nested under its parent

    def test_span_log_is_recognised_by_content(self, spans_file, tmp_path, capsys):
        renamed = tmp_path / "spans.log"
        renamed.write_text(spans_file.read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["obs", "report", str(renamed)]) == 0
        assert "phases: 2 spans" in capsys.readouterr().out

    def test_serve_trace_and_bench_directory_renders_both(self, tmp_path, capsys):
        """A ``--trace-dir`` directory holds a span log next to the serve
        bench; the report renders both instead of failing on the spans."""
        out_dir = str(tmp_path / "serve-out")
        argv = ["--quick", "--trace-dir", out_dir, "--bench-dir", out_dir]
        assert main(["experiments", "serve", *argv]) == 0
        capsys.readouterr()
        assert main(["obs", "report", out_dir]) == 0
        captured = capsys.readouterr()
        assert "bench: serve" in captured.out
        assert "experiments.serve.run" in captured.out
        assert captured.err == ""


def _bench_artifact(tmp_path):
    path = tmp_path / "BENCH_fig9.json"
    obs.write_bench_json(path, "fig9", [GOOD_ROW], meta={"seed": 2008})
    return path


def _span_artifact(tmp_path):
    from repro.obs import context as trace_ctx

    # the name a --trace-dir run writes, which once read as an event log
    path = tmp_path / "TRACE_fig9.jsonl"
    with obs.activate(), trace_ctx.tracing_session(path):
        with trace_ctx.use(trace_ctx.new_root(test="kinds")):
            with obs.span("request"):
                with obs.span("request.child"):
                    pass
    return path


def _audit_artifact(tmp_path):
    from repro.core.multi_testing import MultiBehaviorTest
    from repro.obs import audit as audit_module

    path = tmp_path / "AUDIT_fig7.jsonl"
    with audit_module.audit_session(path=path) as trail:
        with trail.decision_scope(server="mallory"):
            MultiBehaviorTest().test([1] * 200 + [0] * 40)
    return path


ARTIFACT_KINDS = {
    # name: (writer, kind, report marker, validate marker)
    "bench": (_bench_artifact, "bench", "bench: fig9", "valid bench artifact"),
    "spans": (_span_artifact, "spans", "phases: 2 spans", "2 span record(s), all valid"),
    "events": (_audit_artifact, "events", "audit summary", "audit record(s), all valid"),
}


class TestEveryArtifactKind:
    """One classifier behind ``obs report`` and ``obs validate``."""

    @pytest.mark.parametrize("name", list(ARTIFACT_KINDS))
    def test_report_and_validate_agree_on_the_kind(self, name, tmp_path, capsys):
        write, kind, report_marker, validate_marker = ARTIFACT_KINDS[name]
        path = write(tmp_path)
        assert obs.artifact_kind(path) == kind
        assert main(["obs", "report", str(path)]) == 0
        assert report_marker in capsys.readouterr().out
        assert main(["obs", "validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert validate_marker in captured.out
        assert captured.err == ""

    def test_directory_renders_each_file_by_its_kind(self, tmp_path, capsys):
        _span_artifact(tmp_path)
        _bench_artifact(tmp_path)
        assert main(["obs", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phases: 2 spans" in out
        assert "bench: fig9" in out

    def test_kind_ignores_the_file_name(self, tmp_path):
        renamed = tmp_path / "artifact.json"
        renamed.write_bytes(_span_artifact(tmp_path).read_bytes())
        assert obs.artifact_kind(renamed) == "spans"

    def test_malformed_span_record_fails_validation(self, tmp_path, capsys):
        path = _span_artifact(tmp_path)
        spans = obs.read_span_jsonl(path)
        spans[1]["duration_s"] = "slow"
        path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        assert main(["obs", "validate", str(path)]) == 1
        assert "line 2: duration_s must be a number" in capsys.readouterr().err
