"""Tests for the repro-assess CLI."""

import numpy as np
import pytest

from repro.main import assess_main as main
from repro.core.model import generate_honest_outcomes
from repro.feedback.io import write_feedback_csv, write_feedback_jsonl
from repro.feedback.records import Feedback, Rating


def _feedbacks_from_outcomes(outcomes, server, start_time=0.0):
    return [
        Feedback(
            time=start_time + t,
            server=server,
            client=f"c{t % 11}",
            rating=Rating.POSITIVE if outcome else Rating.NEGATIVE,
        )
        for t, outcome in enumerate(outcomes)
    ]


@pytest.fixture()
def mixed_log(tmp_path):
    """A log with one honest and one manipulating server."""
    honest = _feedbacks_from_outcomes(
        generate_honest_outcomes(600, 0.95, seed=1), "alice"
    )
    manipulator = _feedbacks_from_outcomes(np.tile([0] + [1] * 9, 60), "mallory")
    path = tmp_path / "log.csv"
    write_feedback_csv(path, honest + manipulator)
    return path


class TestAssessment:
    def test_flags_manipulator_exit_code_two(self, mixed_log, capsys):
        code = main([str(mixed_log), "--test", "single"])
        out = capsys.readouterr().out
        assert code == 2
        assert "alice" in out and "trusted" in out
        assert "SUSPICIOUS" in out
        assert "distance" in out  # failure detail printed

    def test_all_clear_exit_code_zero(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        write_feedback_csv(
            path,
            _feedbacks_from_outcomes(
                generate_honest_outcomes(500, 0.97, seed=2), "alice"
            ),
        )
        assert main([str(path), "--test", "single"]) == 0
        assert "trusted" in capsys.readouterr().out

    def test_no_test_mode_trust_only(self, mixed_log, capsys):
        code = main([str(mixed_log), "--test", "none"])
        out = capsys.readouterr().out
        assert code == 0  # nothing flagged without the screen
        assert "SUSPICIOUS" not in out

    def test_multi_reports_suffix_detail(self, tmp_path, capsys):
        trace = np.concatenate(
            [generate_honest_outcomes(600, 0.95, seed=3), np.zeros(30, dtype=np.int8)]
        )
        path = tmp_path / "log.csv"
        write_feedback_csv(path, _feedbacks_from_outcomes(trace, "sneaky"))
        code = main([str(path), "--test", "multi"])
        out = capsys.readouterr().out
        assert code == 2
        assert "suffix" in out

    def test_server_filter(self, mixed_log, capsys):
        code = main([str(mixed_log), "--test", "single", "--server", "alice"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mallory" not in out

    def test_unknown_server_errors(self, mixed_log, capsys):
        code = main([str(mixed_log), "--server", "ghost"])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_jsonl_input(self, tmp_path, capsys):
        path = tmp_path / "log.jsonl"
        write_feedback_jsonl(
            path,
            _feedbacks_from_outcomes(
                generate_honest_outcomes(400, 0.95, seed=4), "alice"
            ),
        )
        assert main([str(path), "--test", "single"]) == 0

    def test_untrusted_but_consistent_server(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        write_feedback_csv(
            path,
            _feedbacks_from_outcomes(
                generate_honest_outcomes(500, 0.7, seed=5), "mediocre"
            ),
        )
        code = main([str(path), "--test", "single"])
        out = capsys.readouterr().out
        assert code == 0
        assert "untrusted" in out


class TestJsonOutput:
    def test_json_structure(self, mixed_log, capsys):
        import json

        code = main([str(mixed_log), "--test", "single", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        by_server = {row["server"]: row for row in payload}
        assert by_server["alice"]["status"] == "trusted"
        assert by_server["alice"]["trust"] == pytest.approx(0.95, abs=0.05)
        assert by_server["mallory"]["status"] == "suspicious"
        assert by_server["mallory"]["trust"] is None
        assert "distance" in by_server["mallory"]["detail"]

    def test_json_all_clear(self, tmp_path, capsys):
        import json

        path = tmp_path / "log.csv"
        write_feedback_csv(
            path,
            _feedbacks_from_outcomes(
                generate_honest_outcomes(400, 0.97, seed=8), "alice"
            ),
        )
        code = main([str(path), "--test", "single", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload[0]["detail"] == ""


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main([str(tmp_path / "absent.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,server,client,rating\nx,s,c,1\n")
        assert main([str(path)]) == 1

    def test_empty_log(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("time,server,client,rating\n")
        assert main([str(path)]) == 1

    def test_unknown_trust_function_rejected(self, mixed_log):
        with pytest.raises(SystemExit):
            main([str(mixed_log), "--trust", "nope"])

    def test_custom_window_and_confidence(self, mixed_log, capsys):
        code = main(
            [str(mixed_log), "--test", "single", "--window", "20", "--confidence", "0.99"]
        )
        assert code in (0, 2)  # plumbing works; verdicts config-dependent
