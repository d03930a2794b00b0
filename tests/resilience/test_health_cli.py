"""A finished run's resilience health through ``repro obs report``."""

from __future__ import annotations

import json

from repro.main import main


class TestEventLogMode:
    def test_summarizes_resilience_events(self, tmp_path, capsys):
        path = tmp_path / "run_events.jsonl"
        records = [
            {"time": 1.0, "event": "fault_injected", "site": "core.calibration"},
            {"time": 2.0, "event": "fault_injected", "site": "core.calibration"},
            {
                "time": 3.0,
                "event": "calibration_degraded",
                "site": "core.calibration",
                "stale_p": 0.5,
            },
            {"time": 4.0, "event": "phase", "name": "unrelated"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "  fault_injected        2\n" in out
        assert "  calibration_degraded  1\n" in out
        assert "by site:\n  core.calibration  3" in out

    def test_log_without_resilience_events(self, tmp_path, capsys):
        path = tmp_path / "quiet.jsonl"
        path.write_text('{"time": 1.0, "event": "phase", "name": "warm"}\n')
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "event counts:\n  phase  1" in out
        assert "by site:" not in out

    def test_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
