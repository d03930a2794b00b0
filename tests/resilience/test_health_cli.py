"""The ``repro health`` subcommand: resilience events of a finished run."""

from __future__ import annotations

import json

import pytest

from repro.main import main


def test_event_log_is_required(capsys):
    """A process that built nothing has no live state to report."""
    with pytest.raises(SystemExit) as exc:
        main(["health"])
    assert exc.value.code == 2
    assert "events" in capsys.readouterr().err


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
        assert main(["health", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fault_injected           2" in out
        assert "calibration_degraded     1" in out
        assert "core.calibration         3" in out

    def test_log_without_resilience_events(self, tmp_path, capsys):
        path = tmp_path / "quiet.jsonl"
        path.write_text('{"time": 1.0, "event": "phase", "name": "warm"}\n')
        assert main(["health", str(path)]) == 0
        assert "no resilience events" in capsys.readouterr().out

    def test_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err
