"""The ``repro health`` subcommand: live registry and event-log modes."""

from __future__ import annotations

import json

from repro.main import main
from repro.resilience import CircuitBreaker, Quarantine


class TestLiveMode:
    def test_empty_registry_renders_cleanly(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "resilience health" in out
        assert "breakers: 0" in out

    def test_live_components_appear(self, capsys):
        breaker = CircuitBreaker("cluster.peer.shard-00", failure_threshold=1)
        breaker.record_failure()
        quarantine = Quarantine(name="ledger")
        quarantine.add("bad", site="feedback.ledger.fold", reason="order")
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "cluster.peer.shard-00" in out
        assert "open" in out
        assert "ledger" in out
        assert "depth=1" in out


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
