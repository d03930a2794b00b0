"""Progress heartbeats, the text dashboard, and live tailing."""

import io
import json

import pytest

from repro import obs
from repro.obs.events import EventLog
from repro.obs.monitor import (
    ProgressMonitor,
    render_dashboard,
    render_sparkline,
    rss_bytes,
)


class FakeClock:
    """A monotonically advancing injectable clock."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def _events(log, kind):
    return [e for e in log.events if e["event"] == kind]


class TestProgressMonitor:
    def test_validation(self):
        log = EventLog()
        with pytest.raises(ValueError):
            ProgressMonitor(log, total=-1)
        with pytest.raises(ValueError):
            ProgressMonitor(log, interval_seconds=None, interval_ticks=None)
        with pytest.raises(ValueError):
            ProgressMonitor(log, interval_seconds=0)
        with pytest.raises(ValueError):
            ProgressMonitor(log, interval_seconds=None, interval_ticks=0)

    def test_start_emits_progress_start(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, total=10, label="steps", clock=clock)
        monitor.start(experiment="demo")
        (start,) = _events(log, "progress_start")
        assert start["total"] == 10
        assert start["label"] == "steps"
        assert start["experiment"] == "demo"

    def test_first_tick_auto_starts(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, interval_seconds=None, interval_ticks=1000, clock=clock
        )
        monitor.tick()
        assert len(_events(log, "progress_start")) == 1
        assert monitor.done == 1

    def test_tick_throttling_by_interval_ticks(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=100, interval_seconds=None, interval_ticks=10, clock=clock
        )
        for _ in range(25):
            monitor.tick()
        assert monitor.heartbeats == 2  # at 10 and 20, not every tick

    def test_time_throttling(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, total=100, interval_seconds=5.0, clock=clock)
        monitor.start()
        monitor.tick()
        assert monitor.heartbeats == 0  # no time elapsed yet
        clock.advance(5.0)
        monitor.tick()
        assert monitor.heartbeats == 1

    def test_heartbeat_contents(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, total=40, label="trials", clock=clock)
        monitor.start()
        clock.advance(10.0)
        monitor.tick(10, transactions=50)
        beat = monitor.heartbeat()
        assert beat["done"] == 10
        assert beat["total"] == 40
        assert beat["pct"] == pytest.approx(25.0)
        assert beat["elapsed_s"] == pytest.approx(10.0)
        assert beat["rates"]["trials_per_s"] == pytest.approx(1.0)
        assert beat["rates"]["transactions_per_s"] == pytest.approx(5.0)
        # 30 trials remain at 1/s
        assert beat["eta_s"] == pytest.approx(30.0)
        assert beat["counts"] == {"transactions": 50}

    def test_recent_rates_use_window_since_last_heartbeat(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=100, interval_seconds=None, interval_ticks=10**6, clock=clock
        )
        monitor.start()
        clock.advance(10.0)
        monitor.tick(10)
        monitor.heartbeat()
        clock.advance(2.0)
        monitor.tick(10)
        beat = monitor.heartbeat()
        assert beat["rates"]["ticks_per_s"] == pytest.approx(20 / 12)
        assert beat["recent"]["ticks_per_s"] == pytest.approx(10 / 2)

    def test_finish_emits_final_heartbeat_and_progress_end(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=5, interval_seconds=None, interval_ticks=10**6, clock=clock
        )
        monitor.start()
        clock.advance(1.0)
        monitor.tick(5, widgets=2)
        monitor.finish(experiment="demo")
        assert len(_events(log, "heartbeat")) == 1
        (end,) = _events(log, "progress_end")
        assert end["done"] == 5
        assert end["counts"] == {"widgets": 2}
        assert end["experiment"] == "demo"

    def test_unknown_total_skips_pct_and_eta(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, clock=clock)
        monitor.start()
        clock.advance(1.0)
        monitor.tick(3)
        beat = monitor.heartbeat()
        assert beat["pct"] is None
        assert beat["eta_s"] is None


class TestRssBytes:
    def test_returns_positive_int_or_none(self):
        rss = rss_bytes()
        assert rss is None or (isinstance(rss, int) and rss > 0)


class TestRenderDashboard:
    def _run_events(self, *, finished):
        clock = FakeClock()
        log = EventLog(
            run_meta={"experiment": "fig7", "seed": 42, "git_rev": "abc123"}
        )
        monitor = ProgressMonitor(
            log,
            total=80,
            label="trials",
            interval_seconds=None,
            interval_ticks=10**6,
            clock=clock,
        )
        monitor.start()
        clock.advance(4.0)
        monitor.tick(20, tests=40)
        monitor.heartbeat()
        if finished:
            clock.advance(12.0)
            monitor.tick(60)
            monitor.finish()
        return log.events

    def test_run_metadata_line(self):
        text = render_dashboard(self._run_events(finished=False))
        assert "experiment=fig7" in text
        assert "seed=42" in text
        assert "git_rev=abc123" in text

    def test_progress_bar_and_percentage(self):
        text = render_dashboard(self._run_events(finished=False), width=20)
        assert "[#####---------------]  25.0%  20/80 trials" in text
        assert "trials_per_s 5.0" in text
        assert "status: running" in text

    def test_finished_status(self):
        text = render_dashboard(self._run_events(finished=True))
        assert "status: finished (80 trials" in text

    def test_no_progress_events_yet(self):
        log = EventLog(run_meta={"experiment": "fig7"})
        text = render_dashboard(log.events)
        assert "(no progress events yet; 1 event(s) in log)" in text

    def test_unknown_total_renders_counts(self):
        clock = FakeClock()
        log = EventLog()
        monitor = ProgressMonitor(
            log, interval_seconds=None, interval_ticks=10**6, clock=clock
        )
        monitor.start()
        clock.advance(1.0)
        monitor.tick(7)
        monitor.heartbeat()
        text = render_dashboard(log.events)
        assert "progress: 7 ticks (total unknown)" in text


class TestTailDashboard:
    def test_missing_file_renders_empty_dashboard(self, tmp_path):
        stream = io.StringIO()
        rc = obs.tail_dashboard(tmp_path / "absent.jsonl", once=True, stream=stream)
        assert rc == 0
        assert "(no progress events yet" in stream.getvalue()

    def test_finished_log_exits_without_once(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog(path, run_meta={"experiment": "x"}) as log:
            monitor = ProgressMonitor(
                log, total=2, interval_seconds=None, interval_ticks=10**6
            )
            monitor.start()
            monitor.tick(2)
            monitor.finish()
        stream = io.StringIO()
        rc = obs.tail_dashboard(path, interval=0.01, stream=stream)
        assert rc == 0
        assert "status: finished" in stream.getvalue()

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog(path, run_meta={"experiment": "x"}) as log:
            monitor = ProgressMonitor(
                log, total=10, interval_seconds=None, interval_ticks=10**6
            )
            monitor.start()
            monitor.tick(4)
            monitor.heartbeat()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "heartbeat", "done"')  # mid-write crash
        stream = io.StringIO()
        rc = obs.tail_dashboard(path, once=True, stream=stream)
        assert rc == 0
        assert "4/10" in stream.getvalue()

    def test_max_updates_bounds_the_loop(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"event": "run_start"}) + "\n")
        stream = io.StringIO()
        rc = obs.tail_dashboard(path, interval=0.0, max_updates=3, stream=stream)
        assert rc == 0
        assert stream.getvalue().count("run:") == 3


class TestProgressMonitorEdges:
    """Satellite: heartbeat throttling and teardown boundary behavior."""

    def test_interval_ticks_exact_boundary(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=30, interval_seconds=None, interval_ticks=10, clock=clock
        )
        for _ in range(9):
            monitor.tick()
        assert monitor.heartbeats == 0  # 9 < 10: not yet due
        monitor.tick()
        assert monitor.heartbeats == 1  # exactly 10 since the last beat
        # one oversized tick crossing several boundaries beats once
        monitor.tick(25)
        assert monitor.heartbeats == 2

    def test_close_flushes_pending_ticks(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=100, interval_seconds=None, interval_ticks=50, clock=clock
        )
        monitor.start()
        monitor.tick(7)  # below the throttle: no heartbeat yet
        assert monitor.heartbeats == 0
        monitor.close(experiment="demo")
        # the final flush carried the un-heartbeaten progress out
        (beat,) = _events(log, "heartbeat")
        assert beat["done"] == 7
        (end,) = _events(log, "progress_end")
        assert end["done"] == 7
        assert end["experiment"] == "demo"

    def test_close_after_finish_is_a_no_op(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, total=2, clock=clock)
        monitor.start()
        monitor.tick(2)
        monitor.finish()
        events_before = len(log.events)
        assert monitor.close() is None
        assert monitor.close() is None  # idempotent
        assert len(log.events) == events_before

    def test_close_without_start_emits_nothing(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(log, total=5, clock=clock)
        assert monitor.close() is None
        assert log.events == []

    def test_context_manager_closes_on_exit(self, clock):
        log = EventLog()
        with ProgressMonitor(
            log, total=10, interval_seconds=None, interval_ticks=100, clock=clock
        ) as monitor:
            monitor.tick(3)
        assert len(_events(log, "progress_end")) == 1
        # an exception still flushes, and is not swallowed
        log2 = EventLog()
        with pytest.raises(RuntimeError):
            with ProgressMonitor(log2, total=10, clock=clock) as monitor:
                monitor.tick()
                raise RuntimeError("boom")
        assert len(_events(log2, "progress_end")) == 1

    def test_zero_progress_run_heartbeat_counts(self, clock):
        log = EventLog()
        monitor = ProgressMonitor(
            log, total=10, interval_seconds=None, interval_ticks=1, clock=clock
        )
        monitor.start()
        clock.advance(3.0)
        monitor.finish()  # run produced nothing, then shut down
        assert monitor.done == 0
        assert monitor.heartbeats == 1  # only finish()'s final beat
        (beat,) = _events(log, "heartbeat")
        assert beat["done"] == 0
        assert beat["pct"] == pytest.approx(0.0)
        assert beat["eta_s"] is None  # zero throughput: no ETA claim
        (end,) = _events(log, "progress_end")
        assert end["done"] == 0


class TestReadEventsLenient:
    def test_skips_and_counts_bad_lines(self, tmp_path):
        from repro.obs.monitor import read_events_lenient

        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"event": "run_start"}),
                    "not json at all",
                    json.dumps(["a", "list"]),
                    json.dumps({"no_event_key": 1}),
                    "",  # blank lines are not an error
                    json.dumps({"event": "heartbeat", "done": 3}),
                ]
            )
            + "\n"
        )
        events, skipped = read_events_lenient(path)
        assert [e["event"] for e in events] == ["run_start", "heartbeat"]
        assert skipped == 3

    def test_empty_file(self, tmp_path):
        from repro.obs.monitor import read_events_lenient

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_events_lenient(path) == ([], 0)


class TestDashboardDegradation:
    """Satellite: empty/malformed logs render a notice, never a crash."""

    def test_skipped_notice_rendered(self):
        text = render_dashboard([{"event": "run_start"}], skipped=4)
        assert text.startswith("(skipped 4 malformed log line(s))")

    def test_empty_event_list_renders(self):
        text = render_dashboard([])
        assert "(no progress events yet; 0 event(s) in log)" in text

    def test_non_dict_events_filtered(self):
        text = render_dashboard(["garbage", {"event": "run_start"}, None])
        assert "run:" in text

    def test_malformed_heartbeat_rows_tolerated(self):
        events = [
            {"event": "progress_start", "total": 10, "label": "steps"},
            {"event": "heartbeat"},  # no done/pct/rates at all
            {"event": "heartbeat", "rates": "not-a-dict", "recent": 7},
        ]
        text = render_dashboard(events)
        assert "progress: 0 ticks (total unknown)" in text
        assert "status: running" in text

    def test_tail_empty_log_exits_zero_with_notice(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        stream = io.StringIO()
        assert obs.tail_dashboard(path, once=True, stream=stream) == 0
        assert "(no progress events yet" in stream.getvalue()

    def test_tail_fully_malformed_log_exits_zero_and_counts(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("complete\ngarbage\n{{{\n")
        stream = io.StringIO()
        assert obs.tail_dashboard(path, once=True, stream=stream) == 0
        out = stream.getvalue()
        assert "(skipped 3 malformed log line(s))" in out
        assert "(no progress events yet" in out


class TestDashboardHistory:
    """Satellite: sparkline history columns over the heartbeat trail."""

    def _beating_run(self, n_beats=6):
        clock = FakeClock()
        log = EventLog()
        monitor = ProgressMonitor(
            log,
            total=100,
            label="steps",
            interval_seconds=None,
            interval_ticks=10**6,
            clock=clock,
        )
        monitor.start()
        for i in range(n_beats):
            clock.advance(1.0)
            monitor.tick(2 * (i + 1), widgets=i + 1)
            monitor.heartbeat()
        return log.events

    def test_history_rows_present(self):
        text = render_dashboard(self._beating_run())
        assert "history (6 heartbeats):" in text
        assert "steps_per_s" in text
        assert "widgets_per_s" in text
        # at least one sparkline character made it out
        assert any(c in text for c in "▁▂▃▄▅▆▇█")

    def test_history_off_switch(self):
        text = render_dashboard(self._beating_run(), history=False)
        assert "history (" not in text

    def test_single_heartbeat_skips_history(self):
        text = render_dashboard(self._beating_run(n_beats=1))
        assert "history (" not in text

    def test_malformed_beats_contribute_nothing(self):
        events = self._beating_run(n_beats=3)
        events.insert(3, {"event": "heartbeat", "recent": "corrupt"})
        text = render_dashboard(events)
        # 4 heartbeats seen, rows built from the 3 sane ones
        assert "history (4 heartbeats):" in text
        assert "steps_per_s" in text


class TestRendering:
    def test_sparkline_shapes(self):
        assert render_sparkline([]) == ""
        assert render_sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = render_sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(render_sparkline(list(range(100)), width=24)) == 24
        assert render_sparkline([float("nan"), 1.0, 2.0]) == render_sparkline(
            [1.0, 2.0]
        )
