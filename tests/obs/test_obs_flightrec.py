"""The crash flight recorder: rings, triggers, bundles, signals."""

import json
import os
import signal

import pytest

from repro import obs
from repro.obs import context as trace_ctx
from repro.obs import runtime
from repro.obs.flightrec import (
    EVENT_TAIL,
    POSTMORTEM_SCHEMA_VERSION,
    FlightRecorder,
    flight_recording,
    read_postmortem,
    render_postmortem,
    validate_postmortem_bundle,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestFlightRecorder:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, max_spans=0)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, min_dump_interval_s=-1.0)

    def test_rings_are_bounded(self, tmp_path):
        recorder = FlightRecorder(tmp_path, max_spans=3, max_events=2)
        for i in range(10):
            recorder.record_span({"name": f"s{i}"})
            recorder.record_event({"event": f"e{i}"})
        bundle = recorder.bundle(reason="test")
        assert [s["name"] for s in bundle["spans"]] == ["s7", "s8", "s9"]
        assert [e["event"] for e in bundle["events"]] == ["e8", "e9"]

    def test_trigger_event_dumps(self, tmp_path):
        recorder = FlightRecorder(tmp_path, clock=FakeClock())
        recorder.record_event({"event": "calibration_degraded"})  # not a trigger
        assert recorder.dumps == []
        recorder.record_event({"event": "breaker_open", "component": "thread"})
        (path,) = recorder.dumps
        assert "breaker_open" in path.name
        bundle = read_postmortem(path)
        assert bundle["reason"] == "breaker_open"
        assert bundle["info"]["trigger_event"]["component"] == "thread"

    def test_dump_throttle_counts_suppressed(self, tmp_path):
        clock = FakeClock()
        recorder = FlightRecorder(
            tmp_path, min_dump_interval_s=5.0, clock=clock
        )
        assert recorder.dump(reason="first") is not None
        assert recorder.dump(reason="storm") is None  # inside the window
        assert recorder.dump(reason="storm") is None
        assert recorder.n_suppressed == 2
        assert recorder.n_triggers == 3
        # force punches through the throttle (the fatal-signal path)
        assert recorder.dump(reason="fatal", force=True) is not None
        clock.advance(6.0)
        assert recorder.dump(reason="later") is not None
        assert [p.name[:14] for p in recorder.dumps] == [
            "POSTMORTEM_001",
            "POSTMORTEM_002",
            "POSTMORTEM_003",
        ]

    def test_reason_sanitized_in_filename(self, tmp_path):
        recorder = FlightRecorder(tmp_path, clock=FakeClock())
        path = recorder.dump(reason="weird/../reason !")
        assert path.parent == tmp_path
        assert "/" not in path.name.replace("POSTMORTEM", "")
        assert path.name == "POSTMORTEM_001_weird____reason__.json"

    def test_dump_writes_valid_json_round_trip(self, tmp_path):
        recorder = FlightRecorder(tmp_path, clock=FakeClock())
        recorder.record_event({"event": "x", "weird": object()})
        path = recorder.dump(reason="round_trip", extra="detail")
        bundle = read_postmortem(path)  # validates on read
        assert bundle["postmortem"] == POSTMORTEM_SCHEMA_VERSION
        assert bundle["info"]["extra"] == "detail"
        # non-serializable fields were repr'd, not dropped
        assert "object object" in bundle["events"][0]["weird"]


class TestRuntimeWiring:
    def test_flight_recording_installs_and_restores(self, tmp_path):
        assert runtime.flight_recorder is None
        with flight_recording(tmp_path) as recorder:
            assert runtime.flight_recorder is recorder
        assert runtime.flight_recorder is None

    def test_finished_spans_feed_the_ring(self, tmp_path):
        with obs.activate(), flight_recording(tmp_path) as recorder:
            with trace_ctx.use(trace_ctx.new_root(test="flightrec")):
                with runtime.span("outer"):
                    with runtime.span("inner"):
                        pass
        names = [s["name"] for s in recorder._spans]
        assert names == ["inner", "outer"]  # exit order
        assert all("trace_id" in s for s in recorder._spans)

    def test_untraced_spans_stay_out_of_the_ring(self, tmp_path):
        with obs.activate(), flight_recording(tmp_path) as recorder:
            with runtime.span("untraced"):
                pass
        assert len(recorder._spans) == 0

    def test_resilience_events_feed_the_ring(self, tmp_path):
        from repro.resilience import FaultPlan
        from repro.resilience import runtime as res

        with flight_recording(tmp_path) as recorder:
            with res.activate(FaultPlan(seed=0)):
                res.emit("fault_injected", site="somewhere")
        (event,) = recorder._events
        assert event["event"] == "fault_injected"
        assert event["site"] == "somewhere"
        # the active plan was captured into the bundle
        bundle = recorder.bundle(reason="t")
        assert bundle["fault_plan"] is None  # plan deactivated on exit

    def test_active_fault_plan_lands_in_bundle(self, tmp_path):
        from repro.resilience import FaultPlan
        from repro.resilience import runtime as res

        plan = FaultPlan(seed=7)
        plan.arm("core.calibration", "exception", max_fires=2)
        with flight_recording(tmp_path) as recorder:
            with res.activate(plan):
                bundle = recorder.bundle(reason="t")
        state = bundle["fault_plan"]
        assert state["seed"] == 7
        assert state["specs"]["core.calibration"]["mode"] == "exception"
        assert "core.calibration" in state["counts"]

    def test_event_log_opt_in_forwarding(self, tmp_path):
        from repro.obs.events import EventLog

        with flight_recording(tmp_path) as recorder:
            EventLog().emit("quiet")  # default: not forwarded
            EventLog(forward_to_recorder=True).emit("loud")
        assert [e["event"] for e in recorder._events] == ["loud"]


class TestSignalHandlers:
    def test_install_uninstall_restores_previous(self, tmp_path):
        fired = []

        def previous(signum, frame):
            fired.append(signum)

        old = signal.signal(signal.SIGUSR1, previous)
        try:
            recorder = FlightRecorder(tmp_path, clock=FakeClock())
            hooked = recorder.install_signal_handlers(signals=("SIGUSR1",))
            assert hooked == ["SIGUSR1"]
            os.kill(os.getpid(), signal.SIGUSR1)
            # the recorder dumped, then chained to the previous handler
            assert fired == [signal.SIGUSR1]
            (path,) = recorder.dumps
            assert "fatal_signal" in path.name
            bundle = read_postmortem(path)
            assert bundle["info"]["signal"] == int(signal.SIGUSR1)
            recorder.uninstall_signal_handlers()
            assert signal.getsignal(signal.SIGUSR1) is previous
        finally:
            signal.signal(signal.SIGUSR1, old)

    def test_unknown_signal_names_skipped(self, tmp_path):
        recorder = FlightRecorder(tmp_path)
        assert recorder.install_signal_handlers(signals=("SIGNOSUCH",)) == []


class TestBundleValidation:
    @staticmethod
    def _minimal():
        return {
            "postmortem": 2,
            "reason": "r",
            "info": {},
            "meta": {},
            "spans": [],
            "events": [],
            "fault_plan": None,
        }

    def test_minimal_bundle_valid(self):
        validate_postmortem_bundle(self._minimal())

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda b: b.update(postmortem=99), "schema version"),
            (lambda b: b.update(postmortem=1), "expected schema version 2, got 1"),
            (lambda b: b.update(reason=""), "reason"),
            (lambda b: b.update(meta=None), "meta"),
            (lambda b: b.update(spans={}), "spans"),
            (lambda b: b.update(events=[1]), r"events\[0\]"),
            (lambda b: b.update(fault_plan=[]), "fault_plan"),
        ],
    )
    def test_offending_path_named(self, mutate, message):
        bundle = self._minimal()
        mutate(bundle)
        with pytest.raises(ValueError, match=message):
            validate_postmortem_bundle(bundle)

    def test_read_postmortem_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_postmortem(path)
        path.write_text(json.dumps({"postmortem": 0}))
        with pytest.raises(ValueError, match="schema version"):
            read_postmortem(path)


class TestRenderPostmortem:
    def test_empty_bundle_renders_placeholders(self):
        text = render_postmortem(TestBundleValidation._minimal())
        assert "post-mortem: r" in text
        assert "trace tail: (no spans recorded)" in text
        assert "events: (none recorded)" in text
        assert "active fault plan: (none)" in text

    def test_full_bundle_renders_every_section(self, tmp_path):
        with obs.activate(), flight_recording(
            tmp_path, clock=FakeClock()
        ) as recorder:
            with trace_ctx.use(trace_ctx.new_root(test="render")):
                with runtime.span("serve.assess_many"):
                    pass
            recorder.record_event(
                {"event": "calibration_degraded", "site": "core.calibration"}
            )
            path = recorder.dump(reason="test_render")
        text = render_postmortem(read_postmortem(path))
        assert "trace tail: 1 span(s), 1 trace(s)" in text
        assert "serve.assess_many" in text
        assert "calibration_degraded  site=core.calibration" in text

    def test_tail_limits_event_count(self):
        bundle = TestBundleValidation._minimal()
        bundle["events"] = [{"event": f"e{i}"} for i in range(EVENT_TAIL + 10)]
        text = render_postmortem(bundle)
        lines = [line.strip() for line in text.splitlines()]
        start = lines.index(f"events (last {EVENT_TAIL} of {EVENT_TAIL + 10}):") + 1
        assert lines[start : start + EVENT_TAIL + 1] == [
            *(f"e{i}" for i in range(10, EVENT_TAIL + 10)),
            "",
        ]
