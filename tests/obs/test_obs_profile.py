"""Phase-attributed profiler: a view over tracer records, sampling, exports."""

import json
import threading
import tracemalloc

import pytest

from repro import obs
from repro.obs import runtime
from repro.obs.profile import (
    UNTRACED,
    PhaseProfiler,
    profile_payload,
    validate_profile_payload,
)
from repro.obs.tracing import Tracer


def _profiled_tracer(**kwargs):
    """A profiler installed on a private tracer driven by a synthetic clock."""
    tracer = Tracer()
    prof = PhaseProfiler(**kwargs)
    prof.install(tracer)
    return prof, tracer


def _visit(tracer, name, start, end, inner=None):
    """Open and close one span on ``tracer`` at the given clock readings."""
    tracer.begin(name, {}, start)
    if inner is not None:
        inner()
    tracer.finish(end)


class TestPhaseAttribution:
    def test_nested_spans_build_semicolon_paths(self):
        prof, tracer = _profiled_tracer()
        tracer.begin("outer", {}, 0.0)
        tracer.begin("inner", {}, 1.0)
        tracer.finish(3.0)
        tracer.finish(10.0)
        assert {s.path for s in prof.phases()} == {"outer", "outer;inner"}

    def test_self_time_excludes_children(self):
        prof, tracer = _profiled_tracer()
        tracer.begin("outer", {}, 0.0)
        tracer.begin("inner", {}, 1.0)
        tracer.finish(3.0)
        tracer.finish(10.0)
        outer = prof.phase("outer")
        inner = prof.phase("outer;inner")
        assert outer.wall_s == pytest.approx(10.0)
        assert outer.self_s == pytest.approx(8.0)  # 10 - 2s child
        assert inner.wall_s == pytest.approx(2.0)
        assert inner.self_s == pytest.approx(2.0)

    def test_repeat_visits_accumulate_calls(self):
        prof, tracer = _profiled_tracer()
        for i in range(3):
            _visit(tracer, "phase", float(i), float(i) + 0.5)
        stat = prof.phase("phase")
        assert stat.calls == 3
        assert stat.wall_s == pytest.approx(1.5)

    def test_phases_sorted_by_cumulative_wall_time(self):
        prof, tracer = _profiled_tracer()
        _visit(tracer, "cheap", 0.0, 1.0)
        _visit(tracer, "expensive", 1.0, 9.0)
        assert [s.path for s in prof.phases()] == ["expensive", "cheap"]

    def test_span_closed_before_install_is_ignored(self):
        tracer = Tracer()
        _visit(tracer, "before", 0.0, 1.0)
        prof = PhaseProfiler()
        prof.install(tracer)
        _visit(tracer, "during", 1.0, 2.0)
        assert [s.path for s in prof.phases()] == ["during"]

    def test_span_closed_after_uninstall_is_ignored(self):
        prof, tracer = _profiled_tracer()
        _visit(tracer, "during", 0.0, 1.0)
        prof.uninstall()
        _visit(tracer, "after", 1.0, 2.0)
        assert [s.path for s in prof.phases()] == ["during"]


class TestSampling:
    """One sample at a time, taken by hand: what the sampler thread does."""

    def test_samples_attributed_to_open_phase(self):
        prof, tracer = _profiled_tracer()
        tracer.begin("work", {}, 0.0)
        for _ in range(3):
            prof._sample(threading.get_ident())
        tracer.finish(1.0)
        folded = prof.folded_samples
        assert folded, "sampling produced no stacks"
        assert all(key.startswith("work;") for key in folded)
        assert sum(folded.values()) == 3
        assert prof.phase("work").samples == 3

    def test_samples_outside_spans_fall_into_untraced(self):
        prof, _ = _profiled_tracer()
        prof._sample(threading.get_ident())
        assert any(key.startswith(UNTRACED) for key in prof.folded_samples)

    def test_previous_profile_hook_restored(self):
        """The profiler never touches the interpreter's profile hook."""
        import sys

        sentinel = lambda frame, event, arg: None
        sys.setprofile(sentinel)
        try:
            with obs.profile_session(sample_hz=500.0):
                assert sys.getprofile() is sentinel
            assert sys.getprofile() is sentinel
        finally:
            sys.setprofile(None)


class TestPeriodicSampling:
    """The out-of-band ``sample_hz`` mode (the fig9 runner default)."""

    def test_negative_hz_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfiler(sample_hz=-1.0)

    def test_periodic_samples_land_in_open_phase(self):
        import time

        with obs.profile_session(sample_hz=500.0) as prof:
            with runtime.span("work"):
                deadline = time.perf_counter() + 0.08
                while time.perf_counter() < deadline:
                    sum(range(50))
        folded = prof.folded_samples
        assert folded, "periodic sampler captured no stacks"
        assert any(key.startswith("work") for key in folded)
        assert prof.phase("work").samples > 0

    def test_sampler_thread_stopped_after_session(self):
        with obs.profile_session(sample_hz=500.0):
            names = {t.name for t in threading.enumerate()}
            assert "repro-obs-sampler" in names
        names = {t.name for t in threading.enumerate()}
        assert "repro-obs-sampler" not in names

    def test_payload_records_sample_hz(self):
        prof = PhaseProfiler(sample_hz=97.0)
        prof.install()
        prof.uninstall()
        payload = profile_payload("p", prof)
        assert payload["sample_hz"] == 97.0
        validate_profile_payload(payload)


class TestLifecycle:
    def test_double_install_rejected(self):
        prof = PhaseProfiler()
        prof.install()
        try:
            with pytest.raises(RuntimeError):
                prof.install()
        finally:
            prof.uninstall()

    def test_uninstall_without_install_is_noop(self):
        PhaseProfiler().uninstall()

    def test_profile_session_restores_runtime_profiler(self):
        """The session's scoped obs state is torn down on exit."""
        tracer = runtime.tracer
        with obs.profile_session() as prof:
            assert runtime.is_enabled()
            assert runtime.tracer is not tracer
            with runtime.span("phase"):
                pass
        assert not runtime.is_enabled()
        assert runtime.tracer is tracer
        assert prof.phase("phase") is not None

    def test_profile_session_rides_ambient_session(self):
        with runtime.activate() as ambient:
            with obs.profile_session() as prof:
                with runtime.span("phase"):
                    pass
            assert runtime.is_enabled()  # ambient session not torn down
            assert ambient.tracer.find("phase")  # the caller's tracer saw it
        assert prof.phase("phase") is not None

    def test_profile_session_restores_on_error(self):
        tracer = runtime.tracer
        with pytest.raises(RuntimeError, match="boom"):
            with obs.profile_session(sample_hz=500.0):
                raise RuntimeError("boom")
        assert runtime.tracer is tracer
        assert not runtime.is_enabled()
        names = {t.name for t in threading.enumerate()}
        assert "repro-obs-sampler" not in names


class TestDisabledPathCost:
    def test_disabled_spans_allocate_nothing(self):
        """With obs off the span fast path must not allocate."""
        assert not runtime.is_enabled()

        def burst(n):
            for _ in range(n):
                with runtime.span("hot.loop"):
                    pass

        burst(100)  # warm up caches outside the measurement window
        tracemalloc.start()
        try:
            burst(10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, f"disabled span path allocated {peak} bytes"

    def test_enabled_span_without_profiler_skips_hooks(self):
        """Spans never consult a profiler: the tracer record is all there is."""
        with runtime.activate() as session:
            with runtime.span("plain"):
                pass
        assert [r.name for r in session.tracer.finished] == ["plain"]


class TestFoldedRendering:
    def _profiled(self):
        prof, tracer = _profiled_tracer()
        tracer.begin("a", {}, 0.0)
        tracer.begin("b", {}, 1.0)
        tracer.finish(2.0)
        tracer.finish(3.0)
        return prof

    def test_wall_folded_lines(self):
        text = obs.render_folded(self._profiled())
        lines = text.strip().splitlines()
        assert lines == ["a 2000000", "a;b 1000000"]

    def test_samples_folded_empty_without_sampling(self):
        assert obs.render_folded(self._profiled(), source="samples") == ""

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            obs.render_folded(self._profiled(), source="flame")


class TestArtifacts:
    def _profiled(self):
        prof, tracer = _profiled_tracer()
        _visit(tracer, "phase", 0.0, 1.0)
        return prof

    def test_payload_round_trip(self, tmp_path):
        path = tmp_path / "PROFILE_x.json"
        written = obs.write_profile_json(
            path, "x", self._profiled(), meta={"seed": 1}
        )
        loaded = obs.read_profile_json(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["profile"] == "x"
        assert loaded["schema_version"] == obs.PROFILE_SCHEMA_VERSION
        assert loaded["meta"]["seed"] == 1
        assert loaded["phases"][0]["path"] == "phase"

    def test_folded_path_and_write_folded(self, tmp_path):
        path = tmp_path / "PROFILE_x.json"
        folded = obs.folded_path_for(path)
        assert folded == tmp_path / "PROFILE_x.folded"
        obs.write_folded(folded, self._profiled())
        assert folded.read_text().startswith("phase ")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("profile"),
            lambda p: p.update(profile=""),
            lambda p: p.update(schema_version=99),
            lambda p: p.update(meta=[]),
            lambda p: p.update(phases={}),
            lambda p: p["phases"].append({"path": "x"}),
            lambda p: p["phases"].append(
                {
                    "path": "",
                    "calls": 1,
                    "wall_s": 0.0,
                    "self_s": 0.0,
                    "samples": 0,
                }
            ),
            lambda p: p["phases"][0].update(calls=True),
            lambda p: p.update(folded_samples=[]),
        ],
    )
    def test_validate_rejects_malformed(self, mutate):
        payload = obs.profile_payload("x", self._profiled())
        mutate(payload)
        with pytest.raises(ValueError):
            obs.validate_profile_payload(payload)

    def test_validate_accepts_good_payload(self):
        obs.validate_profile_payload(obs.profile_payload("x", self._profiled()))
