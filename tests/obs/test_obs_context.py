"""Trace-context unit tests: identity, serialization, propagation.

The contract: a :class:`TraceContext` survives every boundary crossing
byte-identically (headers round trip), derives children that stay in
the same trace, and rides the contextvar so spans opened anywhere under
``use()`` inherit the request identity.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import context as ctx_mod
from repro.obs import runtime
from repro.obs.context import (
    SpanLog,
    TraceContext,
    child_of,
    current,
    new_root,
    read_span_jsonl,
    span_to_dict,
    tracing_session,
    use,
    wall_clock_of,
)


class TestTraceContextIdentity:
    def test_new_root_shape(self):
        ctx = new_root()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        assert ctx.parent_span_id is None
        assert ctx.baggage == {}

    def test_new_root_baggage_stringified(self):
        ctx = new_root(op="assess", seed=7)
        assert ctx.baggage == {"op": "assess", "seed": "7"}

    def test_child_keeps_trace_and_baggage(self):
        root = new_root(tenant="a")
        child = child_of(root)
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id
        assert child.baggage == root.baggage

    def test_ids_are_validated(self):
        with pytest.raises(ValueError, match="trace_id"):
            TraceContext(trace_id="xyz", span_id="0" * 16)
        with pytest.raises(ValueError, match="span_id"):
            TraceContext(trace_id="0" * 32, span_id="nope")

    def test_roots_are_distinct(self):
        assert new_root().trace_id != new_root().trace_id


class TestSerialization:
    def test_traceparent_round_trip(self):
        ctx = new_root()
        header = ctx.to_traceparent()
        assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
        back = TraceContext.from_traceparent(header)
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "junk",
        ["", "garbage", "00-short-00", "zz-" + "0" * 32 + "-" + "0" * 16 + "-01"],
    )
    def test_malformed_traceparent_raises(self, junk):
        with pytest.raises(ValueError):
            TraceContext.from_traceparent(junk)

    def test_headers_round_trip_with_baggage(self):
        ctx = new_root(op="assess_many", batch="40")
        back = TraceContext.from_headers(ctx.to_headers())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id
        assert back.baggage == ctx.baggage

    def test_headers_are_json_and_pickle_safe(self):
        headers = new_root(k="v").to_headers()
        assert json.loads(json.dumps(headers)) == headers
        assert all(isinstance(v, str) for v in headers.values())

    def test_headers_without_traceparent_raise(self):
        with pytest.raises(ValueError, match="traceparent"):
            TraceContext.from_headers({"baggage": "a=b"})

    def test_malformed_baggage_member_raises(self):
        ctx = new_root()
        headers = {"traceparent": ctx.to_traceparent(), "baggage": "nokey"}
        with pytest.raises(ValueError, match="baggage"):
            TraceContext.from_headers(headers)

    def test_with_baggage_is_a_copy(self):
        ctx = new_root(a="1")
        more = ctx.with_baggage(b=2)
        assert ctx.baggage == {"a": "1"}
        assert more.baggage == {"a": "1", "b": "2"}
        assert more.trace_id == ctx.trace_id


class TestPropagation:
    def test_current_defaults_to_none(self):
        assert current() is None

    def test_use_attaches_and_restores(self):
        ctx = new_root()
        with use(ctx) as active:
            assert active is ctx
            assert current() is ctx
        assert current() is None

    def test_use_nests(self):
        outer, inner = new_root(), new_root()
        with use(outer):
            with use(inner):
                assert current() is inner
            assert current() is outer

    def test_live_span_derives_child_context(self):
        """Opening obs.span under a context steps the current() chain."""
        root = new_root()
        with obs.activate():
            with use(root):
                with obs.span("outer"):
                    stepped = current()
                    assert stepped is not None
                    assert stepped.trace_id == root.trace_id
                    assert stepped.parent_span_id == root.span_id
                assert current() is root

    def test_span_records_carry_trace_ids(self):
        root = new_root()
        with obs.activate() as session:
            with use(root):
                with obs.span("work"):
                    pass
        [record] = session.tracer.finished
        assert record.trace_id == root.trace_id
        assert record.trace_parent_id == root.span_id

    def test_spans_without_context_have_no_trace_id(self):
        with obs.activate() as session:
            with obs.span("plain"):
                pass
        [record] = session.tracer.finished
        assert record.trace_id is None


class TestExplicitSpan:
    """A live span opened under ``use(parent)``: the pattern a pool
    worker uses to re-attach a serialized request context."""

    def test_runs_under_child_of_given_ctx(self):
        parent = new_root()
        with obs.activate() as session, use(parent):
            with obs.span("shard", shard=3):
                span_ctx = current()
                assert span_ctx.trace_id == parent.trace_id
                assert span_ctx.parent_span_id == parent.span_id
            assert current() is parent
        [record] = session.tracer.finished
        assert record.trace_span_id == span_ctx.span_id
        assert record.trace_parent_id == parent.span_id

    def test_labels_stringified(self):
        with obs.activate() as session, use(new_root()):
            with obs.span("shard", shard=3):
                pass
        [record] = session.tracer.finished
        assert record.labels == {"shard": "3"}

    def test_add_event_records_offsets(self, tmp_path):
        sink_path = tmp_path / "spans.jsonl"
        with obs.activate(), tracing_session(sink_path), use(new_root()):
            with obs.span("shard"):
                obs.span_event("retry", attempt=1)
        [line] = read_span_jsonl(sink_path)
        [event] = line["events"]
        assert event["name"] == "retry"
        assert event["attempt"] == "1"
        assert event["offset_s"] >= 0.0


class TestSpanSink:
    def test_sink_skips_records_without_trace(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with obs.activate(), tracing_session(path):
            with obs.span("untraced"):
                pass
            with use(new_root()):
                with obs.span("traced"):
                    pass
        spans = read_span_jsonl(path)
        assert [s["name"] for s in spans] == ["traced"]

    def test_span_to_dict_shape(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        root = new_root()
        with obs.activate(), tracing_session(path):
            with use(root):
                with obs.span("outer", n=2):
                    with obs.span("inner"):
                        pass
        inner, outer = read_span_jsonl(path)  # children finish first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert inner["trace_id"] == outer["trace_id"] == root.trace_id
        assert inner["parent_span_id"] == outer["span_id"]
        assert outer["labels"] == {"n": "2"}
        assert inner["duration_s"] <= outer["duration_s"]
        assert isinstance(outer["pid"], int)

    def test_tracing_session_restores_previous_sink(self, tmp_path):
        assert runtime.span_sink is None
        with tracing_session(tmp_path / "a.jsonl") as outer_sink:
            assert runtime.span_sink is outer_sink
            with tracing_session(tmp_path / "b.jsonl"):
                assert runtime.span_sink is not outer_sink
            assert runtime.span_sink is outer_sink
        assert runtime.span_sink is None

    def test_tracing_session_none_disables(self, tmp_path):
        with tracing_session(tmp_path / "a.jsonl"):
            with tracing_session(None):
                assert runtime.span_sink is None

    def test_read_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_span_jsonl(path)
        path.write_text('{"no": "trace"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a span"):
            read_span_jsonl(path)

    def test_multiple_writers_append(self, tmp_path):
        """Two SpanLog handles on one file interleave whole lines."""
        path = tmp_path / "spans.jsonl"
        with obs.activate() as session, use(new_root()):
            with obs.span("one"):
                pass
            with obs.span("two"):
                pass
        record_a, record_b = session.tracer.finished
        with SpanLog(path) as a, SpanLog(path) as b:
            a.write(record_a)
            b.write(record_b)
        names = {s["name"] for s in read_span_jsonl(path)}
        assert names == {"one", "two"}


class TestWallAnchor:
    def test_wall_clock_of_is_affine(self):
        import time

        a = wall_clock_of(ctx_mod._ANCHOR_PERF)
        assert a == pytest.approx(ctx_mod._ANCHOR_WALL)
        assert wall_clock_of(ctx_mod._ANCHOR_PERF + 5.0) == pytest.approx(a + 5.0)
        # anchored positions land near the actual wall clock
        now = wall_clock_of(time.perf_counter())
        assert abs(now - time.time()) < 5.0
