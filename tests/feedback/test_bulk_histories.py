"""Bulk-built histories equal histories built one server at a time.

:meth:`FeedbackLedger.histories` builds every history not yet live in
one server-sorted pass; :meth:`FeedbackLedger.history` builds one from
the server's row list.  Two ledgers given the same drawn stream — with
quarantined events, ``reset_server`` drops, histories handed out before
the bulk build, and an mmap file reopened after a torn crash tail — hand
out histories that agree on outcomes, good counts, last times and the
lazily materialized feedbacks, and go on agreeing as later folds extend
both.  A serving engine attached to either gives the per-call verdicts,
and attaching to a freshly opened file builds no per-server row list.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.two_phase import Assessor
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import FeedbackBatch
from repro.resilience import Quarantine
from repro.serve import AssessmentService

SERVERS = [f"s{i}" for i in range(5)]

ASSESSOR = Assessor.from_config(
    AssessorConfig(
        trust_function="average",
        behavior_test="single",
        trust_threshold=0.7,
        test_config=BehaviorTestConfig(
            window_size=4, min_windows=2, calibration_sets=30
        ),
    )
)

#: (server index, time step — a -1 step goes back and is quarantined,
#: good, client index, category)
events = st.lists(
    st.tuples(
        st.integers(0, len(SERVERS) - 1),
        st.sampled_from([-1, 0, 1, 1, 2]),
        st.booleans(),
        st.integers(0, 3),
        st.sampled_from([None, None, "eu"]),
    ),
    min_size=30,
    max_size=150,
)


def _feedbacks(drawn, start=0.0):
    clock = dict.fromkeys(SERVERS, start)
    out = []
    for server, step, good, client, category in drawn:
        sid = SERVERS[server]
        clock[sid] += step
        out.append(
            Feedback(
                time=clock[sid],
                server=sid,
                client=f"c{client}",
                rating=Rating.POSITIVE if good else Rating.NEGATIVE,
                category=category,
            )
        )
    return out


def _rows(feedbacks):
    return [(fb.time, fb.server, fb.client, fb.rating, fb.category) for fb in feedbacks]


def _same(bulk, single):
    assert list(bulk) == list(single)
    for server, history in bulk.items():
        other = single[server]
        assert np.array_equal(history.outcomes(), other.outcomes())
        assert (len(history), history.n_good, history.last_time()) == (
            len(other),
            other.n_good,
            other.last_time(),
        )
    for server, history in bulk.items():
        assert _rows(history.feedbacks()) == _rows(single[server].feedbacks())


def _build(stream, resets, handed, led):
    led.record_many(stream)
    for server, keep in resets:
        led.reset_server(server, led.feedbacks_for_server(server)[:keep])
    for server in handed:
        if server in led:
            led.history(server)
    return led


def _check(bulk_led, single_led, later, batch):
    bulk = bulk_led.histories()
    single = {s: single_led.history(s) for s in sorted(single_led.servers())}
    _same(bulk, single)
    for led in (bulk_led, single_led):
        if batch:
            led.record_batch(FeedbackBatch.from_feedbacks(later))
        else:
            led.record_many(later)
    _same(bulk, {s: single_led.history(s) for s in bulk})
    service = AssessmentService(ASSESSOR, ledger=bulk_led)
    served = service.assess_many()
    assert served == {
        s: ASSESSOR.assess(bulk_led.history(s), ledger=bulk_led) for s in served
    }
    assert set(served) == bulk_led.servers()
    service.close()


resets = st.lists(
    st.tuples(st.sampled_from(SERVERS), st.integers(0, 6)), max_size=2
)
handed = st.lists(st.sampled_from(SERVERS), max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(events, resets, handed, events, st.booleans())
def test_bulk_histories_match_one_at_a_time(drawn, resets, handed, later, batch):
    stream = _feedbacks(drawn)
    ledgers = [
        _build(stream, resets, handed, FeedbackLedger(quarantine=Quarantine(name="q")))
        for _ in range(2)
    ]
    _check(*ledgers, _later(later, stream), batch)


def _later(drawn, stream):
    """Events after every one of ``stream``, none going back: a batch
    of them folds in one pass."""
    start = max((fb.time for fb in stream), default=0.0) + 1
    return _feedbacks([(i, max(step, 0), *rest) for i, step, *rest in drawn], start)


@settings(max_examples=40, deadline=None)
@given(events, st.integers(0, 23), handed, events, st.booleans())
def test_reopened_mmap_ledger_after_a_crash_tail(drawn, torn, handed, later, batch):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "led.bin")
        stream = _feedbacks(drawn)
        with FeedbackLedger(
            backend="mmap", path=path, quarantine=Quarantine(name="q")
        ) as led:
            led.record_many(stream)
        if torn and os.path.getsize(path) > 32:
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) - torn)
        copy = os.path.join(tmp, "copy.bin")
        for name in os.listdir(tmp):
            if name.startswith("led.bin"):
                shutil.copy(os.path.join(tmp, name), copy + name[len("led.bin") :])
        fresh = FeedbackLedger(backend="mmap", path=path)
        assert not fresh.store._rows_by_server
        service = AssessmentService(ASSESSOR, ledger=fresh)
        assert not fresh.store._rows_by_server
        service.close()
        single = _build([], [], handed, FeedbackLedger(backend="mmap", path=copy))
        try:
            _check(fresh, single, _later(later, stream), batch)
        finally:
            fresh.close()
            single.close()


def test_second_reset_of_an_emptied_server():
    """Resetting a server that an earlier reset emptied drops no row
    and leaves the live rows indexable."""
    stream = _feedbacks([(0, 1, True, 0, None)] * 30 + [(1, 1, False, 1, None)] * 5)
    ledgers = [
        _build(stream, [("s0", 0), ("s0", 0)], [], FeedbackLedger()) for _ in range(2)
    ]
    assert ledgers[0].store.n_dropped == 30
    assert ledgers[0].servers() == {"s1"}
    _check(*ledgers, _later([(1, 1, True, 2, None)] * 4, stream), False)
