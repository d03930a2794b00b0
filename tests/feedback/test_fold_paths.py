"""Differential: the per-event fold and the batch fold tell one story.

Folding a stream through ``record`` (one event at a time) and through
``record_batch`` (the vectorized bulk path, or its per-event fallback)
must leave the same ledger: the same decoded columns, the same live
histories (lazy and materialized alike), the same feedback graph and
the same last interactions.  Values are compared, not codes — the bulk
path interns a batch's new ids in sorted order, the per-event path in
arrival order.  The refusal paths (an out-of-order event, an armed
fault plan, the category limit) must refuse the same events for the
same reasons, and the fault plan must see one invocation per event, in
stream order, before any other check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feedback import binlog
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import CATEGORY_LIMIT, FeedbackBatch
from repro.resilience import FaultPlan, Quarantine
from repro.resilience import runtime as res

SERVERS = ("s0", "s1", "s2", "s3", "s4")
CATEGORIES = (None, None, "na", "eu", "asia")
SITE = "feedback.ledger.fold"

event = st.tuples(
    st.sampled_from(SERVERS),
    st.integers(min_value=0, max_value=2),  # time step (0 = a tie)
    st.integers(min_value=0, max_value=5),  # client
    st.booleans(),  # rating
    st.sampled_from(CATEGORIES),
    st.booleans(),  # authentic
)


def _stream(events, start=0.0):
    """In-order per server: each server's clock advances by the step."""
    clocks = dict.fromkeys(SERVERS, start)
    out = []
    for server, step, client, good, category, authentic in events:
        clocks[server] += step
        out.append(
            Feedback(
                time=clocks[server],
                server=server,
                client=f"c{client}",
                rating=Rating.POSITIVE if good else Rating.NEGATIVE,
                category=category,
                authentic=authentic,
            )
        )
    return out


def _rows(feedbacks):
    return [
        None
        if fb is None
        else (fb.time, fb.server, fb.client, fb.rating, fb.category, fb.authentic)
        for fb in feedbacks
    ]


def _state(led):
    """Everything a fold may change, as values (never codes)."""
    store = led.backend.store
    category = store.category_table.value
    servers, clients = sorted(led.servers()), sorted(led.clients())
    return {
        "columns": (
            store.times.tolist(),
            [store.server_table.value(c) for c in store.server_codes.tolist()],
            [store.client_table.value(c) for c in store.client_codes.tolist()],
            store.ratings.tolist(),
            [
                None if c == binlog.CATEGORY_NONE else category(c)
                for c in store.category_codes.tolist()
            ],
            store.authentic.tolist(),
        ),
        "histories": {
            s: (
                led.history(s).outcomes().tolist(),
                led.history(s).n_good,
                led.history(s).last_time(),
                _rows(led.history(s).feedbacks()),
            )
            for s in servers
        },
        "graph": list(led.feedback_graph().items()),
        "last": {
            (s, c): _rows([led.last_interaction(s, c)])
            for s in servers
            for c in clients
        },
    }


def _ledger(prefix, live, materialized, **options):
    """A ledger that folded ``prefix`` per event, with the histories of
    ``live`` handed out and those of ``materialized`` materialized."""
    led = FeedbackLedger(**options)
    led.record_many(prefix)
    for server in live & led.servers():
        history = led.history(server)
        if server in materialized:
            history.feedbacks()
    return led


def _fold(led, fold, stream, columns):
    """Fold ``stream`` through ``fold``; the count, or the error type."""
    try:
        if fold == "record":
            return sum(led.record(fb) for fb in stream)
        return led.record_batch(
            FeedbackBatch.from_feedbacks(stream) if columns else list(stream)
        )
    except (ValueError, res.InjectedFault) as exc:
        return type(exc).__name__


def _quarantined(quarantine):
    return [
        (_rows([item.item])[0], item.site, item.reason, item.index)
        for item in quarantine.items()
    ]


folds = dict(
    prefix=st.lists(event, max_size=12),
    rest=st.lists(event, min_size=1, max_size=30),
    live=st.sets(st.sampled_from(SERVERS)),
    materialized=st.sets(st.sampled_from(SERVERS)),
    columns=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(**folds)
def test_batch_fold_matches_per_event(prefix, rest, live, materialized, columns):
    prefix = _stream(prefix)
    rest = _stream(rest, start=100.0)
    per_event, bulk = (_ledger(prefix, live, materialized) for _ in range(2))
    assert _fold(per_event, "record", rest, columns) == len(rest)
    assert _fold(bulk, "record_batch", rest, columns) == len(rest)
    assert _state(bulk) == _state(per_event)


@settings(max_examples=40, deadline=None)
@given(quarantined=st.booleans(), at=st.integers(min_value=0, max_value=29), **folds)
def test_out_of_order_event_refused_alike(
    prefix, rest, live, materialized, columns, quarantined, at
):
    """A back-dated event: quarantined at the same place on both paths
    with a quarantine, raised after the same folds without one."""
    prefix = _stream(prefix)
    rest = _stream(rest, start=100.0)
    at = min(at, len(rest) - 1)
    late = rest[at]
    rest.insert(
        at + 1,
        Feedback(
            time=late.time - 0.5,
            server=late.server,
            client="c-late",
            rating=Rating.POSITIVE,
        ),
    )
    ledgers, results = [], []
    for fold in ("record", "record_batch"):
        opts = {"quarantine": Quarantine(name="ledger")} if quarantined else {}
        led = _ledger(prefix, live, materialized, **opts)
        results.append(_fold(led, fold, rest, columns))
        ledgers.append(led)
    per_event, bulk = ledgers
    if quarantined:
        assert results == [len(rest) - 1] * 2
        assert _quarantined(bulk.quarantine) == _quarantined(per_event.quarantine)
        (item,) = bulk.quarantine.items()
        assert item.item.client == "c-late"
    else:
        assert results == ["ValueError"] * 2
    assert _state(bulk) == _state(per_event)


@settings(max_examples=30, deadline=None)
@given(seed=st.sampled_from([0, 1337, 90210]), late=st.booleans(), **folds)
def test_armed_fault_plan_refused_alike(
    prefix, rest, live, materialized, columns, seed, late
):
    """Under an armed fold site both paths invoke it once per event in
    stream order, before the ordering check: the plan's counts and the
    quarantine records equal those of a replay of the plan alone."""
    prefix = _stream(prefix)
    rest = _stream(rest, start=100.0)
    if late:  # a back-dated event still takes its turn at the site first
        last = rest[-1]
        rest.append(
            Feedback(
                time=last.time - 0.5,
                server=last.server,
                client="c-late",
                rating=Rating.NEGATIVE,
            )
        )
    # the reference: the plan decides every event in order; a fired
    # fault refuses the event, else one before its server's last folded
    # time is refused
    reference = FaultPlan(seed=seed)
    reference.arm(SITE, "exception", probability=0.5)
    last = {fb.server: fb.time for fb in prefix}
    expected = []
    for fb in rest:
        spec = reference.decide(SITE)
        if spec is not None:
            index = reference.counts()[SITE]["invocations"] - 1
            reason = f"injected exception fault at {SITE} (invocation {index})"
        elif fb.time < last.get(fb.server, fb.time):
            reason = "feedback times must be non-decreasing"
        else:
            last[fb.server] = fb.time
            continue
        expected.append((fb.time, fb.client, reason))
    for fold in ("record", "record_batch"):
        quarantine = Quarantine(name="ledger")
        led = _ledger(prefix, live, materialized, quarantine=quarantine)
        plan = FaultPlan(seed=seed)
        plan.arm(SITE, "exception", probability=0.5)
        with res.activate(plan):
            folded = _fold(led, fold, rest, columns)
        assert plan.counts() == reference.counts()
        got = [
            (item.item.time, item.item.client, item.reason)
            for item in quarantine.items()
        ]
        assert got == expected
        assert folded == len(rest) - len(expected)
        assert [item.index for item in quarantine.items()] == list(range(len(got)))


@settings(max_examples=25, deadline=None)
@given(free=st.integers(min_value=0, max_value=2), quarantined=st.booleans(), **folds)
def test_category_limit_refused_alike(
    prefix, rest, live, materialized, columns, free, quarantined
):
    """With the category table ``free`` codes short of the limit, both
    paths fold and refuse the same events, and neither interns an id of
    a refused one."""
    prefix = _stream(prefix)
    rest = _stream(rest, start=100.0)
    ledgers, results = [], []
    for fold in ("record", "record_batch"):
        opts = {"quarantine": Quarantine(name="ledger")} if quarantined else {}
        led = _ledger(prefix, live, materialized, **opts)
        table = led.backend.store.category_table
        for i in range(CATEGORY_LIMIT - free - len(table)):
            table.intern(f"k{i}")
        results.append(_fold(led, fold, rest, columns))
        ledgers.append(led)
    per_event, bulk = ledgers
    assert results[0] == results[1]
    assert _state(bulk) == _state(per_event)
    for led in ledgers:
        store = led.backend.store
        assert len(store.category_table) <= CATEGORY_LIMIT
        assert set(store.server_table.values()) == led.servers()
        assert set(store.client_table.values()) == led.clients()
    if quarantined:
        assert _quarantined(bulk.quarantine) == _quarantined(per_event.quarantine)


@pytest.mark.parametrize("columns", [False, True], ids=["records", "columns"])
def test_reset_server_with_no_last_time_folds_again(columns):
    """A server reset to an empty stream keeps its code but has no last
    time; both paths fold its next event as a fresh start."""
    stream = _stream([("s1", 1, 0, True, None, True), ("s2", 1, 1, False, "na", True)])
    ledgers = []
    for fold in ("record", "record_batch"):
        led = FeedbackLedger()
        led.record_many(stream)
        led.reset_server("s1", [])
        again = [Feedback(time=0.5, server="s1", client="c9", rating=Rating.NEGATIVE)]
        assert _fold(led, fold, again, columns) == 1
        ledgers.append(led)
    assert _state(ledgers[0]) == _state(ledgers[1])
    assert np.array_equal(ledgers[0].history("s1").outcomes(), [0])
