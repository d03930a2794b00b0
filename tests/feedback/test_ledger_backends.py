"""Backend conformance: every ledger backend honors the same contract.

``backend="columnar"`` and ``"mmap"`` are interchangeable: identical
query results, identical live-history semantics, identical fold-fault
behavior at the ``feedback.ledger.fold`` site.  ``"memory"`` is another
name for the columnar backend and runs the same class, so the name
existing callers build keeps the whole contract.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest

from repro.feedback import binlog
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.store import CATEGORY_LIMIT, FeedbackBatch
from repro.feedback.records import Feedback, Rating
from repro.resilience import FaultPlan, Quarantine
from repro.resilience import runtime as res

BACKENDS = ("memory", "columnar", "mmap")
#: the backend each name builds
NAMES = {"memory": "columnar", "columnar": "columnar", "mmap": "mmap"}


def _fb(t, server="s1", client="c1", rating=Rating.POSITIVE, category=None):
    return Feedback(
        time=float(t), server=server, client=client, rating=rating, category=category
    )


def _rows(feedbacks):
    """Comparable field tuples (``Feedback`` equality looks at time only)."""
    return [
        None if fb is None else (fb.time, fb.server, fb.client, fb.rating, fb.category)
        for fb in feedbacks
    ]


@pytest.fixture(params=BACKENDS)
def make_ledger(request, tmp_path):
    """Factory producing a fresh ledger of the parametrized backend."""
    counter = {"n": 0}

    def factory(**kwargs):
        if request.param == "mmap":
            counter["n"] += 1
            kwargs.setdefault("path", str(tmp_path / f"led{counter['n']}.bin"))
        return FeedbackLedger(backend=request.param, **kwargs)

    factory.backend = request.param
    return factory


STREAM = [
    _fb(1, "s1", "c1"),
    _fb(2, "s1", "c2", Rating.NEGATIVE),
    _fb(3, "s2", "c1"),
    _fb(4, "s1", "c1"),
    _fb(5, "s2", "c3", Rating.NEGATIVE, category="na"),
    _fb(6, "s3", "c1"),
]


@pytest.fixture()
def ledger(make_ledger):
    led = make_ledger()
    led.record_many(STREAM)
    return led


class TestConformance:
    def test_backend_name(self, ledger, make_ledger):
        assert ledger.backend_name == NAMES[make_ledger.backend]

    def test_len_servers_clients(self, ledger):
        assert len(ledger) == len(STREAM)
        assert ledger.servers() == {"s1", "s2", "s3"}
        assert ledger.clients() == {"c1", "c2", "c3"}

    def test_feedbacks_for_server(self, ledger):
        assert [f.time for f in ledger.feedbacks_for_server("s1")] == [1.0, 2.0, 4.0]
        assert ledger.feedbacks_for_server("nope") == []

    def test_feedbacks_by_client(self, ledger):
        assert [f.server for f in ledger.feedbacks_by_client("c1")] == [
            "s1",
            "s2",
            "s1",
            "s3",
        ]

    def test_feedback_metadata_round_trip(self, ledger):
        (fb,) = [f for f in ledger.feedbacks_for_server("s2") if f.time == 5.0]
        assert fb.client == "c3"
        assert fb.rating is Rating.NEGATIVE
        assert fb.category == "na"
        assert fb.authentic is True

    def test_history_outcomes_and_metadata(self, ledger):
        history = ledger.history("s1")
        assert np.array_equal(history.outcomes(), [1, 0, 1])
        assert history.has_feedback_metadata
        assert [f.client for f in history.feedbacks()] == ["c1", "c2", "c1"]
        assert history.last_time() == 4.0

    def test_history_is_live(self, ledger):
        history = ledger.history("s1")
        ledger.record(_fb(9, "s1", "c9"))
        assert len(history) == 4
        assert history.last_time() == 9.0
        assert history.feedbacks()[-1].client == "c9"

    def test_history_unknown_server_raises(self, ledger):
        with pytest.raises(KeyError):
            ledger.history("nope")

    def test_per_server_time_order_enforced(self, ledger):
        with pytest.raises(ValueError):
            ledger.record(_fb(0, "s1"))
        # other servers may interleave freely (s2 last saw t=5)
        assert ledger.record(_fb(5.5, "s2"))

    def test_last_interaction(self, ledger):
        last = ledger.last_interaction("s1", "c1")
        assert last is not None and last.time == 4.0
        assert ledger.last_interaction("s1", "c3") is None
        assert ledger.last_interaction("nope", "c1") is None

    def test_last_interaction_tracks_new_folds(self, ledger):
        ledger.record(_fb(9, "s1", "c1"))
        assert ledger.last_interaction("s1", "c1").time == 9.0

    def test_interaction_counts(self, ledger):
        assert ledger.interaction_counts("s1") == {"c1": 2, "c2": 1}
        assert ledger.interaction_counts("nope") == {}

    def test_feedback_graph(self, ledger):
        graph = ledger.feedback_graph()
        assert graph[("c1", "s1")] == (2, 0)
        assert graph[("c2", "s1")] == (0, 1)
        assert graph[("c3", "s2")] == (0, 1)

    def test_subscribe_sees_every_fold(self, make_ledger):
        led = make_ledger()
        seen = []
        led.subscribe(lambda fb: seen.append(fb.time))
        led.record_many(STREAM)
        assert seen == [f.time for f in STREAM]

    def test_record_batch_matches_per_event(self, make_ledger):
        batch = FeedbackBatch.from_feedbacks(STREAM)
        bulk = make_ledger()
        bulk.record_batch(batch)
        per_event = make_ledger()
        per_event.record_many(STREAM)
        assert bulk.feedback_graph() == per_event.feedback_graph()
        for server in per_event.servers():
            assert np.array_equal(
                bulk.history(server).outcomes(),
                per_event.history(server).outcomes(),
            )
            assert bulk.feedbacks_for_server(server) == per_event.feedbacks_for_server(
                server
            )

    def test_column_batch_extends_live_histories_on_the_bulk_path(
        self, make_ledger, monkeypatch
    ):
        """Histories handed out before a column ``record_batch`` do not
        send it down the per-event path, and end equal to a per-event
        fold — lazy and materialized histories alike."""
        later = [
            _fb(7, "s1", "c2", Rating.NEGATIVE),
            _fb(7, "s2", "c4", category="eu"),
            _fb(8, "s4", "c1"),
            _fb(9, "s1", "c1"),
        ]
        bulk, per_event = make_ledger(), make_ledger()
        for led in (bulk, per_event):
            led.record_many(STREAM)
        live = {s: bulk.history(s) for s in ("s1", "s2", "s3")}
        live["s2"].feedbacks()  # materialized; s1 and s3 stay lazy

        def per_event_fold(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("record_batch fell back to per-event folds")

        monkeypatch.setattr(bulk, "_fold", per_event_fold)
        assert bulk.record_batch(FeedbackBatch.from_feedbacks(later)) == len(later)
        per_event.record_many(later)
        for server in ("s1", "s2", "s3", "s4"):
            got, want = bulk.history(server), per_event.history(server)
            if server in live:
                assert got is live[server]
            assert np.array_equal(got.outcomes(), want.outcomes())
            assert (len(got), got.n_good, got.last_time()) == (
                len(want),
                want.n_good,
                want.last_time(),
            )
            assert _rows(got.feedbacks()) == _rows(want.feedbacks())

    def test_record_batch_keeps_each_servers_last_time(self, make_ledger):
        """Interleaved servers out of global time order: after the bulk
        fold (and after reopening an mmap file) each server rejects an
        event just before its own last time and accepts one at it."""
        stream = [
            _fb(5, "s2", "c1"),
            _fb(1, "s1", "c2"),
            _fb(7, "s3", "c1"),
            _fb(2, "s1", "c1"),
            _fb(6, "s2", "c3"),
            _fb(3, "s1", "c3"),
        ]
        led = make_ledger()
        assert led.record_batch(FeedbackBatch.from_feedbacks(stream)) == len(stream)
        if make_ledger.backend == "mmap":
            led.close()
            led = make_ledger(path=led.path)
        for server, last in (("s1", 3.0), ("s2", 6.0), ("s3", 7.0)):
            with pytest.raises(ValueError, match="non-decreasing"):
                led.record(_fb(last - 0.5, server, "c9"))
            assert led.record(_fb(last, server, "c9"))

    def test_record_batch_of_records_matches_per_event(self, make_ledger):
        """A list of records folds as ``record_many`` would: same
        indexes, same order, every event shown to subscribers."""
        bulk, per_event = make_ledger(), make_ledger()
        seen_bulk, seen = [], []
        bulk.subscribe(seen_bulk.append)
        per_event.subscribe(seen.append)
        assert bulk.record_batch(list(STREAM)) == len(STREAM)
        per_event.record_many(STREAM)
        assert [id(fb) for fb in seen_bulk] == [id(fb) for fb in seen]
        assert _rows(seen) == _rows(STREAM)
        assert list(bulk.feedback_graph().items()) == list(
            per_event.feedback_graph().items()
        )
        for client in per_event.clients():
            assert _rows(bulk.feedbacks_by_client(client)) == _rows(
                per_event.feedbacks_by_client(client)
            )
        for server in per_event.servers():
            assert _rows(bulk.feedbacks_for_server(server)) == _rows(
                per_event.feedbacks_for_server(server)
            )
            for client in per_event.clients():
                assert _rows([bulk.last_interaction(server, client)]) == _rows(
                    [per_event.last_interaction(server, client)]
                )

    def test_record_batch_out_of_order_folds_like_per_event(self, make_ledger):
        """A back-dated record sends the batch down the per-event path:
        quarantined with a quarantine, raised at the same record without."""
        stream = STREAM + [_fb(2, "s1", "c9"), _fb(7, "s2", "c1")]
        quarantined = []
        for fold in ("record_batch", "record_many"):
            quarantine = Quarantine(name="ledger")
            led = make_ledger(quarantine=quarantine)
            assert getattr(led, fold)(list(stream)) == len(stream) - 1
            quarantined.append([item.item.time for item in quarantine.items()])
        assert quarantined[0] == quarantined[1] == [2.0]
        lengths = []
        for fold in ("record_batch", "record_many"):
            led = make_ledger()
            with pytest.raises(ValueError, match="non-decreasing"):
                getattr(led, fold)(list(stream))
            lengths.append(len(led))
        assert lengths[0] == lengths[1] == len(STREAM)

    def test_declined_batch_interns_no_phantom_ids(self, make_ledger):
        """A batch the bulk path declines interns nothing of its own: the
        per-event fold raises at the back-dated record, before ``s-z``."""
        batch = FeedbackBatch(
            times=[1.0, 0.5, 1.0],
            servers=["s-b", "s-b", "s-z"],
            clients=["c1", "c2", "c3"],
            ratings=[1, 1, 0],
        )
        led = make_ledger()
        with pytest.raises(ValueError, match="non-decreasing"):
            led.record_batch(batch)
        assert led.servers() == {"s-b"}
        led.record(_fb(2, "s-b", "c1"))  # the next write syncs the sidecars
        tables = led.store
        assert tables.server_table.values() == ["s-b"]
        assert tables.client_table.values() == ["c1"]
        if make_ledger.backend == "mmap":
            led.close()
            on_disk = binlog.load_binary_ledger(led.path)
            assert on_disk.servers == ["s-b"] and on_disk.clients == ["c1"]

    def test_quarantine_captures_out_of_order(self, make_ledger):
        quarantine = Quarantine(name="ledger")
        led = make_ledger(quarantine=quarantine)
        assert led.record(_fb(10))
        assert not led.record(_fb(5))
        assert led.record(_fb(11))
        assert len(led) == 2
        (item,) = quarantine.items()
        assert item.site == "feedback.ledger.fold"
        assert item.item.time == 5.0

    @pytest.mark.parametrize("chaos_seed", [0, 1337, 90210])
    def test_injected_fold_fault_fires_identically(self, make_ledger, chaos_seed):
        """The ``feedback.ledger.fold`` site fires on every backend with
        the same plan-driven decisions — same events folded, same
        quarantine depth."""
        quarantine = Quarantine(name="ledger")
        led = make_ledger(quarantine=quarantine)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("feedback.ledger.fold", "exception", probability=0.5)
        with res.activate(plan):
            folded = led.record_many(STREAM)
        assert folded + quarantine.depth == len(STREAM)
        assert len(led) == folded
        # the surviving folds are still fully queryable
        for server in led.servers():
            assert len(led.history(server)) > 0


MERGED_S1 = [
    _fb(0.5, "s1", "c3"),
    _fb(2, "s1", "c1", Rating.NEGATIVE),
    _fb(2, "s1", "c2"),
    _fb(8, "s1", "c4", category="eu"),
]


def _state(led):
    """Everything a reset may change, comparable across backends."""
    servers, clients = sorted(led.servers()), sorted(led.clients())
    return {
        "len": len(led),
        "servers": servers,
        "clients": clients,
        "histories": {
            s: (
                led.history(s).outcomes().tolist(),
                led.history(s).last_time(),
                _rows(led.history(s).feedbacks()),
            )
            for s in servers
        },
        "for_server": {s: _rows(led.feedbacks_for_server(s)) for s in servers},
        "by_client": {c: _rows(led.feedbacks_by_client(c)) for c in clients},
        "last": {
            (s, c): _rows([led.last_interaction(s, c)])
            for s in servers
            for c in clients
        },
        "graph": list(led.feedback_graph().items()),
    }


class _Replay:
    """The ledger queries a stream of folded events answers, computed
    from the stream alone: a history per server fed by
    ``append_feedback`` and a ``Counter`` for the graph."""

    def __init__(self, events):
        self.events = list(events)

    def __len__(self):
        return len(self.events)

    def servers(self):
        return {fb.server for fb in self.events}

    def clients(self):
        return {fb.client for fb in self.events}

    def feedbacks_for_server(self, server):
        return [fb for fb in self.events if fb.server == server]

    def feedbacks_by_client(self, client):
        return [fb for fb in self.events if fb.client == client]

    def history(self, server):
        history = TransactionHistory(server)
        for fb in self.feedbacks_for_server(server):
            history.append_feedback(fb)
        return history

    def last_interaction(self, server, client):
        pair = [fb for fb in self.feedbacks_for_server(server) if fb.client == client]
        return pair[-1] if pair else None

    def feedback_graph(self):
        counts = Counter((fb.client, fb.server, fb.rating) for fb in self.events)
        return {
            (c, s): (counts[c, s, Rating.POSITIVE], counts[c, s, Rating.NEGATIVE])
            for c, s in dict.fromkeys((fb.client, fb.server) for fb in self.events)
        }


class TestResetServer:
    """``reset_server`` (tombstoned rows plus an append) leaves every
    query as a ledger that only ever saw the other servers' events, then
    the reconciled stream, would answer."""

    @pytest.mark.parametrize("stream", [MERGED_S1, []], ids=["merged", "empty"])
    def test_reset_matches_a_rebuild(self, stream):
        led = FeedbackLedger()
        led.record_many(STREAM)
        held = led.history("s1")  # a history handed out before the reset
        assert led.reset_server("s1", stream) == len(stream)
        later = [_fb(10, "s2", "c9")] + ([_fb(9, "s1", "c9")] if stream else [])
        led.record_many(later)
        rebuilt = [fb for fb in STREAM if fb.server != "s1"] + stream + later
        assert _state(led) == _state(_Replay(rebuilt))
        if not stream:
            assert "s1" not in led.servers()
            with pytest.raises(KeyError):
                led.history("s1")
        else:
            assert led.history("s1") is not held

    @pytest.mark.parametrize("quarantined", [False, True])
    @pytest.mark.parametrize(
        "stream, match",
        [
            ([_fb(2, "s1", "c1"), _fb(1, "s1", "c2")], "non-decreasing"),
            ([_fb(1, "s1", "c1"), _fb(2, "s2", "c2")], "got feedback for 's2'"),
            ([_fb(1, "s1", "c1", category="over")], "category table full"),
        ],
        ids=["back-dated", "foreign", "category"],
    )
    def test_refused_reset_changes_nothing(self, stream, match, quarantined):
        """A stream the reset refuses raises before the old rows go —
        with a quarantine too, since a reset is a repair, not ingest —
        and leaves the server's rows, history, last time and indexes as
        they were."""
        quarantine = Quarantine(name="ledger") if quarantined else None
        led = FeedbackLedger(quarantine=quarantine)
        led.record_many(STREAM)
        table = led.store.category_table
        for i in range(CATEGORY_LIMIT - len(table)):
            table.intern(f"k{i}")
        held = led.history("s1")
        before = _state(led)
        with pytest.raises(ValueError, match=match):
            led.reset_server("s1", stream)
        assert _state(led) == before
        assert led.history("s1") is held
        assert quarantine is None or quarantine.depth == 0
        assert led.store._last_time[led.store.server_table.lookup("s1")] == 4.0
        assert led.record(_fb(4, "s1", "c9"))
        assert (len(held), held.last_time()) == (4, 4.0)

    @pytest.mark.parametrize("quarantined", [False, True])
    def test_faulted_reset_changes_nothing(self, quarantined):
        """An armed fold site fires once per event, in order, before the
        old rows go: its fault raises, quarantine or not, and leaves the
        server's rows, history, last time and indexes as they were."""
        quarantine = Quarantine(name="ledger") if quarantined else None
        led = FeedbackLedger(quarantine=quarantine)
        led.record_many(STREAM)
        held = led.history("s1")
        before = _state(led)
        plan = FaultPlan(seed=0)
        plan.arm("feedback.ledger.fold", "exception", after=2)
        with res.activate(plan):
            with pytest.raises(res.InjectedFault):
                led.reset_server("s1", MERGED_S1)
        assert plan.counts()["feedback.ledger.fold"] == {"invocations": 3, "fires": 1}
        assert _state(led) == before
        assert led.history("s1") is held
        assert quarantine is None or quarantine.depth == 0
        assert led.store._last_time[led.store.server_table.lookup("s1")] == 4.0

    def test_armed_reset_fires_once_per_event(self):
        """A fault-free reset under an armed plan installs the whole
        stream, and the install fires the site no second time."""
        led, rebuilt = FeedbackLedger(), FeedbackLedger()
        led.record_many(STREAM)
        rebuilt.record_many([fb for fb in STREAM if fb.server != "s1"] + MERGED_S1)
        plan = FaultPlan(seed=0)
        plan.arm("feedback.ledger.fold", "exception", after=100)
        with res.activate(plan):
            assert led.reset_server("s1", MERGED_S1) == len(MERGED_S1)
        assert plan.counts()["feedback.ledger.fold"]["invocations"] == len(MERGED_S1)
        assert _state(led) == _state(rebuilt)

    def test_mmap_cannot_reset(self, tmp_path):
        led = FeedbackLedger(backend="mmap", path=str(tmp_path / "led.bin"))
        led.record_many(STREAM)
        with pytest.raises(NotImplementedError, match="mmap"):
            led.reset_server("s1", MERGED_S1)


class TestRegistry:
    def test_memory_names_the_columnar_backend(self):
        for ledger in (FeedbackLedger(), FeedbackLedger(backend="memory")):
            assert ledger.backend_name == "columnar"
            assert ledger.path is None

    def test_available_backends(self):
        # the error for an unknown name lists exactly the fixed table
        with pytest.raises(ValueError, match="known: columnar, memory, mmap$"):
            FeedbackLedger(backend="nope")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger backend"):
            FeedbackLedger(backend="nope")

    @pytest.mark.parametrize("backend", ["columnar", "memory"])
    def test_path_needs_the_mmap_backend(self, backend, tmp_path):
        path = tmp_path / "led.bin"
        with pytest.raises(ValueError, match="path= needs backend='mmap'"):
            FeedbackLedger(backend=backend, path=str(path))
        assert not path.exists()

    def test_mmap_requires_a_path(self):
        with pytest.raises(ValueError, match="requires path="):
            FeedbackLedger(backend="mmap")

    def test_mmap_names_its_file(self, tmp_path):
        path = str(tmp_path / "led.bin")
        with FeedbackLedger(backend="mmap", path=path) as ledger:
            assert (ledger.backend_name, ledger.path) == ("mmap", path)


class TestLastInteractionIndex:
    """Regression: ``last_interaction`` must be an index lookup, not a scan.

    The old implementation walked every feedback of the server per call
    (O(n)); the maintained ``(server, client) -> last feedback`` index
    answers without touching the per-server feedback list.
    """

    def test_no_scan_through_feedbacks(self, make_ledger, monkeypatch):
        led = make_ledger()
        led.record_many(STREAM)

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("last_interaction fell back to a scan")

        monkeypatch.setattr(led, "feedbacks_for_server", _boom)
        monkeypatch.setattr(led, "feedbacks_by_client", _boom)
        last = led.last_interaction("s1", "c1")
        assert last is not None and last.time == 4.0

    def test_index_correct_under_interleaving(self, make_ledger):
        led = make_ledger()
        rng = np.random.default_rng(5)
        latest = {}
        t = 0.0
        for _ in range(300):
            t += 1.0
            server = f"s{rng.integers(0, 7)}"
            client = f"c{rng.integers(0, 5)}"
            fb = _fb(t, server, client)
            led.record(fb)
            latest[(server, client)] = fb.time
        for (server, client), expected in latest.items():
            assert led.last_interaction(server, client).time == expected


@pytest.mark.parametrize("backend", ["columnar", "mmap"])
def test_fold_keeps_no_per_event_gc_objects(backend, tmp_path):
    """Folding N events over fresh (server, client) pairs allocates
    garbage-collected objects per server and per client, not per event:
    each surviving object brings full collections closer."""
    import gc

    n_servers, n_clients = 20, 100
    stream = [
        _fb(t, f"s{t % n_servers}", f"c{t // n_servers}")
        for t in range(n_servers * n_clients)
    ]
    for fold in ("record_many", "record_batch"):
        options = {"path": str(tmp_path / f"{fold}.bin")} if backend == "mmap" else {}
        led = FeedbackLedger(backend=backend, **options)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            getattr(led, fold)(stream)
            allocated = gc.get_count()[0] - before
        finally:
            gc.enable()
        assert len(led.feedback_graph()) == len(stream)  # every pair is new
        assert allocated <= 4 * (n_servers + n_clients), fold


def test_known_server_fold_makes_three_python_calls():
    """A fold for a known server, with a serving engine attached, runs
    ``record``, the fold body ``_fold`` and the engine's server hook —
    no helper on the way (the hot path of every per-event ingest)."""
    import sys

    from repro.core.config import AssessorConfig
    from repro.serve import AssessmentService

    led = FeedbackLedger(backend="columnar")
    led.record_many(STREAM)
    AssessmentService(config=AssessorConfig(), ledger=led, executor="serial")
    assert "s1" in led._histories  # the fold writes a live history
    feedback = _fb(10, "s1", "c1")
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        assert led.record(feedback)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 3, calls
    assert led.history("s1").outcomes()[-1] == 1


def test_known_server_fold_makes_two_python_calls():
    """A fold for a server the ledger holds, with a serving engine
    attached, runs ``record`` and the fold body ``_fold`` only: the
    engine hears of a server at its first live row, not on every fold."""
    import sys

    from repro.core.config import AssessorConfig
    from repro.serve import AssessmentService

    led = FeedbackLedger(backend="columnar")
    led.record_many(STREAM)
    AssessmentService(config=AssessorConfig(), ledger=led, executor="serial")
    led.record(_fb(9, "s1", "c2"))  # grows the bulk-built outcome buffer
    feedback = _fb(10, "s1", "c1")
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        assert led.record(feedback)
    finally:
        sys.setprofile(None)
    assert calls == ["record", "_fold"], calls
    assert led.history("s1").outcomes()[-1] == 1


class TestCategoryLimit:
    """Category codes are ``uint16`` with ``CATEGORY_NONE`` for none, so
    a store holds at most ``CATEGORY_LIMIT`` distinct categories; the
    next new one is refused before any of its ids is interned, on both
    fold paths."""

    @staticmethod
    def _nearly_full(led, free=1):
        table = led.store.category_table
        for i in range(CATEGORY_LIMIT - free):
            table.intern(f"k{i}")

    def _stream(self):
        return [
            _fb(1, "s1", "c1", category="k0"),
            _fb(2, "s1", "c2", category="last"),
            _fb(3, "s-new", "c-new", category="over"),
            _fb(4, "s1", "c1", category="k1"),
        ]

    @pytest.mark.parametrize("fold", ["record_many", "record_batch"])
    def test_new_category_past_the_limit_raises(self, fold):
        led = FeedbackLedger()
        self._nearly_full(led)
        with pytest.raises(ValueError, match="category table full"):
            getattr(led, fold)(self._stream())
        store = led.store
        assert len(led) == 2
        assert led.feedbacks_for_server("s1")[-1].category == "last"
        assert int(store.category_codes[-1]) == CATEGORY_LIMIT - 1
        assert len(store.category_table) == CATEGORY_LIMIT
        assert "s-new" not in store.server_table
        assert "c-new" not in store.client_table

    @pytest.mark.parametrize(
        "fold, columns",
        [("record_many", False), ("record_batch", False), ("record_batch", True)],
    )
    def test_quarantined_with_a_quarantine(self, fold, columns):
        quarantine = Quarantine(name="ledger")
        led = FeedbackLedger(quarantine=quarantine)
        self._nearly_full(led)
        stream = self._stream()
        if columns:
            stream = FeedbackBatch.from_feedbacks(stream)
        assert getattr(led, fold)(stream) == 3
        (item,) = quarantine.items()
        assert (item.item.time, item.site) == (3.0, "feedback.ledger.fold")
        assert "category table full" in item.reason
        assert [fb.category for fb in led.feedbacks_for_server("s1")] == [
            "k0",
            "last",
            "k1",
        ]
        assert "s-new" not in led.store.server_table

    def test_mmap_refuses_too(self, tmp_path):
        led = FeedbackLedger(backend="mmap", path=str(tmp_path / "led.bin"))
        self._nearly_full(led, free=0)
        assert led.record(_fb(1, "s1", "c1", category="k7"))
        with pytest.raises(ValueError, match="category table full"):
            led.record(_fb(2, "s1", "c1", category="over"))
        led.close()
        reopened = FeedbackLedger(backend="mmap", path=led.path)
        assert [fb.category for fb in reopened.feedbacks_for_server("s1")] == ["k7"]


def test_mmap_per_event_records_are_the_packed_columns(tmp_path):
    """Per-event folds write each record from the fold's scalars; the
    file's record region is, byte for byte, ``pack_records`` over the
    store's own columns (categories, negatives and forged records
    included), and reopening reads the same rows back."""
    path = tmp_path / "led.bin"
    stream = STREAM + [
        Feedback(
            time=7.25,
            server="s4",
            client="c2",
            rating=Rating.NEGATIVE,
            category="eu",
            authentic=False,
        ),
        _fb(8, "s1", "c4", category="na"),
    ]
    led = FeedbackLedger(backend="mmap", path=str(path))
    assert led.record_many(stream) == len(stream)
    led.close()
    store = led.store
    packed = binlog.pack_records(
        store.times,
        store.server_codes,
        store.client_codes,
        store.ratings,
        store.authentic,
        store.category_codes,
    )
    assert path.read_bytes()[binlog.HEADER_SIZE :] == packed.tobytes()
    reopened = FeedbackLedger(backend="mmap", path=str(path))
    for server in led.servers():
        assert _rows(reopened.feedbacks_for_server(server)) == _rows(
            led.feedbacks_for_server(server)
        )
    assert [fb.authentic for fb in reopened.feedbacks_for_server("s4")] == [False]


def test_mmap_ledger_over_a_removed_file_starts_fresh_id_tables(tmp_path):
    """A ledger created where only the ``.ledger`` file was removed
    replaces the id sidecars left behind, so a reopen finds each id once
    and every server's rows."""
    from repro.core.config import AssessorConfig
    from repro.serve import AssessmentService

    path = tmp_path / "led.ledger"
    stream = [_fb(t, f"s{t % 3}", f"c{t % 5}") for t in range(45)]
    for _ in range(2):
        path.unlink(missing_ok=True)
        with FeedbackLedger(backend="mmap", path=str(path)) as led:
            led.record_batch(stream)
    reopened = FeedbackLedger(backend="mmap", path=str(path))
    assert binlog.load_binary_ledger(path).servers == ["s0", "s1", "s2"]
    assert len(reopened.history("s0")) == 15
    service = AssessmentService(config=AssessorConfig(), ledger=reopened)
    assert sorted(service.servers()) == ["s0", "s1", "s2"]
    reopened.close()


@pytest.mark.parametrize(
    "raw, ids",
    [
        (b"", []),
        (b'"s1', []),
        (b'"s1"\n"s\\"2', ["s1"]),
        (b'"s1"\n"\\u00e9\\n"\n', ["s1", "é\n"]),
    ],
    ids=["empty", "torn-only-line", "torn-last-line", "escapes"],
)
def test_sidecar_load_drops_a_torn_last_line(tmp_path, raw, ids):
    sidecar = tmp_path / "led.ledger.servers"
    sidecar.write_bytes(raw)
    assert binlog._load_sidecar(str(sidecar)) == ids


@pytest.mark.parametrize("fold", ["record", "record_many", "record_batch", "columns"])
def test_closed_mmap_ledger_refuses_folds(fold, tmp_path):
    """After ``close()`` a fold raises before anything changes: the
    ledger's length, the live history and the file all stay as they
    were, whichever fold path is asked."""
    path = tmp_path / "led.bin"
    led = FeedbackLedger(backend="mmap", path=str(path))
    led.record_many(STREAM)
    history = led.history("s1")
    led.close()
    on_disk = path.read_bytes()
    later = [_fb(9, "s1", "c9"), _fb(9, "s-new", "c-new")]
    with pytest.raises(ValueError, match=re.escape(f"ledger file '{path}' is closed")):
        if fold == "record":
            led.record(later[0])
        elif fold == "columns":
            led.record_batch(FeedbackBatch.from_feedbacks(later))
        else:
            getattr(led, fold)(later)
    assert len(led) == len(STREAM)
    assert (len(history), history.last_time()) == (3, 4.0)
    assert "s-new" not in led.store.server_table
    assert path.read_bytes() == on_disk
    with FeedbackLedger(backend="mmap", path=str(path)) as reopened:
        assert len(reopened) == len(STREAM)
