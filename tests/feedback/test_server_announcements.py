"""The server announcement contract of :class:`FeedbackLedger`.

A server subscriber hears of a server exactly when a fold gives it its
first live row: once per :meth:`~FeedbackLedger.record` of such a
server, and once per :meth:`~FeedbackLedger.record_batch` folded in one
pass, listing the batch's new servers in order of first appearance.  A
server the ledger already holds is never announced again, a quarantined
event announces nothing, and a server reset to an empty stream is new
again at its next fold — the serving engine then serves it from its new
history, on one node and on a cluster replica.
"""

from __future__ import annotations

import pytest

from repro.cluster.node import ClusterNode
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import CATEGORY_LIMIT, FeedbackBatch
from repro.p2p.network import SimulatedNetwork
from repro.resilience import Quarantine
from repro.serve import AssessmentService

CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(window_size=8, min_windows=2, calibration_sets=50),
)


def _fb(t, server, client="c1", good=True, category=None):
    return Feedback(
        time=float(t),
        server=server,
        client=client,
        rating=Rating.POSITIVE if good else Rating.NEGATIVE,
        category=category,
    )


def _stream(server, start, n=40, client="c"):
    return [
        _fb(start + i, server, f"{client}{i % 5}", good=i % 7 != 3) for i in range(n)
    ]


@pytest.fixture(params=["columnar", "mmap"])
def make_ledger(request, tmp_path):
    opened = []

    def factory(**kwargs):
        if request.param == "mmap":
            kwargs["path"] = str(tmp_path / f"led{len(opened)}.bin")
        led = FeedbackLedger(backend=request.param, **kwargs)
        opened.append(led)
        return led

    yield factory
    for led in opened:
        led.close()


def _listen(led):
    calls = []
    led.subscribe_servers(lambda servers: calls.append(list(servers)))
    return calls


def test_record_announces_each_new_server_once(make_ledger):
    led = make_ledger()
    calls = _listen(led)
    led.record_many([_fb(1, "s1"), _fb(2, "s2"), _fb(3, "s1"), _fb(4, "s3"), _fb(5, "s2")])
    assert calls == [["s1"], ["s2"], ["s3"]]


@pytest.mark.parametrize("columns", [False, True])
def test_record_batch_announces_its_new_servers_in_one_call(make_ledger, columns):
    led = make_ledger()
    led.record(_fb(0, "s1"))
    calls = _listen(led)
    # "s9" comes first but sorts last: the call keeps arrival order
    batch = [_fb(1, "s9"), _fb(1, "s1"), _fb(2, "s2"), _fb(3, "s9"), _fb(4, "s0")]
    known = [_fb(5, "s0"), _fb(6, "s1"), _fb(7, "s9")]
    for events in (batch, known):
        led.record_batch(FeedbackBatch.from_feedbacks(events) if columns else events)
    assert calls == [["s9", "s2", "s0"]]


def test_per_event_batch_path_announces_the_same_servers(make_ledger):
    """A batch that goes back in time takes the per-event path, which
    announces as :meth:`record` does."""
    led = make_ledger(quarantine=Quarantine(name="ledger"))
    led.record(_fb(5, "s1"))
    calls = _listen(led)
    assert led.record_batch([_fb(1, "s2"), _fb(4, "s1"), _fb(2, "s3"), _fb(3, "s2")]) == 3
    assert calls == [["s2"], ["s3"]]


@pytest.mark.parametrize("fold", ["record", "record_batch"])
def test_quarantined_events_announce_nothing(fold):
    quarantine = Quarantine(name="ledger")
    led = FeedbackLedger(quarantine=quarantine)
    table = led.store.category_table
    for i in range(CATEGORY_LIMIT):
        table.intern(f"k{i}")
    calls = _listen(led)
    refused = [_fb(1, "s-new", category="over")]
    if fold == "record":
        assert not led.record(refused[0])
    else:
        assert led.record_batch(refused) == 0
    assert quarantine.depth == 1 and calls == []
    assert led.record(_fb(2, "s-new", category="k0"))
    assert calls == [["s-new"]]


def test_reset_to_an_empty_stream_makes_a_server_new_again():
    led = FeedbackLedger()
    led.record_many(_stream("s1", 0, 5))
    calls = _listen(led)
    led.reset_server("s1", [])
    assert calls == [] and "s1" not in led
    led.record(_fb(100, "s1"))
    led.record(_fb(101, "s1"))
    assert calls == [["s1"]]


@pytest.mark.parametrize("remove", [True, False])
def test_service_serves_a_reset_server_from_its_new_history(remove):
    """Whether or not the repair path removed the server from the
    engine, the server's next first live row registers its new history
    — no state or memo of the old one survives."""
    led = FeedbackLedger()
    led.record_many(_stream("a", 0) + _stream("s", 0))
    service = AssessmentService(config=CONFIG, ledger=led)
    before = service.assess("s")
    led.reset_server("s", [])
    if remove:
        service.remove_server("s")
        assert "s" not in service.servers()
    led.record_many(_stream("s", 1000, client="d"))
    history = led.history("s")
    assert service._states["s"].history is history
    assert before.server == "s" and len(history) == 40
    assert service.assess("s") == service.assessor.assess(history, ledger=led)


def test_cluster_node_reset_to_empty_serves_the_new_history():
    node = ClusterNode("node", SimulatedNetwork(name="announce"), config=CONFIG)
    node.apply_events(_stream("a", 0) + _stream("s", 0))
    node.reset_server("s", [])
    assert "s" not in node.service.servers()
    node.apply_events(_stream("s", 1000, client="d"))
    history = node.ledger.history("s")
    assert node.service._states["s"].history is history
    assert [fb.client[0] for fb in history.feedbacks()] == ["d"] * 40
    served = node.service.assess_many(["s"])["s"]
    assert served == node.service.assessor.assess(history, ledger=node.ledger)


def test_replica_message_of_known_servers_makes_no_callback():
    node = ClusterNode("node", SimulatedNetwork(name="announce"), config=CONFIG)
    servers = [f"s{i:03d}" for i in range(50)]
    node.apply_events([fb for s in servers for fb in _stream(s, 0, 3)])
    calls = _listen(node.ledger)
    node.apply_events([fb for s in servers for fb in _stream(s, 10, 3)])
    assert calls == []
    assert len(node.service.servers()) == 50
