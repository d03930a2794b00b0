"""End to end: one trace_id and one node label follow a Chord lookup.

A single lookup, run with a live trace context, must grow the
initiating node's hop-count histogram, and its ``chord_lookup`` event
must reach the run's event log carrying the root trace_id and the node
that started the walk.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import context as ctx_mod
from repro.obs import scope
from repro.obs.events import EventLog
from repro.p2p.chord import ChordRing
from repro.resilience import runtime as res


@pytest.fixture(autouse=True)
def _clean_scope():
    scope.reset()
    yield
    scope.reset()


def _hops_count(snapshot, node):
    return sum(
        entry["summary"]["count"]
        for entry in snapshot.get("p2p.chord.lookup_hops", [])
        if entry["labels"].get("node") == node
    )


class TestNodeTraceE2E:
    def test_one_trace_id_spans_hops_and_event_log(self):
        ring = ChordRing(seed=3)
        for i in range(8):
            ring.add_node(f"node-{i}")

        root = ctx_mod.new_root()
        log = EventLog()
        with obs.activate() as session, res.activate(event_log=log):
            registry = session.registry
            before = registry.snapshot()
            with ctx_mod.use(root):
                result = ring.lookup("server-42")
            after = registry.snapshot()

        # the chord_lookup event carries the root's trace_id and the
        # node that initiated the walk into the run's event log
        lookup_events = [
            event
            for event in log.events
            if event["event"] == "chord_lookup"
            and event.get("trace_id") == root.trace_id
        ]
        assert len(lookup_events) == 1
        origin_node = lookup_events[0]["node"]
        assert origin_node in ring.nodes
        assert lookup_events[0]["owner"] == result.node

        # the hop histogram recorded this lookup on that same node
        assert _hops_count(after, origin_node) == (
            _hops_count(before, origin_node) + 1
        )
