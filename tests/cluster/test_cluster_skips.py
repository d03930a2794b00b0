"""Replica skips are counted with a reason, never silently."""

from __future__ import annotations

from repro import obs
from repro.feedback.records import Feedback, Rating
from repro.obs.registry import MetricsRegistry

from .conftest import make_cluster


def _counts(registry, name: str):
    """``{(node, reason): value}`` for every sample of counter ``name``."""
    out = {}
    for sample in registry.collect():
        if sample.name == name:
            labels = dict(sample.labels)
            out[(labels.get("node"), labels.get("reason"))] = sample.value
    return out


def _event(t: float) -> Feedback:
    return Feedback(time=t, server="srv-late", client="cli-0", rating=Rating.POSITIVE)


def test_back_dated_event_is_counted_below_watermark_on_every_replica():
    """10 in-order events, then one at t=5.5: every replica skips it."""
    cluster = make_cluster()
    with obs.activate() as session:
        written = cluster.record_batch([_event(float(t)) for t in range(10)])
        assert written["skipped"] == {"below_watermark": 0, "duplicate_digest": 0}
        applied_before = _counts(session.registry, "cluster.shard.events_applied")
        written = cluster.record_batch([_event(5.5)])
        applied_after = _counts(session.registry, "cluster.shard.events_applied")
        skipped = _counts(session.registry, "cluster.shard.events_skipped")

    replicas = set(cluster._ring.preference_list("srv-late"))
    assert len(replicas) == 3
    # the write report does not pass the dropped event off as written
    assert written["replica_writes"] == 0
    assert written["skipped"] == {"below_watermark": 3, "duplicate_digest": 0}
    assert skipped == {(node, "below_watermark"): 1 for node in replicas}
    assert sum(skipped.values()) == 3
    assert applied_after == applied_before
    for node in replicas:
        assert len(cluster._members[node].events_of("srv-late")) == 10


def test_redelivered_tie_event_is_counted_as_duplicate_digest():
    cluster = make_cluster()
    with obs.activate() as session:
        cluster.record_batch([_event(float(t)) for t in range(3)])
        written = cluster.record_batch([_event(2.0)])
        skipped = _counts(session.registry, "cluster.shard.events_skipped")
    assert {reason for _, reason in skipped} == {"duplicate_digest"}
    assert sum(skipped.values()) == 3
    assert written["skipped"] == {"below_watermark": 0, "duplicate_digest": 3}


def test_skips_are_not_counted_when_observability_is_off(monkeypatch):
    registry = MetricsRegistry()
    monkeypatch.setattr(obs.runtime, "registry", registry)
    assert not obs.is_enabled()
    cluster = make_cluster()
    cluster.record_batch([_event(float(t)) for t in range(3)])
    written = cluster.record_batch([_event(1.0)])
    assert _counts(registry, "cluster.shard.events_skipped") == {}
    # the write report counts skips whether or not anything observes
    assert written["skipped"]["below_watermark"] == 3
