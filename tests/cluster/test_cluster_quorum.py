"""Quorum reads: replica failures, degradation, and read-repair."""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import ClusterAssessmentService
from repro.core.verdict import AssessmentStatus
from repro.feedback.records import Feedback, Rating
from repro.obs.events import EventLog
from repro.resilience import runtime as res

from .conftest import corpus, make_cluster, make_reference


def _pref(cluster: ClusterAssessmentService, server: str):
    return cluster._ring.preference_list(server)


class TestQuorumDegradation:
    def test_one_dead_replica_keeps_full_quality(self):
        """K=3, R=2: losing one replica costs nothing visible."""
        events = corpus()
        cluster = make_cluster()
        cluster.record_batch(events)
        reference = make_reference(events, cluster._calibrator)
        expected = reference.assess_many(cluster.servers)
        server = cluster.servers[0]
        cluster.kill(_pref(cluster, server)[0])  # the owner, no less
        got = cluster.assess_many()
        assert got == expected
        assert not any(a.degraded for a in got.values())

    def test_below_quorum_degrades_but_answers(self):
        """One surviving replica: right verdict, flagged degraded."""
        events = corpus()
        cluster = make_cluster()
        cluster.record_batch(events)
        reference = make_reference(events, cluster._calibrator)
        expected = reference.assess_many(cluster.servers)
        server = cluster.servers[0]
        pref = _pref(cluster, server)
        cluster.kill(pref[0])
        cluster.kill(pref[1])
        got = cluster.assess_many([server])
        assert got[server].degraded
        assert got[server] == replace(expected[server], degraded=True)

    def test_zero_replicas_yields_fail_safe_verdict(self):
        """Every replica dead: UNTRUSTED/degraded, never an exception."""
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        server = cluster.servers[0]
        log = EventLog()
        with res.activate(None, log):
            for member in _pref(cluster, server):
                cluster.kill(member)
            got = cluster.assess_many([server])
        verdict = got[server]
        assert verdict.degraded
        assert verdict.status is AssessmentStatus.UNTRUSTED
        assert verdict.trust_value is None
        assert "cluster_quorum_lost" in [e["event"] for e in log.events]

    def test_every_server_answers_under_minority_kill(self):
        events = corpus()
        cluster = make_cluster()
        cluster.record_batch(events)
        for member in cluster.members[:2]:  # minority of 5
            cluster.kill(member)
        got = cluster.assess_many()
        assert sorted(got) == sorted(cluster.servers)


class TestDigestFirstReads:
    """A quorum read needs one assessment per server; the other
    replicas answer with their digest, which is all the quorum compares."""

    def _count_assessed(self, cluster, monkeypatch):
        assessed = []
        for node in cluster._members.values():
            original = node.service.assess_many

            def counting(servers, _original=original):
                assessed.extend(servers)
                return _original(servers)

            monkeypatch.setattr(node.service, "assess_many", counting)
        return assessed

    def test_one_replica_assessment_per_verdict(self, monkeypatch):
        events = corpus()
        cluster = make_cluster()
        cluster.record_batch(events)
        expected = make_reference(events, cluster._calibrator).assess_many(
            cluster.servers
        )
        assessed = self._count_assessed(cluster, monkeypatch)
        got = cluster.assess_many()
        assert got == expected
        assert sorted(assessed) == sorted(cluster.servers)

    def test_dead_first_replica_still_yields_an_assessment(self, monkeypatch):
        events = corpus()
        cluster = make_cluster()
        cluster.record_batch(events)
        expected = make_reference(events, cluster._calibrator).assess_many(
            cluster.servers
        )
        server = cluster.servers[0]
        cluster.kill(_pref(cluster, server)[0])
        assessed = self._count_assessed(cluster, monkeypatch)
        got = cluster.assess_many()
        assert got == expected
        assert not any(a.degraded for a in got.values())
        assert sorted(assessed) == sorted(cluster.servers)


class TestReadRepair:
    def _diverge(self, cluster, server, events):
        """Apply one extra event to the second replica only."""
        last = max(fb.time for fb in events if fb.server == server)
        extra = Feedback(
            time=last + 1.0,
            server=server,
            client="cli-divergent",
            rating=Rating.NEGATIVE,
        )
        second = cluster._members[_pref(cluster, server)[1]]
        second.apply_events([extra])
        return extra

    def test_divergent_replicas_are_repaired_on_read(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        server = cluster.servers[0]
        extra = self._diverge(cluster, server, events)
        log = EventLog()
        with res.activate(None, log):
            got = cluster.assess_many([server])
        assert "cluster_read_repair" in [e["event"] for e in log.events]
        # all replicas converge on the merged stream
        digests = {
            cluster._members[m].digest_of(server)
            for m in _pref(cluster, server)
        }
        assert len(digests) == 1
        # and the returned verdict reflects the merged history
        reference = make_reference(
            events + [extra], cluster._calibrator, servers=[server]
        )
        assert got[server] == reference.assess_many([server])[server]
        assert not got[server].degraded

    def test_reassessment_reads_a_replica_holding_the_merged_stream(
        self, monkeypatch
    ):
        """The first replica is stale and its reset is lost: the
        repaired verdict comes from a replica that holds the merge."""
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        server = cluster.servers[0]
        first, *rest = _pref(cluster, server)
        extra = Feedback(
            time=max(fb.time for fb in events if fb.server == server) + 1.0,
            server=server,
            client="cli-divergent",
            rating=Rating.NEGATIVE,
        )
        for member in rest:
            cluster._members[member].apply_events([extra])
        call = cluster._call

        def lose_reset_of_first(dst, message_type, payload):
            if dst == first and message_type == "cluster_reset":
                return None
            return call(dst, message_type, payload)

        monkeypatch.setattr(cluster, "_call", lose_reset_of_first)
        got = cluster.assess_many([server])[server]
        reference = make_reference(
            events + [extra], cluster._calibrator, servers=[server]
        )
        assert got == reference.assess_many([server])[server]

    def test_anti_entropy_repairs_without_reads(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        server = cluster.servers[0]
        extra = self._diverge(cluster, server, events)
        summary = cluster.anti_entropy()
        assert summary["diverged"] == 1
        assert summary["repaired"] == 1
        digests = {
            cluster._members[m].digest_of(server)
            for m in _pref(cluster, server)
        }
        assert len(digests) == 1
        reference = make_reference(
            events + [extra], cluster._calibrator, servers=[server]
        )
        assert (
            cluster.assess_many([server])[server]
            == reference.assess_many([server])[server]
        )

    def test_clean_cluster_anti_entropy_is_all_synced(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        summary = cluster.anti_entropy()
        assert summary["diverged"] == 0
        assert summary["repaired"] == 0
        assert summary["synced"] == summary["groups"]
