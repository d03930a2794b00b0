"""Cluster vs single node: bit-identical verdicts while healthy.

The acceptance bar for the sharded deployment: for the full corpus of
honest / hibernating / periodic / collusive servers, a healthy cluster
and a single-node service return identical
:class:`~repro.core.verdict.Assessment` objects — across shard counts,
incremental ingest, and membership changes — whether the single node
shares the cluster's calibrator or builds its own with the same seed.
"""

from __future__ import annotations

import pytest

from repro.cluster import HashRingView
from repro.core.calibration import ThresholdCalibrator
from repro.feedback.records import Feedback, Rating

from .conftest import CLUSTER_CONFIG, corpus, make_cluster, make_reference


class TestHealthyEquivalence:
    @pytest.mark.parametrize("n_nodes", [2, 4, 5])
    def test_verdicts_identical_across_shard_counts(self, n_nodes):
        events = corpus()
        cluster = make_cluster(n_nodes=n_nodes)
        cluster.record_batch(events)
        reference = make_reference(events, cluster._calibrator)
        expected = reference.assess_many(cluster.servers)
        got = cluster.assess_many()
        assert got == expected
        assert not any(a.degraded for a in got.values())

    def test_single_node_with_its_own_calibrator_agrees(self):
        # thresholds are pure functions of their key and the seed, so a
        # fresh same-seed calibrator reproduces the cluster's verdicts
        events = corpus()
        cluster = make_cluster(n_nodes=4)
        cluster.record_batch(events)
        got = cluster.assess_many()
        test_config = CLUSTER_CONFIG.test_config
        own = ThresholdCalibrator(
            confidence=test_config.confidence,
            n_sets=test_config.calibration_sets,
            distance=test_config.distance,
            p_quantum=test_config.p_quantum,
        )
        assert own is not cluster._calibrator
        reference = make_reference(events, own)
        assert reference.assess_many(cluster.servers) == got

    def test_single_node_cluster_degenerates_cleanly(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster(n_nodes=1, replicas=1, read_quorum=1)
        cluster.record_batch(events)
        reference = make_reference(events, cluster._calibrator)
        assert cluster.assess_many() == reference.assess_many(cluster.servers)

    def test_incremental_batches_match_one_shot(self):
        events = corpus()
        cut = len(events) // 3
        incremental = make_cluster()
        incremental.record_batch(events[:cut])
        incremental.assess_many()  # interleaved reads must not disturb state
        incremental.record_batch(events[cut:])
        reference = make_reference(events, incremental._calibrator)
        assert incremental.assess_many() == reference.assess_many(
            incremental.servers
        )

    def test_duplicate_delivery_is_idempotent(self):
        events = corpus(n_per_kind=2)
        cluster = make_cluster()
        cluster.record_batch(events)
        before = cluster.assess_many()
        cluster.record_batch(events)  # exact redelivery of the whole batch
        assert cluster.assess_many() == before

    def test_assess_subset_and_unknown_server(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        subset = cluster.servers[:3]
        got = cluster.assess_many(subset)
        assert list(got) == subset
        with pytest.raises(KeyError):
            cluster.assess_many(["no-such-server"])


class TestMembershipEquivalence:
    def test_join_ships_snapshots_and_preserves_verdicts(self):
        events = corpus()
        cluster = make_cluster(n_nodes=3)
        cluster.record_batch(events)
        baseline = cluster.assess_many()
        cluster.add_node("shard-93")
        assert cluster.assess_many() == baseline
        report = cluster.stats_report()
        assert report["nodes"] == 4
        assert report["replication"]["violated"] == 0

    def test_graceful_leave_rehomes_shards(self):
        events = corpus()
        cluster = make_cluster(n_nodes=4)
        cluster.record_batch(events)
        baseline = cluster.assess_many()
        cluster.remove_node(cluster.members[0])
        assert cluster.assess_many() == baseline
        assert cluster.stats_report()["replication"]["violated"] == 0

    def test_crash_leave_is_kill_then_remove(self):
        events = corpus()
        cluster = make_cluster(n_nodes=4)
        cluster.record_batch(events)
        baseline = cluster.assess_many()
        victim = cluster.members[0]
        cluster.kill(victim)
        cluster.remove_node(victim)
        assert victim not in cluster.members
        assert cluster.assess_many() == baseline
        assert cluster.stats_report()["replication"]["violated"] == 0

    def test_join_after_more_writes_replays_the_tail(self):
        events = corpus()
        cut = len(events) - 40
        cluster = make_cluster(n_nodes=3)
        cluster.record_batch(events[:cut])
        cluster.add_node("shard-94")
        cluster.record_batch(events[cut:])
        reference = make_reference(events, cluster._calibrator)
        assert cluster.assess_many() == reference.assess_many(cluster.servers)

    def test_join_merges_every_old_replica(self):
        """A newcomer gets the union of the old replicas' copies, even
        when the first replica in the preference list is the stale one."""
        events = corpus(n_per_kind=1)
        cluster = make_cluster(n_nodes=4)
        cluster.record_batch(events)
        server = cluster.servers[0]
        old_pref = cluster._ring.preference_list(server)
        extra = Feedback(
            time=max(fb.time for fb in events if fb.server == server) + 1.0,
            server=server,
            client="cli-divergent",
            rating=Rating.NEGATIVE,
        )
        for member in old_pref[1:]:
            cluster._members[member].apply_events([extra])
        merged = cluster._members[old_pref[1]].digest_of(server)
        assert cluster._members[old_pref[0]].digest_of(server) != merged
        newcomer = next(
            name
            for name in (f"shard-join-{i}" for i in range(100))
            if name
            in HashRingView(
                cluster.members + [name], m_bits=32, replicas=3
            ).preference_list(server)
        )
        cluster.add_node(newcomer)
        new_pref = cluster._ring.preference_list(server)
        assert newcomer in new_pref
        assert {
            m: cluster._members[m].digest_of(server) for m in new_pref
        } == {m: merged for m in new_pref}
        reference = make_reference(
            events + [extra], cluster._calibrator, servers=[server]
        )
        assert (
            cluster.assess_many([server])[server]
            == reference.assess_many([server])[server]
        )
