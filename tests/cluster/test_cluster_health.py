"""Cluster health: the replication report, and the event log through
``repro obs report``."""

from __future__ import annotations

import pytest

from repro.feedback.records import Feedback
from repro.main import main
from repro.obs.events import EventLog
from repro.resilience import runtime as res

from .conftest import corpus, make_cluster


class TestHealthReport:
    def test_cluster_section_in_report_and_rendering(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster(name="unit-cluster")
        cluster.record_batch(events)
        row = cluster.stats_report()
        assert row["name"] == "unit-cluster"
        assert row["nodes"] == row["alive"] == 5
        assert row["replicas"] == 3 and row["read_quorum"] == 2
        assert row["servers"] == len(cluster.servers)
        assert sum(row["ownership"].values()) == row["servers"]
        assert set(row["ownership"]) <= set(cluster.members)
        assert row["replication"] == {"satisfied": row["servers"], "violated": 0}
        assert row["open_hints"] == 0

    def test_kill_and_hints_show_up(self):
        events = corpus(n_per_kind=1)
        cluster = make_cluster(name="unit-cluster")
        cluster.record_batch(events)
        victim = cluster.members[0]
        cluster.kill(victim)
        base = max(fb.time for fb in events) + 1.0
        more = [
            Feedback(
                time=base + i * 0.001,
                server=fb.server,
                client=fb.client,
                rating=fb.rating,
            )
            for i, fb in enumerate(corpus(n_per_kind=1, n_events=2, seed=9))
        ]
        cluster.record_batch(more)
        row = cluster.stats_report()
        assert row["alive"] == 4
        assert row["open_hints"] == cluster.open_hints()
        if cluster.open_hints():
            assert row["replication"]["violated"] > 0


class TestEventSummary:
    def test_cluster_events_are_counted(self, tmp_path, capsys):
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        path = tmp_path / "cluster_events.jsonl"
        log = EventLog(path)
        with res.activate(None, log):
            victim = cluster.members[0]
            cluster.kill(victim)
            cluster.anti_entropy()
            cluster.recover(victim)
        log.close()
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        counts = out.split("event counts:\n")[1].split("by site:\n")
        assert "  cluster_anti_entropy    1\n" in counts[0]
        assert "  cluster_node_recovered  1\n" in counts[0]
        assert "  node_killed             1\n" in counts[0]
        assert counts[1].startswith("  cluster.kill  1")


#: every message type the cluster puts on the wire
VOCABULARY = {
    "cluster_record",
    "cluster_assess",
    "cluster_pull",
    "cluster_reset",
    "cluster_hint_store",
    "cluster_hint_replay",
}


class TestOneRing:
    def test_the_cluster_sends_only_its_own_vocabulary(self):
        """No overlay runs beside the hash ring, and every repair is a
        pull and a reset: writes, reads, kills, recovery, anti-entropy,
        joins and leaves use six RPC types between them."""
        events = corpus(n_per_kind=1)
        cluster = make_cluster()
        cluster.record_batch(events)
        cluster.assess_many()
        victim = cluster.members[0]
        cluster.kill(victim)
        cluster.recover(victim)
        cluster.anti_entropy()
        cluster.add_node("shard-new")
        cluster.remove_node(cluster.members[1])
        by_type = cluster.network.stats.as_dict()["by_type"]
        assert by_type
        assert all(kind.startswith("cluster_") for kind in by_type), by_type
        assert set(by_type) <= VOCABULARY, by_type

    @pytest.mark.parametrize(
        "message_type",
        [
            "cluster_merkle",
            "cluster_snapshot",
            "cluster_install",
            "cluster_tail",
            "cluster_stats",
        ],
    )
    def test_a_node_refuses_any_other_message_type(self, message_type):
        cluster = make_cluster()
        node = cluster._members[cluster.members[0]]
        with pytest.raises(ValueError, match="unknown message type"):
            node._handle(message_type, {"servers": [], "server": "s"})
