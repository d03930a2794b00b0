"""Tests for repro.p2p.chord (ring correctness, lookups, churn, replication)."""

import pytest

from repro.p2p.chord import ChordRing, in_interval, key_of
from repro.p2p.network import SimulatedNetwork


def _ring(n_nodes, replicas=3, seed=0, drop_rate=0.0):
    ring = ChordRing(
        network=SimulatedNetwork(drop_rate=drop_rate, seed=seed),
        replicas=replicas,
        seed=seed,
    )
    for i in range(n_nodes):
        ring.add_node(f"node-{i}")
    return ring


class TestHashing:
    def test_key_deterministic_and_in_range(self):
        assert key_of("abc") == key_of("abc")
        assert 0 <= key_of("abc", 16) < (1 << 16)

    def test_different_names_usually_differ(self):
        keys = {key_of(f"name-{i}") for i in range(100)}
        assert len(keys) > 95  # collisions possible but rare

    def test_in_interval_simple(self):
        assert in_interval(5, 1, 10)
        assert not in_interval(1, 1, 10)
        assert not in_interval(10, 1, 10)
        assert in_interval(10, 1, 10, inclusive_right=True)

    def test_in_interval_wrapping(self):
        # interval (200, 10) wraps through 0
        assert in_interval(250, 200, 10)
        assert in_interval(5, 200, 10)
        assert not in_interval(100, 200, 10)

    def test_in_interval_full_circle(self):
        assert in_interval(42, 7, 7)


class TestRingStructure:
    def test_single_node_owns_everything(self):
        ring = _ring(1)
        node = ring.nodes["node-0"]
        assert node.successor == "node-0"
        assert ring.lookup("anything").node == "node-0"

    def test_successors_form_the_sorted_circle(self):
        ring = _ring(8)
        ids = sorted((key_of(name), name) for name in ring.nodes)
        for idx, (_, name) in enumerate(ids):
            expected_successor = ids[(idx + 1) % len(ids)][1]
            assert ring.nodes[name].successor == expected_successor

    def test_predecessors_consistent(self):
        ring = _ring(6)
        for name, node in ring.nodes.items():
            assert ring.nodes[node.successor].predecessor == name


class TestLookup:
    @pytest.mark.parametrize("n_nodes", [2, 5, 16])
    def test_lookup_matches_ground_truth(self, n_nodes):
        ring = _ring(n_nodes)
        for i in range(50):
            key_name = f"key-{i}"
            assert ring.lookup(key_name).node == ring.responsible_node(key_name)

    def test_lookup_hops_logarithmic(self):
        ring = _ring(32)
        hops = [ring.lookup(f"key-{i}").hops for i in range(100)]
        # O(log n): for 32 nodes expect hops well under n
        assert max(hops) <= 12
        assert sum(hops) / len(hops) <= 6

    def test_lookup_by_integer_key(self):
        ring = _ring(4)
        result = ring.lookup(12345)
        assert result.node in ring.nodes


class TestStorage:
    def test_put_get_roundtrip(self):
        ring = _ring(8)
        ring.put("server-x", {"t": 1})
        ring.put("server-x", {"t": 2})
        values = ring.get("server-x")
        assert {v["t"] for v in values} == {1, 2}

    def test_get_missing_key_empty(self):
        assert _ring(4).get("nothing-here") == []

    def test_put_lands_on_responsible_node(self):
        ring = _ring(8)
        owner = ring.put("server-y", "v")
        assert owner == ring.responsible_node("server-y")
        key = key_of("server-y")
        assert "v" in ring.nodes[owner].storage.get(key, [])

    def test_replication_on_successors(self):
        ring = _ring(8, replicas=3)
        owner = ring.put("server-z", "v")
        key = key_of("server-z")
        holders = [n for n, node in ring.nodes.items() if "v" in node.storage.get(key, [])]
        assert owner in holders
        assert len(holders) >= 2  # owner + at least one replica


class TestChurn:
    def test_graceful_leave_preserves_data(self):
        ring = _ring(8)
        owner = ring.put("server-a", "payload")
        ring.remove_node(owner, graceful=True)
        assert "payload" in ring.get("server-a")

    def test_crash_with_replication_preserves_data(self):
        ring = _ring(8, replicas=3)
        owner = ring.put("server-b", "payload")
        ring.remove_node(owner, graceful=False, stabilize_rounds=4)
        assert "payload" in ring.get("server-b")

    def test_lookup_correct_after_join(self):
        ring = _ring(6)
        ring.add_node("late-joiner")
        for i in range(30):
            key_name = f"post-join-{i}"
            assert ring.lookup(key_name).node == ring.responsible_node(key_name)

    def test_lookup_correct_after_crash(self):
        ring = _ring(8)
        ring.remove_node("node-3", graceful=False, stabilize_rounds=4)
        for i in range(30):
            key_name = f"post-crash-{i}"
            assert ring.lookup(key_name).node == ring.responsible_node(key_name)

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            _ring(2).remove_node("ghost")

    def test_duplicate_add_raises(self):
        ring = _ring(2)
        with pytest.raises(ValueError):
            ring.add_node("node-0")

    def test_id_collision_refused(self):
        # 'n6' and 'n31' hash to the same position at m_bits=8; two names
        # on one ring position would corrupt ownership intervals silently
        ring = ChordRing(m_bits=8, seed=1)
        ring.add_node("n6")
        with pytest.raises(ValueError, match="id collision"):
            ring.add_node("n31")


class TestLossyNetwork:
    def test_lookup_survives_moderate_drops(self):
        ring = _ring(8, drop_rate=0.1, seed=5)
        correct = sum(
            ring.lookup(f"key-{i}").node == ring.responsible_node(f"key-{i}")
            for i in range(40)
        )
        assert correct >= 35  # retries via successor fallback


class TestValidation:
    def test_ring_constructor(self):
        with pytest.raises(ValueError):
            ChordRing(m_bits=0)
        with pytest.raises(ValueError):
            ChordRing(replicas=0)

    def test_empty_ring_lookup(self):
        with pytest.raises(RuntimeError):
            ChordRing().lookup("x")


class TestCheckRing:
    """``ChordRing.check_consistency`` against deliberately broken rings."""

    def _stored(self, replicas=1):
        # three nodes and one stored key; returns the ring, the node names
        # in ring (id) order, the key, and the key's owner
        ring = _ring(3, replicas=replicas)
        owner = ring.put("rec", "v")
        names = sorted(ring.nodes, key=lambda name: ring.nodes[name].node_id)
        return ring, names, key_of("rec"), owner

    def test_healthy_ring_ok(self):
        ring, _, _, _ = self._stored()
        report = ring.check_consistency()
        assert report["ok"] is True
        assert report["n_nodes"] == 3
        assert report["n_keys"] == 1
        assert report["successor_errors"] == []
        assert report["orphaned_keys"] == []

    def test_broken_successor_detected(self):
        ring, (a, b, c), _, _ = self._stored()
        ring.nodes[a].successors[0] = c  # should be b
        report = ring.check_consistency()
        assert report["ok"] is False
        assert report["successor_errors"] == [
            {"node": a, "expected": b, "actual": c}
        ]

    def test_broken_predecessor_detected(self):
        ring, (_, b, _), _, _ = self._stored()
        ring.nodes[b].predecessor = None
        report = ring.check_consistency()
        assert report["ok"] is False
        assert report["predecessor_errors"][0]["node"] == b

    def test_orphaned_key_detected(self):
        ring, names, key, owner = self._stored()
        # strand the key at a node that does not own it
        other = next(name for name in names if name != owner)
        ring.nodes[owner].storage = {}
        ring.nodes[other].storage = {key: ["v"]}
        report = ring.check_consistency()
        assert report["ok"] is False
        assert report["orphaned_keys"] == [
            {"key": key, "owner": owner, "holders": [other]}
        ]

    def test_under_replication_detected(self):
        ring, names, key, owner = self._stored(replicas=3)
        for name in names:
            if name != owner:
                ring.nodes[name].storage = {}
        report = ring.check_consistency()
        assert report["ok"] is False
        assert report["under_replicated"] == [
            {"key": key, "copies": 1, "expected": 3}
        ]

    def test_single_node_ring_tolerates_none_predecessor(self):
        ring = _ring(1)
        ring.nodes["node-0"].predecessor = None
        assert ring.check_consistency()["ok"] is True
