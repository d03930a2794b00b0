"""Unit coverage for the partitioning and anti-entropy primitives."""

from __future__ import annotations

import pytest

from repro.cluster import HashRingView, MerkleTree, partition
from repro.p2p.chord import key_of


class TestHashRingView:
    MEMBERS = [f"shard-{i:02d}" for i in range(5)]

    def test_members_come_back_in_ring_order(self):
        ring = HashRingView(self.MEMBERS, m_bits=32, replicas=3)
        ids = [key_of(name, 32) for name in ring.members]
        assert ids == sorted(ids)
        assert sorted(ring.members) == sorted(self.MEMBERS)

    def test_owner_is_first_member_clockwise(self):
        ring = HashRingView(self.MEMBERS, m_bits=32, replicas=3)
        for server in ("srv-a", "srv-b", "srv-c", "x" * 40):
            owner = ring.owner(server)
            key = key_of(server, 32)
            ids = sorted((key_of(m, 32), m) for m in self.MEMBERS)
            expected = next(
                (name for node_id, name in ids if node_id >= key), ids[0][1]
            )
            assert owner == expected

    def test_preference_list_is_distinct_successors(self):
        ring = HashRingView(self.MEMBERS, m_bits=32, replicas=3)
        pref = ring.preference_list("some-server")
        assert len(pref) == 3
        assert len(set(pref)) == 3
        assert pref[0] == ring.owner("some-server")
        # the K members are consecutive in ring order
        members = ring.members
        start = members.index(pref[0])
        expected = [members[(start + i) % len(members)] for i in range(3)]
        assert pref == expected

    def test_preference_list_caps_at_membership(self):
        ring = HashRingView(["a", "b"], m_bits=32, replicas=3)
        assert len(ring.preference_list("srv")) == 2

    def test_partition_groups_preserve_order(self):
        ring = HashRingView(self.MEMBERS, m_bits=32, replicas=2)
        servers = [f"srv-{i}" for i in range(50)]
        groups = ring.partition(servers)
        flattened = [s for group in groups.values() for s in group]
        assert sorted(flattened) == sorted(servers)
        for pref, group in groups.items():
            for server in group:
                assert tuple(ring.preference_list(server)) == pref
            # within-group order follows input order
            assert group == [s for s in servers if s in set(group)]

    def test_a_view_hashes_each_server_once(self, monkeypatch):
        ring = HashRingView(self.MEMBERS, m_bits=32, replicas=3)
        servers = [f"srv-{i}" for i in range(50)]
        first = ring.partition(servers)
        hashed = []
        monkeypatch.setattr(
            partition, "key_of", lambda name, m: hashed.append(name) or key_of(name, m)
        )
        assert ring.partition(servers) == first
        route = {s: pref for pref, group in first.items() for s in group}
        assert all(ring.owner(s) == route[s][0] for s in servers)
        assert hashed == []

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            HashRingView([], m_bits=32, replicas=3)


class TestMerkleTree:
    def _items(self, n, diverge=()):
        return [
            (f"srv-{i:03d}", f"digest-{i}x" if i in diverge else f"digest-{i}")
            for i in range(n)
        ]

    def test_equal_items_equal_roots(self):
        a = MerkleTree(self._items(40))
        b = MerkleTree(list(reversed(self._items(40))))
        assert a.root == b.root

    def test_any_divergence_changes_the_root(self):
        a = MerkleTree(self._items(40))
        b = MerkleTree(self._items(40, diverge={17}))
        assert a.root != b.root

    def test_descent_finds_exactly_the_divergent_servers(self):
        diverge = {3, 17, 38}
        a = MerkleTree(self._items(40), leaf_size=4)
        b = MerkleTree(self._items(40, diverge=diverge), leaf_size=4)
        found = set()
        queue = [()]
        while queue:
            path = queue.pop(0)
            node_a, node_b = a.node(path), b.node(path)
            if node_a["hash"] == node_b["hash"]:
                continue
            if node_a["leaf"]:
                items_a = dict(map(tuple, node_a["items"]))
                items_b = dict(map(tuple, node_b["items"]))
                for server in set(items_a) | set(items_b):
                    if items_a.get(server) != items_b.get(server):
                        found.add(server)
                continue
            for step, (ha, hb) in enumerate(
                zip(node_a["children"], node_b["children"])
            ):
                if ha != hb:
                    queue.append(path + (step,))
        assert found == {f"srv-{i:03d}" for i in diverge}

    def test_empty_group_has_a_root(self):
        tree = MerkleTree([])
        assert tree.root == MerkleTree([]).root
        node = tree.node(())
        assert node["leaf"] is True
        assert node["items"] == []

    def test_bad_paths_raise(self):
        tree = MerkleTree(self._items(4), leaf_size=8)  # single leaf
        with pytest.raises(KeyError):
            tree.node((0,))  # descends below the root leaf
        big = MerkleTree(self._items(64), leaf_size=4)
        with pytest.raises(KeyError):
            big.node((2,))
