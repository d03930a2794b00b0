"""Unit coverage for the partitioning primitive."""

from __future__ import annotations

import pytest

from repro.cluster import HashRingView, partition
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
