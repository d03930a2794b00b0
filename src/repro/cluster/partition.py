"""Consistent-hash partitioning of servers onto cluster members.

The cluster's data placement follows the Chord/Dynamo convention: server
ids and member names hash onto the same ``2^m`` identifier circle (via
:func:`repro.p2p.chord.key_of`), the *owner* of a server is the first
member clockwise from its key, and the server's **preference list** is
the owner plus the next ``K - 1`` distinct members clockwise — the
successor set that holds its replicas.

Preference lists are computed over the full *membership*, dead members
included: a crashed node keeps its ring position (its replicas keep
serving reads, hints queue for its writes) until it is administratively
removed.  This is what makes hinted handoff meaningful — the hint's
target is a position on the ring, not whichever node happens to be up.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple

from ..p2p.chord import key_of

__all__ = ["HashRingView"]


class HashRingView:
    """Preference lists over a fixed membership set.

    Immutable by design: the cluster facade rebuilds the view on every
    membership change, so a view in hand always answers consistently —
    mid-rebalance races cannot produce two different owners for one
    server within a single routing decision.  It also makes every
    preference list a constant of the view, memoised on first use, so
    routing a batch hashes each server once per view, not per batch.
    """

    def __init__(self, members: Iterable[str], *, m_bits: int, replicas: int):
        names = list(members)
        if not names:
            raise ValueError("a ring view needs at least one member")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        pairs = sorted((key_of(name, m_bits), name) for name in names)
        for (id_a, name_a), (id_b, name_b) in zip(pairs, pairs[1:]):
            if id_a == id_b:
                raise ValueError(
                    f"id collision: {name_a!r} and {name_b!r} both hash to "
                    f"{id_a} with m_bits={m_bits}"
                )
        self._m = m_bits
        self._replicas = replicas
        self._ids = [node_id for node_id, _ in pairs]
        self._names = [name for _, name in pairs]
        n, k = len(names), min(replicas, len(names))
        #: the n possible preference lists: one per owner position
        self._rotations = [
            tuple(self._names[(start + i) % n] for i in range(k))
            for start in range(n)
        ]
        self._prefs: Dict[str, Tuple[str, ...]] = {}

    @property
    def members(self) -> List[str]:
        """Member names in ring (id) order."""
        return list(self._names)

    @property
    def replicas(self) -> int:
        """The replication factor K this view was built for."""
        return self._replicas

    def __len__(self) -> int:
        return len(self._names)

    def owner(self, server: str) -> str:
        """The member responsible for ``server`` (first clockwise)."""
        return self._preference(server)[0]

    def preference_list(self, server: str) -> List[str]:
        """The ``min(K, n)`` distinct members replicating ``server``.

        Successor order: element 0 is the owner, element ``i`` the
        ``i``-th replica — the deterministic read/write/repair order.
        """
        return list(self._preference(server))

    def partition(
        self, servers: Sequence[str]
    ) -> Dict[Tuple[str, ...], List[str]]:
        """Group ``servers`` by preference list (one RPC batch per group).

        Groups preserve the input's server order; the dict preserves
        first-appearance group order — both matter for deterministic
        routing.
        """
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for server in servers:
            groups.setdefault(self._preference(server), []).append(server)
        return groups

    def _preference(self, server: str) -> Tuple[str, ...]:
        pref = self._prefs.get(server)
        if pref is None:
            pref = self._prefs[server] = self._rotations[self._owner_index(server)]
        return pref

    def _owner_index(self, server: str) -> int:
        key = key_of(server, self._m)
        index = bisect_left(self._ids, key)
        return index % len(self._ids)
