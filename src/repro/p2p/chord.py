"""A Chord-style structured overlay for decentralized feedback storage.

The paper's trust assessment assumes all feedback about a server can be
retrieved; in a decentralized deployment that job falls to a P2P data
organization scheme (the paper cites P-Grid).  This module implements
the canonical alternative, a Chord ring (Stoica et al.):

* node and data ids live on a ``2^m`` identifier circle (SHA-1 based);
* the node *responsible* for a key is the first node clockwise from it;
* each node keeps a successor list (fault tolerance), a predecessor
  pointer, and a finger table giving O(log n)-hop lookups;
* data is replicated on the ``r`` nodes succeeding the responsible one,
  so single-node crashes lose nothing.

Lookups are *iterative*: the initiating node queries fingers over the
simulated network, so hop counts equal message counts and the O(log n)
claim is assertable in tests.  Ring maintenance follows Chord's
``stabilize``/``notify``/``fix_fingers`` protocol, driven in rounds by
:class:`ChordRing` (the test-harness view of the deployment).
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs import runtime as _obs
from ..obs import scope as _scope
from ..resilience import runtime as _res
from ..stats.rng import SeedLike, make_rng
from .network import NodeUnreachable, SimulatedNetwork

__all__ = [
    "key_of",
    "in_interval",
    "value_digest",
    "ChordNode",
    "ChordRing",
    "LookupResult",
]

DEFAULT_M_BITS = 16


def key_of(name: str, m_bits: int = DEFAULT_M_BITS) -> int:
    """Hash an arbitrary name onto the identifier circle."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << m_bits)


def value_digest(value: Any) -> str:
    """Content digest of a stored value — the store's idempotency key.

    At-least-once delivery (``_rpc_retry``, hand-over cascades, replica
    repair) may present the same value to a node many times; stores keyed
    by this digest collapse every re-delivery into one copy at the write
    side.  JSON canonicalization (sorted keys) makes the digest stable
    across payload dict orderings; non-JSON values fall back to ``repr``.
    """
    try:
        canonical = json.dumps(value, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        canonical = repr(value)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def in_interval(x: int, left: int, right: int, *, inclusive_right: bool = False) -> bool:
    """Is ``x`` in the circular interval ``(left, right)`` / ``(left, right]``?

    On a ring the interval may wrap; ``left == right`` denotes the full
    circle (a single-node ring owns everything).
    """
    if left == right:
        return True  # full circle: a single-node ring owns every key
    if left < right:
        return (left < x < right) or (inclusive_right and x == right)
    return (x > left) or (x < right) or (inclusive_right and x == right)


class LookupResult(Tuple[str, int]):
    """``(node_name, hops)`` returned by lookups."""

    __slots__ = ()

    def __new__(cls, node: str, hops: int):
        return super().__new__(cls, (node, hops))

    @property
    def node(self) -> str:
        return self[0]

    @property
    def hops(self) -> int:
        return self[1]


class ChordNode:
    """One overlay node: ring pointers, finger table, replicated storage."""

    def __init__(self, name: str, network: SimulatedNetwork, m_bits: int, replicas: int):
        self.name = name
        self.node_id = key_of(name, m_bits)
        self._network = network
        self._m = m_bits
        self._replicas = replicas
        self.successors: List[str] = [name]  # successor list, self when alone
        self.predecessor: Optional[str] = None
        self.fingers: List[str] = [name] * m_bits
        self.storage: Dict[int, List[Any]] = {}
        # write-side idempotency: content digests of everything stored,
        # so at-least-once re-deliveries never duplicate a value
        self._store_digests: Dict[int, Set[str]] = {}
        network.register(name, self._handle)

    # ------------------------------------------------------------------ #
    # public queries

    def _scoped(self):
        """Node-attribution scope for work done *as* this node.

        A shared no-op when obs collection is off, so the overlay hot
        path pays one flag read — the same discipline as every other
        ``_obs.enabled`` site.
        """
        if _obs.enabled:
            return _scope.node_scope(self.name)
        return _scope.NOOP

    @property
    def successor(self) -> str:
        return self.successors[0]

    def responsible_for(self, key: int) -> bool:
        """Does this node own ``key``? (first node clockwise from the key)"""
        if self.predecessor is None:
            return True
        pred_id = key_of(self.predecessor, self._m)
        return in_interval(key, pred_id, self.node_id, inclusive_right=True)

    def find_successor(self, key: int, *, max_hops: int = 64) -> LookupResult:
        """Iterative lookup: walk fingers until the owner is found."""
        with self._scoped():
            result = self._find_successor(key, max_hops=max_hops)
            if _obs.enabled:
                # hops are message counts (iterative lookup), so this
                # histogram *is* the O(log n) routing claim, per node
                _obs.registry.observe("p2p.chord.lookup_hops", result.hops)
                _res.emit(
                    "chord_lookup", key=key, hops=result.hops, owner=result.node
                )
        return result

    def _find_successor(self, key: int, *, max_hops: int) -> LookupResult:
        current = self.name
        hops = 0
        while hops <= max_hops:
            info = self._rpc(current, "lookup_step", {"key": key})
            if info is None:  # dropped or dead: fall back to our successor list
                current = self._next_alive_successor(exclude=current)
                hops += 1
                continue
            if info["done"]:
                return LookupResult(info["node"], hops)
            next_node = info["node"]
            if next_node == current:  # safety: no progress possible
                return LookupResult(current, hops)
            current = next_node
            hops += 1
        raise RuntimeError(f"lookup for key {key} exceeded {max_hops} hops")

    # ------------------------------------------------------------------ #
    # ring maintenance (Chord's join / stabilize / notify / fix_fingers)

    def join(self, bootstrap: str, *, attempts: int = 5) -> None:
        """Join the ring known to ``bootstrap`` (retrying dropped RPCs)."""
        with self._scoped():
            result = None
            for _ in range(attempts):
                result = self._rpc(
                    bootstrap, "find_successor_rpc", {"key": self.node_id}
                )
                if result is not None:
                    break
                if not self._network.is_alive(bootstrap):
                    break
            if result is None:
                raise NodeUnreachable(bootstrap)
            self.successors = [result["node"]]
            self.predecessor = None
            # claim the keys we now own straight away: notify-driven
            # hand-over cannot fire when the successor's stale
            # predecessor pointer already carries our name (a rejoin)
            if self.successor != self.name:
                self._rpc_retry(
                    self.successor, "request_handover", {"node": self.name}
                )

    def stabilize(self) -> None:
        """Verify the successor, adopt a closer one, and notify it."""
        with self._scoped():
            if _obs.enabled:
                _obs.registry.inc("p2p.chord.stabilize_runs")
            # check_predecessor (Chord §E.1): a dead predecessor must be
            # cleared, or responsible_for keeps honoring its stale
            # interval — a ring collapsed to one node would own nothing
            if self.predecessor is not None and not self._network.is_alive(
                self.predecessor
            ):
                self.predecessor = None
            successor = self._first_alive_successor()
            pred_of_succ = self._rpc(successor, "get_predecessor", {})
            if pred_of_succ and pred_of_succ.get("node"):
                candidate = pred_of_succ["node"]
                if candidate != self.name and self._network.is_alive(candidate):
                    cid = key_of(candidate, self._m)
                    sid = key_of(successor, self._m)
                    if in_interval(cid, self.node_id, sid):
                        successor = candidate
            before = self.successor
            self._rebuild_successor_list(successor)
            if self.successor != before and self.successor != self.name:
                # adopting a closer successor moves our ownership
                # boundary: pull the keys it holds in our range
                self._rpc_retry(
                    self.successor, "request_handover", {"node": self.name}
                )
            self._rpc(successor, "notify", {"node": self.name})

    def fix_fingers(self) -> None:
        """Recompute the finger table with fresh lookups."""
        with self._scoped():
            repaired = 0
            for i in range(self._m):
                target = (self.node_id + (1 << i)) % (1 << self._m)
                try:
                    finger = self.find_successor(target).node
                except (RuntimeError, NodeUnreachable):
                    finger = self.successor
                if finger != self.fingers[i]:
                    repaired += 1
                self.fingers[i] = finger
            if repaired and _obs.enabled:
                _obs.registry.inc("p2p.chord.finger_repairs", repaired)

    def leave(self) -> None:
        """Graceful departure: hand storage to the successor, detach."""
        with self._scoped():
            if self.successor != self.name and self._network.is_alive(self.successor):
                for key, values in self.storage.items():
                    for value in values:
                        self._rpc(
                            self.successor, "store", {"key": key, "value": value}
                        )
            if _obs.enabled or _res.events is not None:
                _res.emit(
                    "chord_node_leave",
                    node=self.name,
                    keys=len(self.storage),
                    successor=self.successor,
                )
            self._network.unregister(self.name)

    # ------------------------------------------------------------------ #
    # data operations

    def put(self, key: int, value: Any) -> str:
        """Store ``value`` under ``key`` on its owner + replicas; returns owner.

        The value's content digest travels with every store message, so
        ``_rpc_retry`` re-sends and replica forwards are idempotent at the
        write side — no reader-side deduplication needed.
        """
        owner = self.find_successor(key).node
        with self._scoped():
            self._rpc_retry(
                owner,
                "store_replicated",
                {"key": key, "value": value, "digest": value_digest(value)},
            )
        return owner

    def get(self, key: int) -> List[Any]:
        """Fetch all values under ``key`` (owner first, replica fallback)."""
        return self.fetch(key)["values"]

    def fetch(self, key: int) -> Dict[str, Any]:
        """Fetch values under ``key`` with read-path metadata.

        Returns ``{"values", "owner", "replica", "attempts"}`` where
        ``owner`` is the lookup's answer, ``replica`` is the node that
        actually answered (``None`` when nobody did), and ``attempts``
        lists every node tried, in order.  The fallback is deterministic:
        when the owner does not answer, its replica set — the nodes
        succeeding it on the ring, derived by fresh lookups, *not* this
        node's own successor list — is tried in successor order, so the
        same failure state always reads from the same replica and
        quorum/read-repair decisions are reproducible under chaos seeds.
        """
        owner = self.find_successor(key).node
        with self._scoped():
            attempts = [owner]
            reply = self._rpc_retry(owner, "fetch", {"key": key})
            if reply is not None:
                return {
                    "values": list(reply["values"]),
                    "owner": owner,
                    "replica": owner,
                    "attempts": attempts,
                }
            for replica in self._replica_chain(owner)[1:]:
                if replica in attempts:
                    continue
                attempts.append(replica)
                reply = self._rpc(replica, "fetch", {"key": key})
                if reply is not None and reply["values"]:
                    return {
                        "values": list(reply["values"]),
                        "owner": owner,
                        "replica": replica,
                        "attempts": attempts,
                    }
            return {
                "values": [],
                "owner": owner,
                "replica": None,
                "attempts": attempts,
            }

    def _replica_chain(self, owner: str) -> List[str]:
        """The nodes succeeding ``owner`` clockwise — its replica set.

        Derived by fresh lookups from the owner's ring position rather
        than this node's successor list, which describes *our* replicas,
        not the owner's.
        """
        chain = [owner]
        for _ in range(self._replicas - 1):
            probe = (key_of(chain[-1], self._m) + 1) % (1 << self._m)
            try:
                nxt = self._find_successor(probe, max_hops=4 * self._m).node
            except RuntimeError:
                break
            if nxt in chain:
                break
            chain.append(nxt)
        return chain

    # ------------------------------------------------------------------ #
    # RPC handling

    def _handle(self, message_type: str, payload: Dict[str, Any]) -> Any:
        with self._scoped():
            # delivery-side attribution: whatever this RPC makes the node
            # do (forward stores, cascade hand-overs) is *its* work
            return self._dispatch(message_type, payload)

    def _dispatch(self, message_type: str, payload: Dict[str, Any]) -> Any:
        if message_type == "lookup_step":
            return self._lookup_step(payload["key"])
        if message_type == "find_successor_rpc":
            result = self.find_successor(payload["key"])
            return {"node": result.node}
        if message_type == "get_predecessor":
            return {"node": self.predecessor}
        if message_type == "get_successor":
            return {"node": self.successor}
        if message_type == "notify":
            self._notify(payload["node"])
            return {}
        if message_type == "request_handover":
            if payload["node"] != self.name:
                self._hand_over_upstream_keys(payload["node"])
            return {}
        if message_type == "store":
            self._store_value(
                payload["key"], payload["value"], payload.get("digest")
            )
            return {}
        if message_type == "store_replicated":
            key, value = payload["key"], payload["value"]
            digest = payload.get("digest") or value_digest(value)
            self._store_value(key, value, digest)
            for replica in self.successors[: self._replicas - 1]:
                if replica != self.name:
                    self._rpc(
                        replica,
                        "store",
                        {"key": key, "value": value, "digest": digest},
                    )
            return {}
        if message_type == "fetch":
            return {"values": list(self.storage.get(payload["key"], []))}
        raise ValueError(f"unknown message type {message_type!r}")

    # ------------------------------------------------------------------ #
    # internals

    def _store_value(
        self, key: int, value: Any, digest: Optional[str] = None
    ) -> bool:
        """Idempotent store keyed by the value's content digest.

        Returns ``True`` when the value was new.  The equality check on
        the bucket stays as a second guard for values written into
        ``storage`` directly (test setup, external repair tooling) whose
        digests this node never saw.
        """
        bucket = self.storage.setdefault(key, [])
        digests = self._store_digests.setdefault(key, set())
        if digest is None:
            digest = value_digest(value)
        if digest in digests:
            if value in bucket:
                return False  # confirmed duplicate delivery
            # a known digest whose value is *not* in the bucket means the
            # bucket was rewound externally (repair tooling, test setup);
            # the bucket is authoritative, so store again
        elif value in bucket:
            # direct bucket write this node never digested
            digests.add(digest)
            return False
        bucket.append(value)
        digests.add(digest)
        return True

    def _lookup_step(self, key: int) -> Dict[str, Any]:
        successor = self._first_alive_successor()
        sid = key_of(successor, self._m)
        if in_interval(key, self.node_id, sid, inclusive_right=True):
            return {"done": True, "node": successor}
        return {"done": False, "node": self._closest_preceding(key)}

    def _closest_preceding(self, key: int) -> str:
        for finger in reversed(self.fingers):
            if finger == self.name or not self._network.is_alive(finger):
                continue
            fid = key_of(finger, self._m)
            if in_interval(fid, self.node_id, key):
                return finger
        return self._first_alive_successor()

    def _notify(self, candidate: str) -> None:
        if candidate == self.name:
            return
        adopted = False
        if self.predecessor is None or not self._network.is_alive(self.predecessor):
            self.predecessor = candidate
            adopted = True
        else:
            pid = key_of(self.predecessor, self._m)
            cid = key_of(candidate, self._m)
            if in_interval(cid, pid, self.node_id):
                self.predecessor = candidate
                adopted = True
        if adopted:
            self._hand_over_upstream_keys()

    def _hand_over_upstream_keys(self, target: Optional[str] = None) -> None:
        """Copy keys this node no longer owns to the new predecessor.

        When a node joins between P and S, the keys in (old-P, new-P]
        stop being S's: without this transfer a lookup routed to the new
        owner finds nothing (data is not lost, just unreachable).  The
        copy cascades — if the predecessor does not own a key either, its
        own next notify pushes it further upstream.  The local copy is
        kept as a replica; readers deduplicate.

        ``target`` serves ``request_handover``: a joining node claims
        its range explicitly, which notify-driven hand-over cannot cover
        when the joiner reuses the name of a crashed predecessor (the
        stale pointer masks the rejoin).  Transfers ride ``_rpc_retry``:
        a dropped hand-over message would strand the key at its replicas
        (the owner answers lookups with nothing), and ``store`` is an
        idempotent append.
        """
        predecessor = target if target is not None else self.predecessor
        if predecessor is None or not self._network.is_alive(predecessor):
            return
        pid = key_of(predecessor, self._m)
        handed = 0
        for key, values in list(self.storage.items()):
            if in_interval(key, pid, self.node_id, inclusive_right=True):
                continue  # still ours
            for value in values:
                self._rpc_retry(predecessor, "store", {"key": key, "value": value})
                handed += 1
        if handed:
            if _obs.enabled:
                _obs.registry.inc("p2p.chord.key_handovers", handed)
            if _obs.enabled or _res.events is not None:
                _res.emit(
                    "chord_key_handover",
                    node=self.name,
                    to=predecessor,
                    values=handed,
                )

    def _first_alive_successor(self) -> str:
        for succ in self.successors:
            if succ == self.name or self._network.is_alive(succ):
                return succ
        return self.name

    def _next_alive_successor(self, exclude: str) -> str:
        for succ in self.successors:
            if succ != exclude and (succ == self.name or self._network.is_alive(succ)):
                return succ
        return self.name

    def _rebuild_successor_list(self, first: str) -> None:
        chain = [first]
        current = first
        for _ in range(self._replicas):
            reply = self._rpc(current, "get_successor", {})
            if reply is None:
                break
            nxt = reply["node"]
            if nxt in chain or nxt == self.name:
                break
            chain.append(nxt)
            current = nxt
        changed = chain != self.successors
        self.successors = chain
        if changed:
            if _obs.enabled:
                _obs.registry.inc("p2p.chord.successor_rebuilds")
            if _obs.enabled or _res.events is not None:
                _res.emit(
                    "chord_successor_rebuild",
                    node=self.name,
                    first=first,
                    size=len(chain),
                )

    def _rpc_retry(
        self, dst: str, message_type: str, payload: Dict[str, Any], attempts: int = 4
    ) -> Any:
        """Retry an idempotent RPC across message drops.

        Store messages carry the value's content digest, so a retried
        ``store_replicated`` whose first delivery landed (only the reply
        was lost) collapses into the already-stored copy at the write
        side — at-least-once delivery without duplicates.
        """
        for _ in range(attempts):
            reply = self._rpc(dst, message_type, payload)
            if reply is not None:
                return reply
            if not self._network.is_alive(dst):
                return None
        return None

    def _rpc(self, dst: str, message_type: str, payload: Dict[str, Any]) -> Any:
        if dst == self.name:
            return self._handle(message_type, payload)
        try:
            return self._network.send(dst, message_type, payload)
        except NodeUnreachable:
            return None


class ChordRing:
    """Deployment harness: builds and maintains a ring of ChordNodes."""

    def __init__(
        self,
        network: Optional[SimulatedNetwork] = None,
        m_bits: int = DEFAULT_M_BITS,
        replicas: int = 3,
        seed: SeedLike = None,
    ):
        if m_bits <= 0 or m_bits > 60:
            raise ValueError(f"m_bits must lie in (0, 60], got {m_bits}")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.network = network or SimulatedNetwork()
        self._m = m_bits
        self._replicas = replicas
        self._rng = make_rng(seed)
        self.nodes: Dict[str, ChordNode] = {}

    def add_node(self, name: str, *, stabilize_rounds: int = 3) -> ChordNode:
        """Create a node, join it through a random member, repair the ring."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already in the ring")
        new_id = key_of(name, self._m)
        for existing in self.nodes:
            if key_of(existing, self._m) == new_id:
                # two names on one ring position make ownership intervals
                # ill-defined; refuse loudly instead of corrupting routing
                # (at 2^16 positions, birthday collisions are realistic —
                # widen m_bits or rename the node)
                raise ValueError(
                    f"id collision: {name!r} and {existing!r} both hash to "
                    f"{new_id} with m_bits={self._m}"
                )
        node = ChordNode(name, self.network, self._m, self._replicas)
        if self.nodes:
            bootstrap = self._random_member()
            node.join(bootstrap)
        self.nodes[name] = node
        self.stabilize_all(rounds=stabilize_rounds)
        if len(self.nodes) > 1:
            # the join hand-over moves owned keys but the newcomer joins
            # every replica set empty-handed — push current owners' keys
            # so the factor holds for the *next* failure, not just this one
            self.repair_replication()
        return node

    def remove_node(self, name: str, *, graceful: bool = True, stabilize_rounds: int = 3) -> None:
        """Remove a node — gracefully (data handoff) or as a crash."""
        node = self.nodes.pop(name, None)
        if node is None:
            raise KeyError(f"node {name!r} not in the ring")
        if graceful:
            node.leave()
        else:
            self.network.unregister(name)
        self.stabilize_all(rounds=stabilize_rounds)
        if self.nodes:
            # any removal erodes the replication factor: a crash drops
            # one copy of everything the victim held, and a graceful
            # leave concentrates its storage on a single successor —
            # restore the factor while the ring is healthy
            self.repair_replication()

    def stabilize_all(self, rounds: int = 1) -> None:
        """Run stabilize + fix_fingers on every node, ``rounds`` times."""
        for _ in range(rounds):
            for node in self.nodes.values():
                node.stabilize()
            for node in self.nodes.values():
                node.fix_fingers()

    def repair_replication(self) -> None:
        """Re-push every owned key to its current replica set.

        Crashes erode the replication factor (a dead replica is not
        automatically replaced); deployments run this periodically — the
        harness calls it after crash removals so durability holds across
        repeated failures.  Idempotent: stores deduplicate.
        """
        for node in list(self.nodes.values()):
            for key, values in list(node.storage.items()):
                if not node.responsible_for(key):
                    continue
                for replica in node.successors[: self._replicas - 1]:
                    if replica == node.name or not self.network.is_alive(replica):
                        continue
                    for value in values:
                        self.network.send(replica, "store", {"key": key, "value": value})

    def lookup(self, name_or_key) -> LookupResult:
        """Find the owner of a key (string names are hashed first)."""
        key = name_or_key if isinstance(name_or_key, int) else key_of(name_or_key, self._m)
        return self._any_node().find_successor(key)

    def put(self, name: str, value: Any) -> str:
        """Store ``value`` under a string key; returns the owning node."""
        return self._any_node().put(key_of(name, self._m), value)

    def get(self, name: str) -> List[Any]:
        """Fetch every value stored under a string key."""
        return self._any_node().get(key_of(name, self._m))

    def responsible_node(self, name: str) -> str:
        """Ground truth owner, computed centrally (for tests)."""
        return self._owner_of(key_of(name, self._m))

    def _owner_of(self, key: int) -> str:
        """The first node clockwise from ``key``, from the sorted ids."""
        ids = sorted((node.node_id, name) for name, node in self.nodes.items())
        return ids[bisect.bisect_left(ids, (key, "")) % len(ids)][1]

    def check_consistency(self) -> Dict[str, Any]:
        """Structural consistency of the ring against central ground truth.

        Checks, with the sorted node ids as the reference ring:

        * **successor agreement** — each node's successor pointer names
          the next node clockwise;
        * **predecessor agreement** — each node's predecessor pointer
          names the previous node (``None`` is tolerated only on a
          1-node ring);
        * **orphaned keys** — a key stored *somewhere* must also be
          stored at its responsible node, else lookups route to an
          empty owner;
        * **replication deficits** — each owned key should be held by
          ``min(replicas, n_nodes)`` nodes.

        ``ok`` is True only when every list is empty.
        """
        names = sorted(self.nodes, key=lambda name: self.nodes[name].node_id)
        n = len(names)
        successor_errors: List[Dict[str, Any]] = []
        predecessor_errors: List[Dict[str, Any]] = []
        for i, name in enumerate(names):
            node = self.nodes[name]
            expected = names[(i + 1) % n]
            if node.successor != expected:
                successor_errors.append(
                    {"node": name, "expected": expected, "actual": node.successor}
                )
            expected = names[i - 1]
            if n > 1 and node.predecessor != expected:
                predecessor_errors.append(
                    {"node": name, "expected": expected, "actual": node.predecessor}
                )

        # every key seen anywhere must live at its owner, replicated
        # min(replicas, n) ways (replica copies double as the hand-over
        # trail, so extra copies are fine — deficits are not)
        holders: Dict[int, List[str]] = {}
        for name in names:
            for key, values in self.nodes[name].storage.items():
                if values:
                    holders.setdefault(key, []).append(name)
        expected_copies = min(self._replicas, n)
        orphaned_keys: List[Dict[str, Any]] = []
        under_replicated: List[Dict[str, Any]] = []
        for key in sorted(holders):
            owner = self._owner_of(key)
            if owner not in holders[key]:
                orphaned_keys.append(
                    {"key": key, "owner": owner, "holders": sorted(holders[key])}
                )
            elif len(holders[key]) < expected_copies:
                under_replicated.append(
                    {"key": key, "copies": len(holders[key]), "expected": expected_copies}
                )

        return {
            "ok": not (
                successor_errors
                or predecessor_errors
                or orphaned_keys
                or under_replicated
            ),
            "n_nodes": n,
            "n_keys": len(holders),
            "successor_errors": successor_errors,
            "predecessor_errors": predecessor_errors,
            "orphaned_keys": orphaned_keys,
            "under_replicated": under_replicated,
        }

    def _any_node(self) -> ChordNode:
        if not self.nodes:
            raise RuntimeError("ring is empty")
        return self.nodes[self._random_member()]

    def _random_member(self) -> str:
        names = sorted(self.nodes)
        return names[int(self._rng.integers(0, len(names)))]
