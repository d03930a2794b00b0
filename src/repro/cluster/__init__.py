"""Replicated sharded assessment over the P2P substrate.

The paper's assessment algebra is a pure fold over per-server feedback
streams, which makes it shard-friendly: partition servers across nodes
by consistent hashing, replicate each server's ledger on its owner's
successor set, and any replica can answer for its servers.  This
package supplies that deployment shape:

* :class:`~repro.cluster.partition.HashRingView` — preference lists by
  consistent hashing on the Chord identifier circle; the cluster's only
  ring, rebuilt from the member list on every membership change;
* :class:`~repro.cluster.node.ClusterNode` — one member: private
  ledger + incremental assessment shard + hint store;
* :class:`~repro.cluster.service.ClusterAssessmentService` — the
  facade: quorum reads, hinted handoff, anti-entropy and membership
  changes.  Read repair, anti-entropy and membership changes reconcile
  replicas the same way: pull every reachable copy, merge by event
  digest, reset the replicas that differ.

See ``docs/CLUSTER.md`` for the full protocol walk-through and the
degradation matrix.
"""

from .node import ClusterNode, ReplicaBatch, ShardState, event_digest, event_digests
from .partition import HashRingView
from .service import ClusterAssessmentService, PeerUnavailable

__all__ = [
    "ClusterAssessmentService",
    "ClusterNode",
    "HashRingView",
    "PeerUnavailable",
    "ReplicaBatch",
    "ShardState",
    "event_digest",
    "event_digests",
]
