"""Simulated message-passing network for the P2P substrate.

The paper assumes transaction feedback is available "through special
data organization schemes in P2P systems" (it cites P-Grid) and
discusses gossip-based reputation aggregation as related work.  The
:mod:`repro.p2p` package makes that assumption concrete; this module is
its transport: a synchronous request/reply network with seeded,
injectable unreliability (message drops) and per-message accounting, so
overlay algorithms can be tested for both correctness and message
complexity.

The network is deliberately synchronous — a ``send`` delivers the
request to the destination's handler and returns its reply — because
the overlay protocols built on top (iterative Chord lookups, push-pull
gossip rounds) are step-based; asynchrony would add machinery without
changing what the paper needs from the substrate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..obs import context as _ctx
from ..obs import runtime as _obs
from ..resilience import runtime as _res
from ..stats.rng import SeedLike, make_rng

__all__ = ["NetworkStats", "NodeUnreachable", "SimulatedNetwork"]

Handler = Callable[[str, Dict[str, Any]], Any]


class NodeUnreachable(Exception):
    """Raised when sending to an id with no registered handler."""


@dataclass
class NetworkStats:
    """Message accounting for complexity assertions in tests/benches."""

    messages: int = 0
    drops: int = 0
    retries: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)

    def record(self, message_type: str, dropped: bool) -> None:
        """Count one message (and its drop status)."""
        self.messages += 1
        self.by_type[message_type] = self.by_type.get(message_type, 0) + 1
        if dropped:
            self.drops += 1
        if _obs.enabled:
            _obs.registry.inc("p2p.network.messages", type=message_type)
            if dropped:
                _obs.registry.inc("p2p.network.drops", type=message_type)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe view of the accounting (tests, benches, exports)."""
        return {
            "messages": self.messages,
            "drops": self.drops,
            "retries": self.retries,
            "by_type": dict(self.by_type),
        }


class SimulatedNetwork:
    """Registry of node handlers with lossy synchronous delivery.

    ``drop_rate`` is the probability that a request is lost; a dropped
    request returns ``None`` to the sender (timeout semantics).  Replies
    are never dropped separately — a lost reply is indistinguishable
    from a lost request at this abstraction level.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        seed: SeedLike = None,
        *,
        name: str = "simnet",
    ):
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must lie in [0, 1), got {drop_rate}")
        self._drop_rate = drop_rate
        self._rng = make_rng(seed)
        self._handlers: Dict[str, Handler] = {}
        self._stats = NetworkStats()
        self.name = name

    @property
    def stats(self) -> NetworkStats:
        return self._stats

    @property
    def node_ids(self):
        return set(self._handlers)

    def register(self, node_id: str, handler: Handler) -> None:
        """Attach a node; its handler receives ``(message_type, payload)``."""
        if not node_id:
            raise ValueError("node_id must be non-empty")
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler
        if _obs.enabled:
            _obs.registry.set("p2p.network.nodes", len(self._handlers))

    def unregister(self, node_id: str) -> None:
        """Detach a node (crash/leave); later sends raise NodeUnreachable."""
        if node_id not in self._handlers:
            raise KeyError(f"node {node_id!r} not registered")
        del self._handlers[node_id]
        if _obs.enabled:
            _obs.registry.set("p2p.network.nodes", len(self._handlers))

    def send(
        self, dst: str, message_type: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        """Deliver a request and return the handler's reply.

        Returns ``None`` when the message is dropped; raises
        :class:`NodeUnreachable` when the destination does not exist —
        callers distinguish "lossy" from "gone".
        """
        handler = self._handlers.get(dst)
        if handler is None:
            raise NodeUnreachable(dst)
        dropped = self._drop_rate > 0 and self._rng.random() < self._drop_rate
        if _res.armed:
            # node-kill fault: the destination dies before this request
            # lands — its handler is dropped, so this send *and every
            # later one* sees NodeUnreachable until the node re-registers.
            # Checked only for live destinations so each fire kills a
            # distinct node (deterministic under the plan seed).
            spec = _res.check("p2p.network.kill")
            if spec is not None:
                self._stats.record(message_type, True)
                self.unregister(dst)
                _res.emit("node_killed", node=dst, site="p2p.network.kill")
                raise NodeUnreachable(dst)
        if _res.armed and not dropped:
            # an armed network fault forces a loss (corrupt/crash modes)
            # or an explicit transport error (exception mode)
            spec = _res.check("p2p.network.send")
            if spec is not None:
                if spec.mode == "exception":
                    raise _res.InjectedFault("p2p.network.send", spec.mode, 0)
                dropped = True
        self._stats.record(message_type, dropped)
        ctx = _ctx.current()
        if ctx is None:
            # untraced hop: zero envelope/serialization overhead — this
            # path carries the million-message overlay benches
            if dropped:
                return None
            return self._deliver(handler, message_type, payload or {})
        # traced hop: the context crosses as serialized headers on the
        # message envelope — exactly what a real wire would carry — and
        # is rebuilt on the delivery side before the handler runs
        envelope = ctx.to_headers()
        if dropped:
            _obs.span_event("p2p.message_dropped", dst=dst, type=message_type)
            return None
        remote_ctx = _ctx.TraceContext.from_headers(envelope)
        with _ctx.use(remote_ctx):
            with _obs.span("p2p.network.deliver", dst=dst, type=message_type):
                return self._deliver(handler, message_type, payload or {})

    def _deliver(
        self, handler: Handler, message_type: str, payload: Dict[str, Any]
    ) -> Any:
        """Run a handler, timing delivery per message type when obs is on."""
        if not _obs.enabled:
            return handler(message_type, payload)
        start = time.perf_counter()
        reply = handler(message_type, payload)
        _obs.registry.observe(
            "p2p.network.send_seconds",
            time.perf_counter() - start,
            type=message_type,
        )
        return reply

    def send_reliable(
        self,
        dst: str,
        message_type: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        max_attempts: int = 3,
    ) -> Any:
        """Send with bounded retry on loss: re-send up to ``max_attempts``
        times while delivery keeps timing out (``None``).

        Returns the first reply, or ``None`` when every attempt was
        dropped — the caller still owns the giving-up decision, the
        wrapper just bounds how much lossiness it absorbs.  Retries are
        counted in :attr:`NetworkStats.retries`.  ``NodeUnreachable``
        propagates immediately: a missing node will not come back
        because we ask again.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        reply = self.send(dst, message_type, payload)
        attempts = 1
        while reply is None and attempts < max_attempts:
            attempts += 1
            self._stats.retries += 1
            if _obs.enabled:
                _obs.registry.inc("p2p.network.retries", type=message_type)
            if _ctx.current() is not None:
                _obs.span_event(
                    "p2p.retry", dst=dst, type=message_type, attempt=attempts
                )
            reply = self.send(dst, message_type, payload)
        return reply

    def is_alive(self, node_id: str) -> bool:
        """Is a handler currently registered under ``node_id``?"""
        return node_id in self._handlers
