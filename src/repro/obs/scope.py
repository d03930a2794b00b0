"""Node-scoped metric attribution.

The paper's protocol is decentralized: feedback lives in a P2P overlay
and assessments happen at many nodes.  Every metric family in the
registry, however, observes one global process.  This module closes the
gap without rewriting a single ``_obs.registry.inc`` call site: code
that acts *as* a node wraps its work in ``node_scope(node_id)`` and the
registry stamps a ``node`` label onto every metric created inside the
scope (see ``MetricsRegistry._get_or_create``).

Design notes:

* ``active`` is a plain module attribute maintained by a nesting-depth
  counter.  The registry hot path pays one attribute read when no scope
  is anywhere on the stack — the common case for the single-process
  core/serve layers — and only touches the contextvar when a scope is
  actually open somewhere.
* Cardinality guard: at most ``max_nodes`` distinct node ids are
  admitted; later node ids are stamped with the ``OVERFLOW_NODE``
  sentinel and counted in ``dropped_nodes`` so a runaway number of
  nodes cannot explode the registry.
* The label rides every snapshot: ``repro obs report`` on a run's event
  log prints each scoped series as ``name{node=...}``, and resilience
  events emitted under a scope carry the same ``node`` field.

Deliberately dependency-free (stdlib only), like the registry.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Iterator, Optional

__all__ = [
    "NODE_LABEL",
    "OVERFLOW_NODE",
    "NOOP",
    "node_scope",
    "current_node",
    "attribution_node",
    "reset",
]

#: Label key stamped onto metrics created inside a scope.
NODE_LABEL = "node"

#: Sentinel node label used once ``max_nodes`` distinct ids were seen.
OVERFLOW_NODE = "__overflow__"

DEFAULT_MAX_NODES = 256

#: True while at least one ``node_scope`` is open anywhere.  The
#: registry reads this attribute on every metric creation; keeping it a
#: plain module global keeps the unscoped path to a single read.
active: bool = False

#: Cardinality cap on distinct node labels.
max_nodes: int = DEFAULT_MAX_NODES

#: Attribution attempts that hit the cap and were stamped ``OVERFLOW_NODE``.
dropped_nodes: int = 0

#: Shared reentrant no-op for call sites that scope conditionally
#: (e.g. ChordNode methods when obs is disabled).
NOOP = nullcontext()

_NODE: ContextVar[Optional[str]] = ContextVar("repro_node_scope", default=None)
_depth: int = 0
_seen: set = set()


@contextmanager
def node_scope(node_id: Any) -> Iterator[None]:
    """Attribute metrics emitted in this block to ``node_id``.

    Scopes nest: the innermost node wins, and leaving a scope restores
    whatever was active before (contextvar token semantics), so a node
    handling an RPC on behalf of another node attributes its own work.
    """
    global active, _depth
    token = _NODE.set(str(node_id))
    _depth += 1
    active = True
    try:
        yield
    finally:
        _depth -= 1
        if _depth <= 0:
            _depth = 0
            active = False
        _NODE.reset(token)


def current_node() -> Optional[str]:
    """The node id of the innermost open scope, or ``None``."""
    return _NODE.get()


def attribution_node() -> Optional[str]:
    """The node label to stamp, run through the cardinality guard.

    Returns ``None`` outside any scope, the scope's node id while under
    the ``max_nodes`` cap, and ``OVERFLOW_NODE`` (counting the drop in
    ``dropped_nodes``) once the cap is reached, instead of growing
    without bound.
    """
    global dropped_nodes
    node = _NODE.get()
    if node is None:
        return None
    if node in _seen:
        return node
    if len(_seen) >= max_nodes:
        dropped_nodes += 1
        return OVERFLOW_NODE
    _seen.add(node)
    return node


def reset(max_nodes_cap: Optional[int] = None) -> None:
    """Forget seen nodes and the drop count (test isolation / reuse).

    ``max_nodes_cap`` optionally re-points the cardinality cap; omitted,
    the default cap is restored.
    """
    global dropped_nodes, max_nodes
    _seen.clear()
    dropped_nodes = 0
    max_nodes = DEFAULT_MAX_NODES if max_nodes_cap is None else int(max_nodes_cap)
