"""Fixtures for the observability tests: always leave obs disabled."""

from __future__ import annotations

import pytest

from repro.obs import audit, runtime, scope


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    """Guarantee test isolation: obs globals restored after every test."""
    saved = (runtime.enabled, runtime.registry, runtime.tracer)
    saved_sink = runtime.span_sink
    saved_audit = (audit.enabled, audit.trail)
    saved_scope_cap = scope.max_nodes
    yield
    runtime.enabled, runtime.registry, runtime.tracer = saved
    runtime.span_sink = saved_sink
    audit.enabled, audit.trail = saved_audit
    # node-scope attribution state (seen-node set, overflow counter, and
    # the active flag itself) is process-global like the runtime flags
    scope.reset(max_nodes_cap=saved_scope_cap)
