"""Node-scoped metric attribution: stamping, nesting, cardinality guard."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import scope
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_scope():
    scope.reset()
    yield
    scope.reset()


class TestNodeScope:
    def test_inactive_outside_any_scope(self):
        assert scope.active is False
        assert scope.current_node() is None
        assert scope.attribution_node() is None

    def test_active_inside_and_restored_after(self):
        with scope.node_scope("n1"):
            assert scope.active is True
            assert scope.current_node() == "n1"
        assert scope.active is False
        assert scope.current_node() is None

    def test_nesting_innermost_wins(self):
        with scope.node_scope("outer"):
            with scope.node_scope("inner"):
                assert scope.current_node() == "inner"
            # leaving the inner scope restores the outer attribution
            assert scope.current_node() == "outer"
            assert scope.active is True
        assert scope.active is False

    def test_node_id_coerced_to_str(self):
        with scope.node_scope(42):
            assert scope.current_node() == "42"

    def test_scope_survives_exception(self):
        with pytest.raises(RuntimeError):
            with scope.node_scope("n1"):
                raise RuntimeError("boom")
        assert scope.active is False
        assert scope.current_node() is None

    def test_exported_from_obs_package(self):
        assert obs.node_scope is scope.node_scope
        assert obs.current_node is scope.current_node


class TestRegistryStamping:
    def test_metrics_created_in_scope_get_node_label(self):
        registry = MetricsRegistry()
        with scope.node_scope("n1"):
            registry.inc("p2p.test.messages")
            registry.observe("p2p.test.latency", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["p2p.test.messages"][0]["labels"] == {"node": "n1"}
        assert snapshot["p2p.test.latency"][0]["labels"] == {"node": "n1"}

    def test_metrics_outside_scope_unstamped(self):
        registry = MetricsRegistry()
        registry.inc("p2p.test.messages")
        snapshot = registry.snapshot()
        assert snapshot["p2p.test.messages"][0]["labels"] == {}

    def test_explicit_node_label_not_overwritten(self):
        registry = MetricsRegistry()
        with scope.node_scope("ambient"):
            registry.inc("p2p.test.messages", node="explicit")
        snapshot = registry.snapshot()
        assert snapshot["p2p.test.messages"][0]["labels"] == {"node": "explicit"}

    def test_same_name_splits_per_node(self):
        registry = MetricsRegistry()
        for node, amount in (("a", 1), ("b", 2)):
            with scope.node_scope(node):
                registry.inc("p2p.test.messages", amount)
        assert registry.value("p2p.test.messages", node="a") == 1
        assert registry.value("p2p.test.messages", node="b") == 2


class TestCardinalityGuard:
    def test_overflow_sentinel_past_cap(self):
        scope.reset(max_nodes_cap=2)
        registry = MetricsRegistry()
        for node in ("a", "b", "c", "d"):
            with scope.node_scope(node):
                registry.inc("p2p.test.messages")
        assert registry.value("p2p.test.messages", node="a") == 1
        assert registry.value("p2p.test.messages", node="b") == 1
        # c and d collapse into the overflow sentinel series
        assert (
            registry.value("p2p.test.messages", node=scope.OVERFLOW_NODE) == 2
        )
        assert scope.dropped_nodes == 2

    def test_admitted_nodes_stay_admitted(self):
        scope.reset(max_nodes_cap=1)
        registry = MetricsRegistry()
        with scope.node_scope("a"):
            registry.inc("m")
        with scope.node_scope("b"):
            registry.inc("m")
        with scope.node_scope("a"):
            registry.inc("m")
        assert registry.value("m", node="a") == 2
        assert registry.value("m", node=scope.OVERFLOW_NODE) == 1

    def test_reset_restores_default_cap(self):
        scope.reset(max_nodes_cap=1)
        assert scope.max_nodes == 1
        scope.reset()
        assert scope.max_nodes == scope.DEFAULT_MAX_NODES
        assert scope.dropped_nodes == 0
