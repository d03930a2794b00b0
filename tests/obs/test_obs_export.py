"""Exporter output format: the aligned text listing."""

import re

from repro import obs


def _populated_registry() -> obs.MetricsRegistry:
    reg = obs.MetricsRegistry()
    reg.inc("core.calibration.cache_hits", 7)
    reg.inc("p2p.network.messages", 3, type="lookup")
    reg.set("simulation.totals.steps", 50)
    for v in (0.01, 0.02, 0.04):
        reg.observe("core.testing.seconds", v)
    return reg


class TestTextExporter:
    def test_contains_every_metric_line(self):
        text = obs.render_text(_populated_registry())
        assert "core.calibration.cache_hits" in text
        assert "p2p.network.messages{type=lookup}  3" in text
        assert "simulation.totals.steps" in text
        assert re.search(r"core\.testing\.seconds\s+count=3", text)
        assert "p95=" in text and "mean=" in text

    def test_empty_registry(self):
        assert "no metrics" in obs.render_text(obs.MetricsRegistry())
