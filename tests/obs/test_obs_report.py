"""The phase table: where a span log's time went, per span path."""

import pytest

from repro import obs


def _span(span_id, parent, name, duration):
    return {
        "trace_id": "t" * 32,
        "span_id": span_id,
        "parent_span_id": parent,
        "name": name,
        "duration_s": duration,
    }


# root (10s) -> a (4s) -> leaf (1s)
#            -> b (3s)
#            -> a (2s)          a second visit to the same path
SPANS = [
    _span("leaf", "a1", "leaf", 1.0),
    _span("a1", "root", "a", 4.0),
    _span("b", "root", "b", 3.0),
    _span("a2", "root", "a", 2.0),
    _span("root", "outside", "root", 10.0),  # parent not in the log
]


class TestPhaseTable:
    @pytest.fixture()
    def by_path(self):
        return {row["path"]: row for row in obs.phase_table(SPANS)}

    def test_paths_join_names_along_the_parent_chain(self, by_path):
        assert set(by_path) == {"root", "root;a", "root;a;leaf", "root;b"}

    def test_self_time_is_duration_minus_direct_children(self, by_path):
        assert by_path["root"]["self_s"] == pytest.approx(10.0 - 4.0 - 3.0 - 2.0)
        assert by_path["root;a"]["self_s"] == pytest.approx((4.0 - 1.0) + 2.0)
        assert by_path["root;a;leaf"]["self_s"] == pytest.approx(1.0)
        assert by_path["root;b"]["self_s"] == pytest.approx(3.0)

    def test_repeated_paths_sum_calls_and_wall_time(self, by_path):
        assert by_path["root;a"]["calls"] == 2
        assert by_path["root;a"]["wall_s"] == pytest.approx(6.0)
        assert by_path["root"]["calls"] == 1

    def test_self_times_sum_to_the_root(self):
        rows = obs.phase_table(SPANS)
        assert sum(r["self_s"] for r in rows) == pytest.approx(10.0)

    def test_tree_order_puts_children_under_parents(self):
        paths = [row["path"] for row in obs.phase_table(SPANS)]
        assert paths == ["root", "root;a", "root;a;leaf", "root;b"]

    def test_render_indents_by_depth(self):
        text = obs.render_phase_table(SPANS)
        assert text.splitlines()[0] == "phases: 5 spans"
        assert "\n    leaf " in text

    def test_parent_cycle_in_a_corrupt_log_terminates(self):
        cycle = [_span("x", "y", "x", 1.0), _span("y", "x", "y", 1.0)]
        assert len(obs.phase_table(cycle)) == 2

    def test_empty_log_renders_a_notice(self):
        assert "(no spans recorded)" in obs.render_phase_table([])
