"""The BENCH_*.json artifact format: write, validate, read, render."""

import json

import pytest

from repro import obs

GOOD_ROW = {
    "name": "multi_optimized",
    "params": {"history_size": 1000},
    "stats": {"mean_s": 0.5, "min_s": 0.4, "repeats": 3},
}


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        payload = obs.write_bench_json(
            path, "x", [GOOD_ROW], meta={"seed": 1, "git_rev": "abc"}
        )
        assert payload["schema_version"] == obs.BENCH_SCHEMA_VERSION
        loaded = obs.read_bench_json(path)
        assert loaded == json.loads(path.read_text())
        assert loaded["results"][0]["stats"]["min_s"] == 0.4
        assert loaded["meta"]["seed"] == 1

    def test_render_bench_table(self):
        payload = obs.bench_payload("x", [GOOD_ROW], meta={"seed": 1})
        table = obs.render_bench(payload)
        assert "multi_optimized" in table
        assert "history_size" in table
        assert "seed=1" in table


class TestValidator:
    def test_accepts_good_payload(self):
        obs.validate_bench_payload(obs.bench_payload("x", [GOOD_ROW]))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.pop("results"), "missing key"),
            (lambda p: p.update(results=[]), "non-empty"),
            (lambda p: p.update(schema_version=99), "schema_version"),
            (lambda p: p.update(bench=""), "bench"),
            (lambda p: p.update(meta=[]), "meta"),
            (lambda p: p["results"][0].pop("name"), "name"),
            (lambda p: p["results"][0].update(params="x"), "params"),
            (lambda p: p["results"][0]["stats"].pop("min_s"), "min_s"),
            (
                lambda p: p["results"][0]["stats"].update(mean_s="fast"),
                "mean_s",
            ),
            (
                lambda p: p["results"][0]["stats"].update(repeats=True),
                "repeats",
            ),
        ],
    )
    def test_rejects_malformed(self, mutate, message):
        payload = {
            "bench": "x",
            "schema_version": obs.BENCH_SCHEMA_VERSION,
            "meta": {},
            "results": [json.loads(json.dumps(GOOD_ROW))],
        }
        mutate(payload)
        with pytest.raises(ValueError, match=message):
            obs.validate_bench_payload(payload)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            obs.validate_bench_payload([1, 2])

    def test_extra_keys_tolerated(self):
        payload = obs.bench_payload("x", [dict(GOOD_ROW, extra="fine")])
        obs.validate_bench_payload(payload)


def _payload(rows):
    return obs.bench_payload("fig9", [json.loads(json.dumps(r)) for r in rows])


def _row(name, params, **stats):
    return {"name": name, "params": params, "stats": stats}


class TestCompare:
    BASE = [
        _row("single", {"history_size": 1000}, mean_s=0.10, min_s=0.09, p95_s=0.12, repeats=3),
        _row("multi", {"history_size": 1000}, mean_s=0.50, min_s=0.45, p95_s=0.60, repeats=3),
    ]

    def test_identical_payloads_pass(self):
        diff = obs.compare_bench_payloads(_payload(self.BASE), _payload(self.BASE))
        assert diff["ok"]
        assert not diff["regressions"]
        assert all(row["ratio"] == pytest.approx(1.0) for row in diff["rows"])

    def test_regression_past_gate_fails(self):
        slow = [
            _row("single", {"history_size": 1000}, mean_s=0.10, min_s=0.09, p95_s=0.12, repeats=3),
            _row("multi", {"history_size": 1000}, mean_s=0.80, min_s=0.70, p95_s=0.95, repeats=3),
        ]
        diff = obs.compare_bench_payloads(_payload(self.BASE), _payload(slow))
        assert not diff["ok"]
        (bad,) = diff["regressions"]
        assert bad["name"] == "multi"
        assert bad["ratio"] == pytest.approx(0.95 / 0.60)

    def test_gate_is_configurable(self):
        slower = [
            _row("single", {"history_size": 1000}, mean_s=0.10, min_s=0.09, p95_s=0.13, repeats=3),
            _row("multi", {"history_size": 1000}, mean_s=0.50, min_s=0.45, p95_s=0.65, repeats=3),
        ]
        lenient = obs.compare_bench_payloads(_payload(self.BASE), _payload(slower))
        assert lenient["ok"]  # ~8% slower passes the default 20% gate
        strict = obs.compare_bench_payloads(
            _payload(self.BASE), _payload(slower), max_regression=0.05
        )
        assert not strict["ok"]

    def test_prefers_p95_falls_back_to_mean(self):
        with_p95 = obs.compare_bench_payloads(_payload(self.BASE), _payload(self.BASE))
        assert all(row["stat"] == "p95_s" for row in with_p95["rows"])
        no_p95 = [
            _row("single", {"history_size": 1000}, mean_s=0.10, min_s=0.09, repeats=3),
        ]
        diff = obs.compare_bench_payloads(_payload(no_p95), _payload(no_p95))
        assert all(row["stat"] == "mean_s" for row in diff["rows"])

    def test_zero_to_zero_is_unchanged(self):
        zero = [_row("single", {"history_size": 1000}, mean_s=0.0, min_s=0.0, repeats=3)]
        diff = obs.compare_bench_payloads(_payload(zero), _payload(zero))
        assert diff["ok"]
        (row,) = diff["rows"]
        assert row["ratio"] == 1.0

    def test_zero_to_positive_is_infinite_regression(self):
        zero = [_row("single", {"history_size": 1000}, mean_s=0.0, min_s=0.0, repeats=3)]
        some = [_row("single", {"history_size": 1000}, mean_s=0.01, min_s=0.0, repeats=3)]
        diff = obs.compare_bench_payloads(_payload(zero), _payload(some))
        assert not diff["ok"]
        (bad,) = diff["regressions"]
        assert bad["ratio"] == float("inf")

    def test_unmatched_rows_reported_not_fatal(self):
        extra = self.BASE + [
            _row("naive", {"history_size": 500}, mean_s=1.0, min_s=0.9, repeats=1),
        ]
        diff = obs.compare_bench_payloads(_payload(self.BASE), _payload(extra))
        assert diff["ok"]
        assert diff["only_in_candidate"] == [{"name": "naive", "params": {"history_size": 500}}]
        reverse = obs.compare_bench_payloads(_payload(extra), _payload(self.BASE))
        assert reverse["only_in_baseline"] == [{"name": "naive", "params": {"history_size": 500}}]

    def test_different_bench_names_rejected(self):
        other = obs.bench_payload("fig3", [json.loads(json.dumps(self.BASE[0]))])
        with pytest.raises(ValueError, match="different benches"):
            obs.compare_bench_payloads(_payload(self.BASE), other)

    def test_render_marks_regressions(self):
        slow = [
            _row("single", {"history_size": 1000}, mean_s=0.10, min_s=0.09, p95_s=0.30, repeats=3),
            _row("multi", {"history_size": 1000}, mean_s=0.50, min_s=0.45, p95_s=0.60, repeats=3),
        ]
        diff = obs.compare_bench_payloads(_payload(self.BASE), _payload(slow))
        text = obs.render_bench_diff(diff)
        assert "REGRESSED" in text
        assert "FAIL" in text
        ok_text = obs.render_bench_diff(
            obs.compare_bench_payloads(_payload(self.BASE), _payload(self.BASE))
        )
        assert "OK" in ok_text
