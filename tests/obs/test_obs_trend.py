"""Multi-run bench history loading and trend regression flagging."""

import json

import pytest

from repro.obs.bench import (
    bench_trend,
    load_bench_history,
    render_bench_trend,
    write_bench_json,
)


def _row(p95, *, name="multi_optimized", history_size=100_000):
    return {
        "name": name,
        "params": {"history_size": history_size},
        "stats": {"mean_s": p95 * 0.9, "min_s": p95 * 0.8, "p95_s": p95, "repeats": 3},
    }


def _history_dir(tmp_path, p95s, *, bench="fig9"):
    """Write one timestamped BENCH file per p95 value; returns the dir."""
    for i, p95 in enumerate(p95s):
        write_bench_json(
            tmp_path / f"BENCH_{bench}_{i:03d}.json",
            bench,
            [_row(p95)],
            meta={"timestamp": 1_000_000.0 + i, "git_rev": f"rev{i}"},
        )
    return tmp_path


class TestLoadBenchHistory:
    def test_orders_by_meta_timestamp(self, tmp_path):
        # write newest first so filename order disagrees with timestamps
        write_bench_json(
            tmp_path / "BENCH_a.json", "fig9", [_row(0.3)], meta={"timestamp": 200.0}
        )
        write_bench_json(
            tmp_path / "BENCH_b.json", "fig9", [_row(0.1)], meta={"timestamp": 100.0}
        )
        history = load_bench_history(tmp_path)
        assert [p["_source"] for p in history] == ["BENCH_b.json", "BENCH_a.json"]

    def test_skips_invalid_artifacts_and_counts_them(self, tmp_path):
        _history_dir(tmp_path, [0.3, 0.31])
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        (tmp_path / "BENCH_badschema.json").write_text(json.dumps({"bench": "x"}))
        history = load_bench_history(tmp_path)
        assert len(history) == 2
        assert history[0]["_skipped"] == 2

    def test_bench_filter(self, tmp_path):
        _history_dir(tmp_path, [0.3])
        write_bench_json(tmp_path / "BENCH_other.json", "other", [_row(0.5)])
        assert len(load_bench_history(tmp_path, bench="fig9")) == 1
        assert len(load_bench_history(tmp_path)) == 2

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_bench_history(tmp_path / "absent")

    def test_non_bench_files_ignored(self, tmp_path):
        _history_dir(tmp_path, [0.3])
        (tmp_path / "PROFILE_fig9.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("hi")
        assert len(load_bench_history(tmp_path)) == 1


class TestBenchTrend:
    def test_stable_history_is_ok(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.31, 0.29, 0.30]))
        trend = bench_trend(history)
        assert trend["ok"]
        assert trend["runs"] == 4
        (series,) = trend["series"]
        assert series["stat"] == "p95_s"
        assert len(series["points"]) == 4
        assert not series["regressed"]

    def test_injected_2x_p95_regression_is_flagged(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.31, 0.29, 0.60]))
        trend = bench_trend(history)
        assert not trend["ok"]
        (flagged,) = trend["regressions"]
        assert flagged["name"] == "multi_optimized"
        assert flagged["baseline_median"] == pytest.approx(0.30)
        assert flagged["ratio"] == pytest.approx(2.0)

    def test_latest_compared_to_median_not_to_worst_run(self, tmp_path):
        # one noisy historical outlier must not mask the comparison
        history = load_bench_history(_history_dir(tmp_path, [0.30, 5.0, 0.30, 0.33]))
        trend = bench_trend(history)
        (series,) = trend["series"]
        assert series["baseline_median"] == pytest.approx(0.30)
        assert trend["ok"]  # 0.33/0.30 = 1.1x, under the 20% gate

    def test_single_run_never_regresses(self, tmp_path):
        trend = bench_trend(load_bench_history(_history_dir(tmp_path, [0.30])))
        assert trend["ok"]
        (series,) = trend["series"]
        assert series["baseline_median"] is None
        assert series["ratio"] is None

    def test_zero_to_zero_is_unchanged(self, tmp_path):
        trend = bench_trend(load_bench_history(_history_dir(tmp_path, [0.0, 0.0])))
        assert trend["ok"]
        (series,) = trend["series"]
        assert series["ratio"] == 1.0

    def test_zero_to_positive_is_infinite_regression(self, tmp_path):
        trend = bench_trend(load_bench_history(_history_dir(tmp_path, [0.0, 0.0, 0.2])))
        assert not trend["ok"]
        (flagged,) = trend["regressions"]
        assert flagged["ratio"] == float("inf")

    def test_empty_history(self):
        trend = bench_trend([])
        assert trend["ok"]
        assert trend["runs"] == 0
        assert trend["series"] == []

    def test_custom_gate_threshold(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.30, 0.36]))
        assert bench_trend(history, max_regression=0.25)["ok"]
        assert not bench_trend(history, max_regression=0.10)["ok"]

    def test_negative_gate_rejected(self):
        with pytest.raises(ValueError):
            bench_trend([], max_regression=-0.1)

    def test_series_split_by_name_and_params(self, tmp_path):
        for i in range(2):
            write_bench_json(
                tmp_path / f"BENCH_run{i}.json",
                "fig9",
                [
                    _row(0.3),
                    _row(0.1, name="naive"),
                    _row(0.5, history_size=200_000),
                ],
                meta={"timestamp": 100.0 + i},
            )
        trend = bench_trend(load_bench_history(tmp_path))
        assert len(trend["series"]) == 3
        assert all(len(s["points"]) == 2 for s in trend["series"])


class TestTrendTolerance:
    """Schema drift must degrade to flags and counts, never KeyError."""

    def test_invalid_payload_in_list_is_skipped_and_counted(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.31]))
        history.insert(1, {"bench": "fig9"})  # fails schema validation
        trend = bench_trend(history)
        assert trend["invalid_payloads"] == 1
        assert trend["ok"]
        (series,) = trend["series"]
        assert len(series["points"]) == 2

    def test_malformed_rows_are_skipped_and_counted(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.31]))
        # passes base validation (mean_s/min_s/repeats numeric) but the
        # preferred gate stat p95_s is junk
        history[0]["results"].append(
            {
                "name": "weird",
                "params": {},
                "stats": {"mean_s": 0.1, "min_s": 0.1, "repeats": 1, "p95_s": "oops"},
            }
        )
        trend = bench_trend(history)
        assert trend["malformed_rows"] == 1
        assert trend["ok"]

    def test_series_missing_from_latest_run_is_stale_not_gating(self, tmp_path):
        """A metric family dropped (or newly added) mid-history is flagged.

        The retired series' last point is 4x its median — under the old
        behavior that gated as a regression even though the latest run
        no longer measures it at all.
        """
        write_bench_json(
            tmp_path / "BENCH_run0.json",
            "fig9",
            [_row(0.30), _row(0.10, name="retired")],
            meta={"timestamp": 100.0},
        )
        write_bench_json(
            tmp_path / "BENCH_run1.json",
            "fig9",
            [_row(0.31), _row(0.40, name="retired")],
            meta={"timestamp": 101.0},
        )
        write_bench_json(
            tmp_path / "BENCH_run2.json",
            "fig9",
            [_row(0.30)],  # 'retired' family gone
            meta={"timestamp": 102.0},
        )
        trend = bench_trend(load_bench_history(tmp_path))
        by_name = {s["name"]: s for s in trend["series"]}
        assert by_name["retired"]["stale"]
        assert by_name["retired"]["missing_runs"] == 1
        assert not by_name["retired"]["regressed"]
        assert not by_name["multi_optimized"]["stale"]
        assert trend["ok"]
        assert [s["name"] for s in trend["stale"]] == ["retired"]

    def test_new_family_joining_late_is_fresh(self, tmp_path):
        """A family that first appears in the newest run is not stale."""
        write_bench_json(
            tmp_path / "BENCH_run0.json",
            "fig9",
            [_row(0.30)],
            meta={"timestamp": 100.0},
        )
        write_bench_json(
            tmp_path / "BENCH_run1.json",
            "slo",
            [_row(0.1, name="slo.serve.latency.assess")],
            meta={"timestamp": 101.0},
        )
        trend = bench_trend(load_bench_history(tmp_path))
        by_name = {s["name"]: s for s in trend["series"]}
        assert not by_name["slo.serve.latency.assess"]["stale"]
        # the fig9 series is absent from the newest (slo) run — stale
        assert by_name["multi_optimized"]["stale"]

    def test_stale_rendering(self, tmp_path):
        write_bench_json(
            tmp_path / "BENCH_run0.json",
            "fig9",
            [_row(0.30), _row(0.10, name="retired")],
            meta={"timestamp": 100.0},
        )
        write_bench_json(
            tmp_path / "BENCH_run1.json",
            "fig9",
            [_row(0.31)],
            meta={"timestamp": 101.0},
        )
        text = render_bench_trend(bench_trend(load_bench_history(tmp_path)))
        assert "STALE(-1)" in text
        assert "1 series missing from the latest run(s)" in text
        assert "OK: no series regressed past the gate" in text


class TestRenderBenchTrend:
    def test_report_shape(self, tmp_path):
        history = load_bench_history(_history_dir(tmp_path, [0.30, 0.31, 0.60]))
        text = render_bench_trend(bench_trend(history))
        assert "bench trend: 3 run(s)" in text
        assert "fig9/multi_optimized{history_size=100000}" in text
        assert "REGRESSED" in text
        assert "FAIL: 1 series regressed past 20%" in text

    def test_ok_report_and_skip_warning(self, tmp_path):
        _history_dir(tmp_path, [0.30, 0.31])
        (tmp_path / "BENCH_bad.json").write_text("nope")
        text = render_bench_trend(bench_trend(load_bench_history(tmp_path)))
        assert "warning: 1 invalid artifact(s) skipped" in text
        assert "OK: no series regressed past the gate" in text

    def test_empty_series_report(self):
        assert "(no series found)" in render_bench_trend(bench_trend([]))
