"""Smoke + shape tests for the figure runners (quick mode).

These assert the *qualitative* claims each figure makes, on reduced
sweeps so the whole module stays fast.  Full-size sweeps live in
``benchmarks/``.
"""

import numpy as np
import pytest

from repro.experiments import RUNNERS, run_fig3, run_fig4, run_fig7, run_fig8, run_fig9


class TestRegistry:
    def test_all_figures_registered(self):
        figures = {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
        extensions = {
            "ext-roc",
            "ext-cheat-rate",
            "ext-sybil",
            "ext-matrix",
            "p2p_scale",
            "serve",
            "ingest",
            "cluster",
        }
        assert set(RUNNERS) == figures | extensions


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(prep_sizes=(100, 400, 800), n_seeds=2, base_seed=7)

    def test_columns(self, result):
        assert result.columns == ["prep_size", "none", "scheme1", "scheme2"]

    def test_bare_average_free_at_long_preps(self, result):
        costs = dict(zip(result.column("prep_size"), result.column("none")))
        assert costs[400] == 0.0
        assert costs[800] == 0.0
        assert costs[100] > 50

    def test_schemes_impose_cost_at_long_preps(self, result):
        rows = {r["prep_size"]: r for r in result.rows}
        assert rows[800]["scheme1"] > rows[800]["none"]
        assert rows[800]["scheme2"] > rows[800]["none"]

    def test_scheme2_at_least_scheme1_at_long_preps(self, result):
        rows = {r["prep_size"]: r for r in result.rows}
        assert rows[800]["scheme2"] >= rows[800]["scheme1"]


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(prep_sizes=(100, 800), n_seeds=2, base_seed=7)

    def test_bare_weighted_cost_flat_and_positive(self, result):
        costs = result.column("none")
        # ~2-3 goods per bad * 20 bads, independent of prep size
        assert all(40 <= c <= 75 for c in costs)
        assert abs(costs[0] - costs[-1]) <= 15

    def test_schemes_do_not_reduce_cost(self, result):
        for row in result.rows:
            assert row["scheme2"] >= row["none"] - 5


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(attack_windows=(10, 40, 80), trials=60, base_seed=7)

    def test_detection_decreases_with_window_size(self, result):
        rates = result.column("single_detection_rate")
        assert rates[0] > rates[-1]

    def test_small_window_nearly_always_detected(self, result):
        assert result.column("single_detection_rate")[0] >= 0.9

    def test_multi_at_least_as_sensitive(self, result):
        singles = result.column("single_detection_rate")
        multis = result.column("multi_detection_rate")
        assert all(m >= s - 0.1 for s, m in zip(singles, multis))

    def test_rates_are_probabilities(self, result):
        for col in ("single_detection_rate", "multi_detection_rate"):
            assert all(0.0 <= r <= 1.0 for r in result.column(col))


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(
            history_sizes=(100, 400, 1600), calibration_sets=800, base_seed=7
        )

    def test_epsilon_decreases_with_history(self, result):
        for column in ("epsilon_p0.95", "epsilon_p0.90"):
            eps = result.column(column)
            assert eps[0] > eps[1] > eps[2]

    def test_epsilon_positive(self, result):
        assert all(e > 0 for e in result.column("epsilon_p0.95"))

    def test_convergence_rate_roughly_sqrt(self, result):
        # quadrupling the history should roughly halve epsilon
        eps = result.column("epsilon_p0.95")
        assert eps[1] / eps[0] == pytest.approx(0.5, abs=0.2)

    def test_rejects_too_small_history(self):
        with pytest.raises(ValueError):
            run_fig8(history_sizes=(5,))


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(
            history_sizes=(20_000, 80_000),
            naive_sizes=(20_000,),
            repeats=1,
            base_seed=7,
        )

    def test_columns_and_rows(self, result):
        assert result.columns == [
            "history_size",
            "single_s",
            "multi_optimized_s",
            "multi_naive_s",
        ]
        assert len(result.rows) == 2

    def test_single_test_is_fast(self, result):
        assert all(t < 1.0 for t in result.column("single_s"))

    def test_naive_only_timed_where_requested(self, result):
        rows = {r["history_size"]: r for r in result.rows}
        assert not np.isnan(rows[20_000]["multi_naive_s"])
        assert np.isnan(rows[80_000]["multi_naive_s"])

    def test_optimized_scales_subquadratically(self, result):
        times = dict(zip(result.column("history_size"), result.column("multi_optimized_s")))
        # 4x history should cost far less than 16x time
        assert times[80_000] < times[20_000] * 12


class TestQuickMode:
    @pytest.mark.parametrize("name", ["fig5", "fig6"])
    def test_collusion_runners_smoke(self, name):
        result = RUNNERS[name](
            prep_sizes=(100,), n_seeds=1, base_seed=7
        )
        assert result.columns == ["prep_size", "none", "scheme1", "scheme2"]
        row = result.rows[0]
        assert row["none"] == 0.0  # colluders make the bare function free
        assert row["scheme2"] > 0.0


class TestAuditIntegration:
    """``audit_path=`` runs write valid JSONL whose counts match the tables."""

    def test_fig7_audit_breakdown_matches_table_counters(self, tmp_path):
        from repro.experiments import run_fig5
        from repro.obs import audit

        path = tmp_path / "AUDIT_fig7.jsonl"
        result = run_fig7(
            attack_windows=(10, 40),
            trials=20,
            base_seed=7,
            audit_path=str(path),
        )
        records = audit.read_audit_jsonl(path)
        assert len(records) == 2 * 2 * 20  # windows x tests x trials
        by_key = {}
        for record in records:
            key = (record["context"]["adversary"], record["test"])
            entry = by_key.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += not record["passed"]
        rates = dict(zip(result.column("attack_window"), zip(
            result.column("single_detection_rate"),
            result.column("multi_detection_rate"),
        )))
        for window in (10, 40):
            single_rate, multi_rate = rates[window]
            tests, hits = by_key[(f"periodic-w{window}", "single")]
            assert tests == 20 and hits / tests == single_rate
            tests, hits = by_key[(f"periodic-w{window}", "multi")]
            assert tests == 20 and hits / tests == multi_rate
        # the notes carry the same breakdown
        assert "audit[periodic-w10/single]" in result.notes

    def test_fig5_audit_notes_and_valid_records(self, tmp_path):
        from repro.experiments import run_fig5
        from repro.obs import audit

        path = tmp_path / "AUDIT_fig5.jsonl"
        result = run_fig5(
            prep_sizes=(100,), n_seeds=1, base_seed=7, audit_path=str(path)
        )
        records = audit.read_audit_jsonl(path)
        assert records, "sampled look-ahead auditing produced no records"
        schemes = {r["context"]["scheme"] for r in records}
        assert schemes <= {"scheme1", "scheme2"}
        assert "audit[" in result.notes


class TestFig7Artifacts:
    """``bench_path=``/``events_path=`` runs leave schema-valid artifacts."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro import obs

        tmp_path = tmp_path_factory.mktemp("fig7")
        bench = tmp_path / "BENCH_fig7.json"
        events = tmp_path / "EVENTS_fig7.jsonl"
        result = run_fig7(
            attack_windows=(10, 40),
            trials=20,
            base_seed=7,
            bench_path=str(bench),
            events_path=str(events),
        )
        return result, obs.read_bench_json(bench), obs.read_events(events)

    def test_bench_is_schema_valid_with_timing_stats(self, artifacts):
        _, payload, _ = artifacts
        assert payload["bench"] == "fig7"
        assert len(payload["results"]) == 4  # 2 windows x 2 tests
        for row in payload["results"]:
            assert row["name"] in ("single", "multi")
            assert row["stats"]["repeats"] == 20
            assert 0 < row["stats"]["min_s"] <= row["stats"]["p95_s"]

    def test_bench_detection_rates_match_table(self, artifacts):
        result, payload, _ = artifacts
        table = {
            (test, w): r
            for w, r in zip(
                result.column("attack_window"),
                zip(
                    result.column("single_detection_rate"),
                    result.column("multi_detection_rate"),
                ),
            )
            for test, r in zip(("single", "multi"), r)
        }
        for row in payload["results"]:
            key = (row["name"], row["params"]["attack_window"])
            assert row["stats"]["detection_rate"] == table[key]

    def test_bench_meta_carries_provenance(self, artifacts):
        _, payload, _ = artifacts
        assert payload["meta"]["experiment"] == "fig7"
        assert payload["meta"]["seed"] == 7

    def test_events_stream_progress(self, artifacts):
        _, _, events = artifacts
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "progress_start" in kinds and "progress_end" in kinds
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats, "no heartbeats emitted"
        assert beats[-1]["done"] == 2 * 20
        assert beats[-1]["pct"] == 100.0
        assert beats[-1]["counts"]["tests"] == 2 * 2 * 20

    def test_events_include_metrics_snapshot(self, artifacts):
        _, _, events = artifacts
        (metrics,) = [e for e in events if e["event"] == "metrics"]
        assert "experiments.fig7.test_seconds" in metrics["metrics"]


class TestP2pScale:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro import obs
        from repro.experiments import run_p2p_scale

        tmp_path = tmp_path_factory.mktemp("p2p_scale")
        bench = tmp_path / "BENCH_p2p_scale.json"
        events = tmp_path / "EVENTS_p2p_scale.jsonl"
        result = run_p2p_scale(
            quick=True,
            base_seed=7,
            bench_path=str(bench),
            events_path=str(events),
        )
        return result, obs.read_bench_json(bench), obs.read_events(events)

    def test_columns_and_rows(self, artifacts):
        result, _, _ = artifacts
        assert result.columns == [
            "n_nodes",
            "chord_mean_hops",
            "chord_lookup_s",
            "gossip_rounds",
            "gossip_round_s",
        ]
        assert result.column("n_nodes") == [8, 16]

    def test_lookup_hops_logarithmic(self, artifacts):
        result, _, _ = artifacts
        for n, hops in zip(result.column("n_nodes"), result.column("chord_mean_hops")):
            assert 0 <= hops <= 2 * np.log2(n) + 1

    def test_gossip_converges(self, artifacts):
        result, _, _ = artifacts
        assert all(0 < r < 200 for r in result.column("gossip_rounds"))

    def test_bench_is_schema_valid(self, artifacts):
        _, payload, _ = artifacts
        assert payload["bench"] == "p2p_scale"
        names = {(r["name"], r["params"]["n_nodes"]) for r in payload["results"]}
        assert names == {
            ("chord_lookup", 8),
            ("chord_lookup", 16),
            ("gossip_round", 8),
            ("gossip_round", 16),
        }
        for row in payload["results"]:
            assert row["stats"]["min_s"] > 0
            if row["name"] == "chord_lookup":
                assert row["stats"]["mean_hops"] >= 0
            else:
                assert row["stats"]["rounds"] > 0

    def test_events_stream_progress(self, artifacts):
        _, _, events = artifacts
        kinds = [e["event"] for e in events]
        assert "progress_start" in kinds and "progress_end" in kinds
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats[-1]["counts"]["gossip_rounds"] > 0

    def test_registered_runner_accepts_quick(self):
        from repro.experiments import RUNNERS

        assert RUNNERS["p2p_scale"].__name__ == "run_p2p_scale"


class TestFig9Profile:
    def test_profile_artifact_and_folded_sibling(self, tmp_path):
        from repro import obs

        profile_path = tmp_path / "PROFILE_fig9.json"
        run_fig9(
            history_sizes=(5_000,),
            naive_sizes=(),
            repeats=1,
            base_seed=7,
            profile_path=str(profile_path),
        )
        payload = obs.read_profile_json(profile_path)
        assert payload["profile"] == "fig9"
        assert payload["meta"]["experiment"] == "fig9"
        paths = [p["path"] for p in payload["phases"]]
        assert "experiments.fig9.run" in paths
        assert any(p.endswith("experiments.fig9.measure") for p in paths)
        folded = obs.folded_path_for(profile_path)
        assert folded.exists()
        assert "experiments.fig9.run" in folded.read_text()

    def test_profile_self_time_is_the_tracer_records_self_time(self, tmp_path):
        """Each phase's ``self_s`` is duration minus direct children's
        durations, summed over the tracer records of that phase path."""
        from repro import obs

        profile_path = tmp_path / "PROFILE_fig9.json"
        with obs.activate() as session:  # fig9 rides the ambient tracer
            run_fig9(
                history_sizes=(5_000,),
                naive_sizes=(),
                repeats=1,
                base_seed=7,
                profile_path=str(profile_path),
            )
        records = session.tracer.finished
        by_id = {r.span_id: r for r in records}

        def path_of(record):
            parent = by_id.get(record.parent_id)
            if parent is None:
                return record.name
            return f"{path_of(parent)};{record.name}"

        expected = {}
        for record in records:
            children = sum(
                c.duration for c in records if c.parent_id == record.span_id
            )
            path = path_of(record)
            expected[path] = expected.get(path, 0.0) + max(
                record.duration - children, 0.0
            )
        phases = obs.read_profile_json(profile_path)["phases"]
        assert {p["path"] for p in phases} == set(expected)
        for phase in phases:
            assert phase["self_s"] == pytest.approx(expected[phase["path"]])
