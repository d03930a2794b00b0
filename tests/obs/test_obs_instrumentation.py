"""Instrumentation correctness: registry numbers match pipeline ground truth."""

import numpy as np
import pytest

from repro import obs
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest
from repro.core.testing import SingleBehaviorTest
from repro.core.two_phase import TwoPhaseAssessor
from repro.experiments.fig9_performance import run_fig9
from repro.feedback.history import TransactionHistory
from repro.p2p.network import SimulatedNetwork
from repro.simulation.engine import ReputationSimulation
from repro.simulation.server import HonestBehavior
from repro.trust.average import AverageTrust


class TestMultiTestingCounters:
    def test_optimized_run_reuses_suffix_stats(self):
        # multi_step < window_size: consecutive suffixes often share the
        # exact window set, plus every extension round carries over the
        # already-ingested windows — reuse must show up either way
        config = BehaviorTestConfig(window_size=10, multi_step=3)
        outcomes = generate_honest_outcomes(600, 0.95, seed=11)
        with obs.activate() as session:
            test = MultiBehaviorTest(config, strategy="optimized", collect_all=True)
            report = test.test(outcomes)
        reg = session.registry
        assert reg.value("core.multi_testing.suffix_reuse", strategy="optimized") > 0
        assert (
            reg.value("core.multi_testing.rounds", strategy="optimized")
            == report.n_rounds
        )
        assert reg.value("core.multi_testing.runs", strategy="optimized") == 1

    def test_default_step_still_reuses_window_stats(self):
        outcomes = generate_honest_outcomes(2000, 0.95, seed=11)
        with obs.activate() as session:
            MultiBehaviorTest(strategy="optimized", collect_all=True).test(outcomes)
        assert (
            session.registry.value(
                "core.multi_testing.suffix_reuse", strategy="optimized"
            )
            > 0
        )

    def test_naive_recomputes_every_round(self):
        config = BehaviorTestConfig(window_size=10, multi_step=50)
        outcomes = generate_honest_outcomes(1000, 0.95, seed=11)
        with obs.activate() as session:
            test = MultiBehaviorTest(config, strategy="naive", collect_all=True)
            report = test.test(outcomes)
        reg = session.registry
        # naive work = sum of windows over all rounds, far above one pass
        recomputed = reg.value(
            "core.multi_testing.suffix_recomputed", strategy="naive"
        )
        total_windows = 1000 // 10
        assert recomputed > total_windows
        assert reg.value("core.multi_testing.rounds", strategy="naive") == report.n_rounds

    def test_early_stop_counted(self):
        config = BehaviorTestConfig(window_size=10, multi_step=50)
        rng = np.random.default_rng(5)
        # honest prefix then a burst of failures: some suffix round fails
        outcomes = np.concatenate(
            [
                (rng.random(800) < 0.95).astype(np.int64),
                np.zeros(120, dtype=np.int64),
            ]
        )
        with obs.activate() as session:
            report = MultiBehaviorTest(config, strategy="optimized").test(outcomes)
        assert not report.passed
        assert (
            session.registry.value(
                "core.multi_testing.early_stops", strategy="optimized"
            )
            == 1
        )


class TestCalibrationCounters:
    def test_cache_hit_miss_mirrors_calibrator(self):
        calibrator = ThresholdCalibrator(n_sets=50)
        with obs.activate() as session:
            calibrator.threshold(10, 20, 0.95)  # miss
            calibrator.threshold(10, 20, 0.951)  # hit (same quantized p)
            calibrator.threshold(10, 30, 0.95)  # miss
        hits, misses = calibrator.cache_stats
        reg = session.registry
        assert reg.value("core.calibration.cache_hits") == hits == 1
        assert reg.value("core.calibration.cache_misses") == misses == 2
        hist = reg.histogram("core.calibration.seconds")
        assert hist.count == 2  # one timing per actual calibration
        assert hist.sum > 0


class TestTwoPhaseCounters:
    def _history(self, outcomes):
        return TransactionHistory.from_outcomes(np.asarray(outcomes, dtype=np.int64))

    def test_phase1_rejection_vs_phase2_assessment(self):
        config = BehaviorTestConfig(window_size=10, multi_step=50)
        honest = generate_honest_outcomes(600, 0.95, seed=3)
        rng = np.random.default_rng(4)
        dishonest = np.concatenate(
            [
                (rng.random(500) < 0.95).astype(np.int64),
                np.zeros(100, dtype=np.int64),
            ]
        )
        assessor = TwoPhaseAssessor(
            behavior_test=MultiBehaviorTest(config),
            trust_function=AverageTrust(),
            trust_threshold=0.9,
        )
        with obs.activate() as session:
            good = assessor.assess(self._history(honest))
            bad = assessor.assess(self._history(dishonest))
        assert good.status.value in ("trusted", "untrusted")
        assert bad.status.value == "suspicious"
        reg = session.registry
        assert reg.value("core.two_phase.assessments") == 2
        assert reg.value("core.two_phase.phase1_rejections") == 1
        assert reg.value("core.two_phase.phase2_assessments") == 1
        assert reg.value("core.two_phase.status", status="suspicious") == 1
        assert reg.total("core.two_phase.status") == 2

    def test_single_test_counter_and_distance_evals(self):
        honest = generate_honest_outcomes(400, 0.95, seed=9)
        with obs.activate() as session:
            SingleBehaviorTest().test(honest)
        reg = session.registry
        assert reg.value("core.testing.tests", test="single", result="pass") == 1
        assert reg.value("stats.distances.evaluations", distance="l1") >= 1


class TestSimulationBridge:
    def _run_simulation(self, steps=5):
        assessor = TwoPhaseAssessor(
            trust_function=AverageTrust(), trust_threshold=0.5
        )
        sim = ReputationSimulation(
            servers={"srv-a": HonestBehavior(0.95), "srv-b": HonestBehavior(0.6)},
            clients=[f"c{i}" for i in range(6)],
            assessor=assessor,
            bootstrap_transactions=3,
            seed=42,
        )
        sim.run(steps)
        return sim

    def test_registry_totals_equal_simulation_metrics(self):
        with obs.activate() as session:
            sim = self._run_simulation(steps=6)
        reg = session.registry
        metrics = sim.metrics
        summary = metrics.summary()
        assert reg.value("simulation.steps") == summary["steps"]
        assert reg.value("simulation.transactions") == summary["transactions"]
        assert reg.value("simulation.good_transactions") == metrics.total_good
        assert reg.value("simulation.requests") == sum(
            m.requests for m in metrics.per_server.values()
        )
        assert (
            reg.value("simulation.refusals", reason="suspicious")
            == summary["refusals_suspicious"]
        )
        assert (
            reg.value("simulation.refusals", reason="trust")
            == summary["refusals_trust"]
        )
        hist = reg.histogram("simulation.step_seconds")
        assert hist.count == summary["steps"]

    def test_assessments_counter_mirrors_metrics(self):
        with obs.activate() as session:
            sim = self._run_simulation(steps=6)
        assert sim.metrics.total_assessments > 0
        assert (
            session.registry.value("simulation.assessments")
            == sim.metrics.total_assessments
        )

    def test_run_advances_steps(self):
        sim = self._run_simulation(steps=3)
        assert sim.metrics.steps == 3

    def test_publish_bridges_totals_as_gauges(self):
        sim = self._run_simulation(steps=4)  # obs disabled during the run
        reg = obs.MetricsRegistry()
        sim.metrics.publish(reg)
        assert reg.value("simulation.totals.steps") == sim.metrics.summary()["steps"]
        assert (
            reg.value("simulation.totals.transactions")
            == sim.metrics.total_transactions
        )
        assert reg.value("simulation.totals.servers") == 2


class TestP2PCounters:
    def test_network_messages_and_drops_mirror_stats(self):
        net = SimulatedNetwork(drop_rate=0.5, seed=1)
        net.register("n1", lambda t, p: "ok")
        with obs.activate() as session:
            for _ in range(40):
                net.send("n1", "ping", {})
        reg = session.registry
        assert reg.value("p2p.network.messages", type="ping") == net.stats.messages == 40
        assert reg.value("p2p.network.drops", type="ping") == net.stats.drops > 0

    def test_gossip_rounds_counted(self):
        from repro.p2p.gossip import GossipAggregator

        agg = GossipAggregator([0.0, 1.0, 0.5, 0.25], seed=3)
        with obs.activate() as session:
            agg.run_round()
            agg.run_round()
        reg = session.registry
        assert reg.value("p2p.gossip.rounds") == 2
        assert reg.value("p2p.gossip.messages") == 2 * 2 * 2  # 2 rounds x 2 pairs x 2


class TestFig9ThroughObs:
    @pytest.fixture(scope="class")
    def fig9_session(self, tmp_path_factory):
        bench_path = tmp_path_factory.mktemp("bench") / "BENCH_fig9.json"
        with obs.activate() as session:
            result = run_fig9(
                history_sizes=(2_000,),
                naive_sizes=(2_000,),
                multi_step=500,
                quick=True,
                bench_path=str(bench_path),
            )
        return session, result, bench_path

    def test_bench_artifact_produced_and_valid(self, fig9_session):
        _, result, bench_path = fig9_session
        payload = obs.read_bench_json(bench_path)  # validates on read
        assert payload["bench"] == "fig9"
        names = {row["name"] for row in payload["results"]}
        assert names == {"single", "multi_optimized", "multi_naive"}
        for row in payload["results"]:
            assert row["params"]["history_size"] == 2_000
            assert row["stats"]["min_s"] > 0
            assert row["stats"]["mean_s"] >= row["stats"]["min_s"] - 1e-12
        assert payload["meta"]["seed"] == 2008
        assert payload["meta"]["config_hash"]
        # the table reports the same minima the artifact captured
        by_name = {row["name"]: row["stats"]["min_s"] for row in payload["results"]}
        assert result.rows[0]["single_s"] == pytest.approx(by_name["single"])

    def test_span_coverage_no_untraced_gaps(self, fig9_session):
        session, _, _ = fig9_session
        tracer = session.tracer
        (root,) = tracer.find("experiments.fig9.run")
        # acceptance criterion: the instrumented sweep explains >= 95% of
        # its own wall time through direct child spans
        assert tracer.coverage(root) >= 0.95
        child_names = {c.name for c in tracer.children(root)}
        assert "experiments.fig9.prepare" in child_names
        assert "experiments.fig9.measure" in child_names
        assert "experiments.fig9.export" in child_names

    def test_timer_histograms_match_schemes(self, fig9_session):
        session, _, _ = fig9_session
        reg = session.registry
        for scheme in ("single", "multi_optimized", "multi_naive"):
            hist = reg.histogram(
                "experiments.fig9.test_seconds", scheme=scheme, history_size=2_000
            )
            assert hist.count == 1  # quick mode: one repeat

    def test_disabled_run_leaves_ambient_registry_untouched(self):
        from repro.obs import runtime

        assert not runtime.enabled
        before = len(runtime.registry)
        run_fig9(
            history_sizes=(2_000,), naive_sizes=(), multi_step=500, quick=True
        )
        assert not runtime.enabled
        assert len(runtime.registry) == before
