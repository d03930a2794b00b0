"""The four benchmark workloads.

Each workload runs in one process with one closed-loop client: every
call into the program waits for the previous one, with no threads and
no pools (``executor="serial"`` wherever a service takes one).  Inputs
are generated from the seed alone; the program only ever sees them.

A workload runs *units* of work — a write+query round, a restart
cycle, a campaign sweep — until its deadline passes (or for a given
number of units), and returns a :class:`Measurement`: raw samples for
the end-to-end metrics plus counts read from the layers' public stats.
Output checks run after the timed phase and are counted in
``attempted`` / ``failed``.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.strategic import StrategicAttacker
from repro.cluster import ClusterAssessmentService
from repro.core.calibration import ThresholdCalibrator
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest
from repro.core.testing import SingleBehaviorTest
from repro.core.two_phase import Assessor
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.feedback.store import FeedbackBatch
from repro.obs.events import EventLog
from repro.p2p.network import SimulatedNetwork
from repro.resilience import runtime as resilience
from repro.serve import AssessmentService
from repro.trust.average import AverageTrust
from repro.trust.weighted import WeightedTrust

clock = time.perf_counter

#: iterations of the reference loop timed between samples
_PROBE_LOOP = 5000
#: the reference loop's time at the speed every time is reported at
#: (about what the loop takes on an uncontended 2-core Xeon VM)
PROBE_REFERENCE_S = 3.0e-4


def machine_probe() -> float:
    """Seconds one fixed pure-Python loop takes right now.

    Timed between samples, it tells how fast the machine ran around each
    sample: on a shared host the same work can take half again as long
    for seconds at a time, whatever the program does.
    """
    t0 = clock()
    acc = 0
    for i in range(_PROBE_LOOP):
        acc += i * i % 7
    return clock() - t0


@dataclass
class Measurement:
    """Raw samples of one workload run.

    Samples carry the epochs they span (``since``, ``until``); an epoch
    ends at every :meth:`mark`, which times the reference loop.  Every
    timing is reported at reference speed: multiplied by
    ``PROBE_REFERENCE_S`` over the reference-loop time around it.
    """

    #: (seconds, since, until) per set-up
    setup: List[Tuple[float, int, int]] = field(default_factory=list)
    #: (events, seconds of write-call time, since, until)
    ingest: List[Tuple[int, float, int, int]] = field(default_factory=list)
    #: (verdicts, seconds, since, until)
    verdicts: List[Tuple[int, float, int, int]] = field(default_factory=list)
    #: (milliseconds, since, until) per request
    queries: List[Tuple[float, int, int]] = field(default_factory=list)
    #: reference-loop seconds at every epoch border
    probes: List[float] = field(default_factory=lambda: [machine_probe()])
    attempted: int = 0
    failed: int = 0
    #: check name -> [checked, mismatched]
    checks: Dict[str, List[int]] = field(default_factory=dict)
    #: counts from the layers' public stats (per-layer metrics)
    counts: Counter = field(default_factory=Counter)
    units: int = 0
    #: wall time of the timed phases (setup excluded)
    measured_s: float = 0.0

    @property
    def epoch(self) -> int:
        return len(self.probes) - 1

    def mark(self) -> None:
        """End the current epoch: time the reference loop."""
        self.probes.append(machine_probe())

    def add_setup(self, seconds: float) -> None:
        self.setup.append((seconds, self.epoch, self.epoch))
        self.mark()

    def slowdown(self, since: int, until: int) -> float:
        """How much slower than reference speed the machine ran over the
        epochs ``since..until``: the reference-loop time at their borders
        (the lower of two, the median of more, so one interrupted loop
        does not count) over ``PROBE_REFERENCE_S``."""
        borders = self.probes[since : until + 2]
        probe = min(borders) if len(borders) <= 2 else statistics.median(borders)
        return probe / PROBE_REFERENCE_S

    def at_reference(self, samples, index: int) -> List[float]:
        """Field ``index`` (a time) of every sample, at reference speed."""
        return [s[index] / self.slowdown(s[-2], s[-1]) for s in samples]

    def rate(self, samples) -> float:
        """Work per second of (count, seconds, ...) samples, at reference speed."""
        seconds = sum(self.at_reference(samples, 1))
        return sum(s[0] for s in samples) / seconds if seconds > 0 else 0.0

    def check(self, name: str, checked: int, mismatched: int) -> None:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += checked
        entry[1] += mismatched
        self.attempted += checked
        self.failed += mismatched


def _rating(good) -> Rating:
    return Rating.POSITIVE if good else Rating.NEGATIVE


def _zipf_weights(rng: np.random.Generator, n: int, s: float = 0.8) -> np.ndarray:
    """Zipf-skewed popularity over ``n`` servers in a seeded random order."""
    ranks = rng.permutation(n)
    weights = 1.0 / (ranks + 1.0) ** s
    return weights / weights.sum()


def _round_ids(rng, servers, touched, count) -> List[str]:
    """The touched servers plus as many untouched ones, for one query."""
    skip = set(touched.tolist())
    others = [i for i in rng.choice(len(servers), size=2 * count, replace=False) if i not in skip]
    return [servers[i] for i in touched] + [servers[i] for i in others[:count]]


class Workload:
    name = ""
    why = ""
    #: the fixed tail percentile reported as query_tail_ms
    tail_pct = 90.0
    #: when set, a run is this many units per ``--seconds`` instead of a
    #: deadline: for workloads whose state grows unit by unit, so that
    #: every run of a seed does the same work
    units_per_second: Optional[float] = None

    def min_queries(self) -> int:
        """Query samples needed for >= 10 beyond the tail percentile."""
        return int(np.ceil(10 / (1 - self.tail_pct / 100.0))) + 1

    def run(
        self,
        seed: int,
        *,
        seconds: Optional[float] = None,
        units: Optional[int] = None,
        setups: int = 3,
        workdir: Path,
        before_check: Callable[[], None] = lambda: None,
    ) -> Measurement:
        """Set up, run the timed units, call ``before_check``, check."""
        raise NotImplementedError

    def _more(self, m: Measurement, start: float, seconds: float, units: Optional[int]) -> bool:
        """Closed-loop continuation rule: a unit count, or ``seconds`` and
        then enough query samples for the tail percentile (for at most
        half as long again)."""
        if units is not None:
            return m.units < units
        elapsed = clock() - start
        if self.units_per_second is not None:
            if m.units < seconds * self.units_per_second:
                return True
        elif elapsed < seconds:
            return True
        return elapsed < 1.5 * seconds and len(m.queries) < self.min_queries()


# ---------------------------------------------------------------------- #
# serve_steady


class ServeSteady(Workload):
    name = "serve_steady"
    why = (
        "warm single-node serving: incremental folds, suffix rounds, "
        "calibration hits and misses, and the assessment memo"
    )
    tail_pct = 95.0
    units_per_second = 100.0
    n_servers = 1500
    touched = 16

    def _build(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        n = self.n_servers
        lengths = rng.integers(120, 361, size=n)
        rates = 0.80 + 0.19 * rng.random(n)
        # one server in ten ends its history with a run of failures, so
        # both phase-1 outcomes occur in the population
        bursts = np.where(rng.random(n) < 0.1, rng.integers(8, 25, size=n), 0)
        ledger = FeedbackLedger(backend="memory")
        servers = [f"server-{i:05d}" for i in range(n)]
        for i, server in enumerate(servers):
            goods = rng.random(int(lengths[i])) < rates[i]
            if bursts[i]:
                goods[-int(bursts[i]):] = False
            clients = rng.integers(0, 500, size=goods.size)
            for j, good in enumerate(goods):
                ledger.record(
                    Feedback(
                        time=float(j),
                        server=server,
                        client=f"client-{clients[j]:03d}",
                        rating=_rating(good),
                    )
                )
        service = AssessmentService(
            config=AssessorConfig(), ledger=ledger, executor="serial"
        )
        service.assess_many()  # first sweep: calibrates and fills the memo
        clocks = lengths.astype(np.float64)
        return ledger, service, servers, rates, clocks

    def run(self, seed, *, seconds=None, units=None, setups=3, workdir, before_check=lambda: None):
        m = Measurement()
        state = None
        for _ in range(max(setups, 1)):
            state = None
            gc.collect()
            t0 = clock()
            state = self._build(seed)
            m.add_setup(clock() - t0)
        ledger, service, servers, rates, clocks = state
        rng = np.random.default_rng([seed, 2])
        weights = _zipf_weights(rng, self.n_servers)
        n = self.n_servers
        gc.collect()
        start = clock()
        m.mark()
        while self._more(m, start, seconds, units):
            touched = rng.choice(n, size=self.touched, replace=False, p=weights)
            batch: List[Feedback] = []
            for idx in touched:
                k = int(rng.integers(1, 8))
                goods = rng.random(k) < rates[idx]
                for good in goods:
                    clocks[idx] += 1.0
                    batch.append(
                        Feedback(
                            time=float(clocks[idx]),
                            server=servers[idx],
                            client=f"client-{int(rng.integers(0, 500)):03d}",
                            rating=_rating(good),
                        )
                    )
            ids = _round_ids(rng, servers, touched, self.touched)
            m.attempted += 2
            try:
                t0 = clock()
                folded = 0
                for feedback in batch:
                    folded += ledger.record(feedback)
                t1 = clock()
                result = service.assess_many(ids)
                t2 = clock()
            except Exception:  # a failed request counts, the loop goes on
                m.failed += 1
                continue
            epoch = m.epoch
            m.mark()
            m.ingest.append((len(batch), t1 - t0, epoch, epoch))
            m.verdicts.append((len(result), t2 - t1, epoch, epoch))
            m.queries.append(((t2 - t1) * 1e3, epoch, epoch))
            if folded != len(batch):
                m.failed += 1
            if len(result) != len(ids) or any(a.degraded for a in result.values()):
                m.failed += 1
            m.units += 1
        m.measured_s = clock() - start
        before_check()
        self._check(m, ledger, service, servers, rng)
        service.close()
        return m

    def _check(self, m, ledger, service, servers, rng) -> None:
        sample = [servers[i] for i in rng.choice(len(servers), size=200, replace=False)]
        served = service.assess_many(sample)
        assessor = service.assessor
        mismatched = sum(
            served[s] != assessor.assess(ledger.history(s), ledger=ledger) for s in sample
        )
        m.check("serve_vs_percall", len(sample), mismatched)


# ---------------------------------------------------------------------- #
# cold_start


class ColdStart(Workload):
    name = "cold_start"
    why = (
        "restart from disk: bulk load into the mmap ledger, then open it "
        "cold and page through every verdict with the vectorized kernel"
    )
    tail_pct = 90.0
    n_servers = 2400
    page = 100

    def _build_batch(self, seed: int, cycle: int) -> FeedbackBatch:
        rng = np.random.default_rng([seed, 3, cycle])
        n = self.n_servers
        lengths = rng.integers(120, 361, size=n)
        total = int(lengths.sum())
        servers = np.repeat(np.array([f"server-{i:05d}" for i in range(n)]), lengths)
        client_ids = rng.integers(0, 1000, size=total)
        clients = np.char.add("client-", client_ids.astype("U4"))
        rates = 0.55 + 0.4 * rng.random(n)
        times = np.concatenate([np.arange(k, dtype=np.float64) for k in lengths])
        ratings = (rng.random(total) < np.repeat(rates, lengths)).astype(np.uint8)
        return FeedbackBatch(times=times, servers=servers, clients=clients, ratings=ratings)

    def run(self, seed, *, seconds=None, units=None, setups=3, workdir, before_check=lambda: None):
        m = Measurement()
        servers = [f"server-{i:05d}" for i in range(self.n_servers)]
        pages = [servers[i : i + self.page] for i in range(0, len(servers), self.page)]
        path = workdir / "cold.ledger"
        start = clock()
        m.mark()
        last = None
        while self._more(m, start, seconds, units):
            if last is not None:
                last[1].close()
                last[0].close()
                last = None
            for stale in workdir.glob("cold.ledger*"):
                stale.unlink()
            batch = None
            gc.collect()
            t0 = clock()
            batch = self._build_batch(seed, m.units)
            m.add_setup(clock() - t0)
            gc.collect()
            m.attempted += 1
            with FeedbackLedger(backend="mmap", path=str(path)) as ledger:
                t0 = clock()
                folded = ledger.record_batch(batch)
                ledger.flush()
                t1 = clock()
            m.ingest.append((len(batch), t1 - t0, m.epoch, m.epoch))
            m.mark()
            if folded != len(batch):
                m.failed += 1
            m.counts["bytes_on_disk"] = sum(p.stat().st_size for p in workdir.glob("cold.ledger*"))
            m.counts["events_on_disk"] = len(batch)
            gc.collect()
            since = m.epoch
            t2 = clock()
            opened = FeedbackLedger(backend="mmap", path=str(path))
            service = AssessmentService(
                config=AssessorConfig(), ledger=opened, executor="serial", vectorized=True
            )
            verdicts = {}
            for page in pages:
                m.attempted += 1
                tq = clock()
                verdicts.update(service.assess_many(page))
                elapsed = clock() - tq
                m.queries.append((elapsed * 1e3, m.epoch, m.epoch))
                m.mark()
            # the reference loop ran between pages: its time is not the program's
            elapsed = clock() - t2 - sum(m.probes[since + 1 :])
            m.verdicts.append((len(verdicts), elapsed, since, m.epoch - 1))
            bad = sum(a.degraded or a.behavior.insufficient for a in verdicts.values())
            if len(verdicts) != len(servers) or bad:
                m.failed += 1
            last = (opened, service, verdicts)
            m.units += 1
        m.measured_s = clock() - start
        before_check()
        opened, service, verdicts = last
        sample = servers[:: max(len(servers) // 150, 1)]
        assessor = service.assessor
        mismatched = sum(
            verdicts[s] != assessor.assess(opened.history(s), ledger=opened) for s in sample
        )
        m.check("vectorized_vs_scalar", len(sample), mismatched)
        service.close()
        opened.close()
        return m


# ---------------------------------------------------------------------- #
# cluster_quorum


class ClusterQuorum(Workload):
    name = "cluster_quorum"
    why = (
        "replicated deployment: coordinator, partitioning, RPC, replica "
        "dedup and digests, quorum reads, hints and Merkle repair"
    )
    tail_pct = 90.0
    n_servers = 800
    shards = 4
    replicas = 3
    read_quorum = 2
    ingest_batch = 2000
    rounds = 60
    kill_rounds = 20
    touched = 16

    def _fleet(self, seed: int, cycle: int):
        rng = np.random.default_rng([seed, 4, cycle])
        n = self.n_servers
        config = AssessorConfig()
        floor = config.test_config.min_transactions
        lengths = rng.integers(floor + 8, floor + 41, size=n)
        rates = 0.80 + 0.19 * rng.random(n)
        servers = [f"server-{i:05d}" for i in range(n)]
        # interleave the per-server streams by time, as a fleet would
        # report them, so every client batch spans many servers
        streams = []
        for i, server in enumerate(servers):
            goods = rng.random(int(lengths[i])) < rates[i]
            clients = rng.integers(0, 500, size=goods.size)
            streams.append(
                [
                    Feedback(
                        time=float(j),
                        server=server,
                        client=f"client-{clients[j]:03d}",
                        rating=_rating(good),
                    )
                    for j, good in enumerate(goods)
                ]
            )
        order = sorted(
            ((fb.time, i, j) for i, s in enumerate(streams) for j, fb in enumerate(s))
        )
        events = [streams[i][j] for _, i, j in order]
        return servers, rates, lengths.astype(np.float64), events

    def _round(self, m, cluster, servers, rates, clocks, rng, weights, log, healthy):
        n = len(servers)
        touched = rng.choice(n, size=self.touched, replace=False, p=weights)
        batch = []
        for idx in touched:
            for good in rng.random(int(rng.integers(1, 8))) < rates[idx]:
                clocks[idx] += 1.0
                batch.append(
                    Feedback(
                        time=float(clocks[idx]),
                        server=servers[idx],
                        client=f"client-{int(rng.integers(0, 500)):03d}",
                        rating=_rating(good),
                    )
                )
        ids = _round_ids(rng, servers, touched, self.touched)
        log.extend(batch)
        m.attempted += 2
        t0 = clock()
        written = cluster.record_batch(batch)
        t1 = clock()
        result = cluster.assess_many(ids)
        t2 = clock()
        if not healthy:
            return
        m.ingest.append((written["events"], t1 - t0, m.epoch, m.epoch))
        m.queries.append(((t2 - t1) * 1e3, m.epoch, m.epoch))
        m.mark()
        if written["hinted"] or written["replica_writes"] % self.replicas:
            m.failed += 1
        if len(result) != len(ids) or any(a.degraded for a in result.values()):
            m.failed += 1

    def run(self, seed, *, seconds=None, units=None, setups=3, workdir, before_check=lambda: None):
        m = Measurement()
        start = clock()
        measured = 0.0
        m.mark()
        last = None
        while self._more(m, start, seconds, units):
            cycle = m.units
            gc.collect()
            t0 = clock()
            servers, rates, clocks, events = self._fleet(seed, cycle)
            calibrator = _calibrator(AssessorConfig().test_config)
            network = SimulatedNetwork(name=f"bench-{cycle}")
            cluster = ClusterAssessmentService(
                AssessorConfig(),
                calibrator=calibrator,
                n_nodes=self.shards,
                replicas=self.replicas,
                read_quorum=self.read_quorum,
                network=network,
            )
            m.add_setup(clock() - t0)
            log = EventLog()
            with resilience.activate(event_log=log):
                elapsed, history = self._cycle(m, seed, cycle, cluster, servers, rates, clocks, events)
            measured += elapsed
            kinds = Counter(record["event"] for record in log.events)
            m.counts["read_repairs"] += kinds["cluster_read_repair"]
            m.counts["hints_stored"] += sum(
                r["events"] for r in log.events if r["event"] == "cluster_hint_stored"
            )
            stats = network.stats.as_dict()
            m.counts["p2p.messages"] += stats["messages"]
            m.counts["p2p.drops"] += stats["drops"]
            m.counts["p2p.retries"] += stats["retries"]
            for kind, count in stats["by_type"].items():
                key = kind if kind.startswith("cluster_") else "overlay"
                m.counts[f"p2p.messages.{key}"] += count
            last = (cluster, calibrator, history)
            m.units += 1
        m.measured_s = measured
        before_check()
        self._check(m, *last)
        return m

    def _cycle(self, m, seed, cycle, cluster, servers, rates, clocks, events) -> float:
        rng = np.random.default_rng([seed, 5, cycle])
        weights = _zipf_weights(rng, len(servers))
        log: List[Feedback] = list(events)
        gc.collect()
        begin = clock()
        for i in range(0, len(events), self.ingest_batch):
            chunk = events[i : i + self.ingest_batch]
            m.attempted += 1
            t0 = clock()
            written = cluster.record_batch(chunk)
            m.ingest.append((written["events"], clock() - t0, m.epoch, m.epoch))
            m.mark()
            if written["hinted"]:
                m.failed += 1
        m.attempted += 1
        t0 = clock()
        verdicts = cluster.assess_many()
        m.verdicts.append((len(verdicts), clock() - t0, m.epoch, m.epoch))
        m.mark()
        if len(verdicts) != len(servers) or any(
            a.degraded or a.behavior.insufficient for a in verdicts.values()
        ):
            m.failed += 1
        for _ in range(self.rounds):
            self._round(m, cluster, servers, rates, clocks, rng, weights, log, True)
        victim = cluster.members[1]
        cluster.kill(victim)
        for _ in range(self.kill_rounds):
            self._round(m, cluster, servers, rates, clocks, rng, weights, log, False)
        t0 = clock()
        replayed = cluster.recover(victim)
        summary = cluster.anti_entropy()
        m.counts["recovery_s"] += clock() - t0
        m.counts["recoveries"] += 1
        m.counts["hints_replayed"] += replayed
        m.counts["anti_entropy_diverged"] += summary["diverged"]
        after = cluster.anti_entropy()
        if after["diverged"]:
            m.failed += 1
        return clock() - begin, log

    def _check(self, m, cluster, calibrator, history) -> None:
        servers = cluster.servers
        sample = servers[:: max(len(servers) // 120, 1)]
        keep = set(sample)
        reference_ledger = FeedbackLedger(backend="memory")
        reference = AssessmentService(
            assessor=Assessor.from_config(AssessorConfig(), calibrator=calibrator),
            ledger=reference_ledger,
            executor="serial",
        )
        for feedback in history:
            if feedback.server in keep:
                reference_ledger.record(feedback)
        expected = reference.assess_many(sample)
        got = cluster.assess_many(sample)
        mismatched = sum(got[s] != expected[s] for s in sample)
        m.check("cluster_vs_single_node", len(sample), mismatched)


def _calibrator(config: BehaviorTestConfig) -> ThresholdCalibrator:
    return ThresholdCalibrator(
        confidence=config.confidence,
        n_sets=config.calibration_sets,
        distance=config.distance,
        p_quantum=config.p_quantum,
    )


# ---------------------------------------------------------------------- #
# attack_campaigns


class _CountingTest:
    """Counts and times every behavior-test call: the look-ahead probes,
    each one query of the reputation system."""

    def __init__(self, inner, m: Measurement):
        self._inner = inner
        self._m = m

    def test(self, history):
        t0 = clock()
        verdict = self._inner.test(history)
        elapsed = clock() - t0
        epoch = self._m.epoch
        self._m.queries.append((elapsed * 1e3, epoch, epoch))
        return verdict


class AttackCampaigns(Workload):
    name = "attack_campaigns"
    why = (
        "the paper's Fig. 3/4 strategic-attacker campaigns: scalar "
        "behavior tests and the attacker's look-ahead"
    )
    tail_pct = 99.0
    prep_sizes = (100, 200, 300, 400, 500, 600, 700, 800)
    trust_threshold = 0.9
    prep_honesty = 0.95
    target_bads = 20
    #: a campaign still short of its 20 bad transactions after this many
    #: steps stops there (its cost is the goods so far); a few seeds
    #: otherwise run one campaign for thousands of ever-longer tests
    max_steps = 400

    def _plan(self, seed: int, sweep: int, m: Measurement):
        """Every campaign of one sweep, with one fresh calibrator."""
        config = BehaviorTestConfig()
        calibrator = _calibrator(config)
        plan = []
        for trust_name, trust_factory in (
            ("average", AverageTrust),
            ("weighted", lambda: WeightedTrust(0.5)),
        ):
            for prep in self.prep_sizes:
                for scheme, test_cls in (
                    ("scheme1", SingleBehaviorTest),
                    ("scheme2", MultiBehaviorTest),
                ):
                    test = _CountingTest(test_cls(config, calibrator), m)
                    attacker = StrategicAttacker(
                        trust_factory(),
                        test,
                        trust_threshold=self.trust_threshold,
                        prep_honesty=self.prep_honesty,
                        target_bads=self.target_bads,
                        max_steps=self.max_steps,
                    )
                    campaign_seed = [seed, 6, sweep, prep]
                    plan.append(((trust_name, prep, scheme), attacker, prep, campaign_seed))
        return plan

    def run(self, seed, *, seconds=None, units=None, setups=3, workdir, before_check=lambda: None):
        m = Measurement()
        start = clock()
        m.mark()
        tables = []
        while self._more(m, start, seconds, units):
            sweep = m.units
            for _ in range(max(setups, 1) * 30 if sweep == 0 else 1):
                t0 = clock()
                plan = self._plan(seed, sweep, m)
                m.add_setup(clock() - t0)
            table = {}
            gc.collect()
            m.mark()
            for key, attacker, prep, campaign_seed in plan:
                m.attempted += 1
                epoch, calls = m.epoch, len(m.queries)
                t0 = clock()
                result = attacker.run(prep, seed=np.random.default_rng(campaign_seed))
                elapsed = clock() - t0
                m.mark()
                m.measured_s += elapsed
                m.ingest.append((result.steps, elapsed, epoch, epoch))
                m.verdicts.append((len(m.queries) - calls, elapsed, epoch, epoch))
                table[key] = (result.good_transactions, result.bad_transactions, result.steps)
                m.counts["adversary.steps"] += result.steps
            tables.append(table)
            m.units += 1
        before_check()
        reference = self._reference(seed, 0)
        mismatched = sum(reference[key] != value for key, value in tables[0].items())
        m.check("cost_table_vs_reference", len(reference), mismatched)
        return m

    def _reference(self, seed: int, sweep: int) -> Dict[tuple, Tuple[int, int, int]]:
        """An independent replay of the look-ahead rule (DESIGN.md §3.1).

        Cheat when the victim's pre-transaction trust meets the
        threshold, the current history passes the screen and the
        history with one more bad transaction still passes; otherwise
        serve a good transaction.  Same calibrator seed and the same
        test-call order as the attacker, so thresholds match exactly.
        """
        config = BehaviorTestConfig()
        calibrator = _calibrator(config)
        table = {}
        for trust_name, trust in (("average", AverageTrust()), ("weighted", WeightedTrust(0.5))):
            for prep in self.prep_sizes:
                for scheme, test_cls in (
                    ("scheme1", SingleBehaviorTest),
                    ("scheme2", MultiBehaviorTest),
                ):
                    test = test_cls(config, calibrator)
                    rng = np.random.default_rng([seed, 6, sweep, prep])
                    outcomes = list(generate_honest_outcomes(prep, self.prep_honesty, seed=rng))
                    goods = bads = steps = 0
                    while bads < self.target_bads and steps < self.max_steps:
                        steps += 1
                        cheat = (
                            trust.score(np.array(outcomes, dtype=np.int8)) >= self.trust_threshold
                            and test.test(np.array(outcomes, dtype=np.int8)).passed
                            and test.test(np.array(outcomes + [0], dtype=np.int8)).passed
                        )
                        outcomes.append(0 if cheat else 1)
                        bads += cheat
                        goods += not cheat
                    table[(trust_name, prep, scheme)] = (goods, bads, steps)
        return table


WORKLOADS = {w.name: w for w in (ServeSteady(), ColdStart(), ClusterQuorum(), AttackCampaigns())}


def make_workdir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=root))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
