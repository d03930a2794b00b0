"""Sharded-cluster scaling: verdict throughput vs shard count.

Not a figure from the paper — this experiment sizes the deployment
shape :mod:`repro.cluster` adds: the assessment fold partitioned across
N replicated shards behind quorum reads.  For each population size the
same synthetic fleet is driven through clusters of increasing shard
count and three phases are timed:

* **ingest** — ``record_batch`` routing every event to all K replicas
  of its server's preference list;
* **assess_cold** — first ``assess_many`` over the whole fleet (each
  shard folds its servers from scratch, the coordinator reads R-of-K);
* **assess_warm** — the same batch again (incremental states and
  verdict caches hot; measures pure quorum-read overhead).

Every sweep point cross-checks a server sample against a single-node
:class:`~repro.serve.AssessmentService` sharing the cluster's
calibrator — any verdict mismatch raises, so the scaling numbers are
only ever reported for a cluster that is *correct*.

``bench_path`` writes a schema-valid ``BENCH_cluster.json``; in full
mode the quick sweep point is emitted as well, so one committed
artifact serves both the acceptance evidence (100k servers) and the CI
quick diff.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..core.config import AssessorConfig, BehaviorTestConfig
from ..core.two_phase import Assessor
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import Feedback, Rating
from ..serve import AssessmentService
from ..stats.rng import make_rng
from .common import ExperimentResult, ExperimentRun

__all__ = ["run_cluster_scale", "SWEEP_POINTS", "QUICK_POINTS", "CLUSTER_CONFIG"]

#: Cheap-but-real assessor: small windows keep per-server folds light so
#: the sweep measures the cluster machinery, not Monte-Carlo calibration.
CLUSTER_CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(
        window_size=8, min_windows=2, calibration_sets=50
    ),
)

#: Full-mode sweep: the acceptance population (100k servers) across a
#: shard-count curve.  ``(n_servers, events_per_server, shard_counts)``.
SWEEP_POINTS: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = (
    (100_000, 12, (4, 8, 16)),
)

#: Quick-mode sweep: small enough for CI smoke, same row shapes.
QUICK_POINTS: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = (
    (240, 16, (2, 4)),
)

_CLUSTER_METRIC = "experiments.cluster.seconds"


def _build_events(
    n_servers: int, events_per_server: int, base_seed: int
) -> List[Feedback]:
    """One time-ordered-per-server feedback stream for a synthetic fleet.

    Success rates vary per server so the shards exercise many
    calibration buckets and both phase-1 outcomes.
    """
    rng = make_rng(base_seed)
    rates = 0.55 + 0.4 * rng.random(n_servers)
    events: List[Feedback] = []
    for i in range(n_servers):
        server = f"server-{i:06d}"
        goods = rng.random(events_per_server) < rates[i]
        events.extend(
            Feedback(
                time=float(j),
                server=server,
                client=f"client-{(i + j) % 97:04d}",
                rating=Rating.POSITIVE if good else Rating.NEGATIVE,
            )
            for j, good in enumerate(goods)
        )
    return events


def run_cluster_scale(
    *,
    sweep_points: Optional[Sequence[Tuple[int, int, Tuple[int, ...]]]] = None,
    repeats: int = 2,
    base_seed: int = 4142,
    quick: bool = False,
    verify_sample: int = 200,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
) -> ExperimentResult:
    """Measure cluster ingest and quorum-read throughput vs shard count.

    For every ``(n_servers, events_per_server, shard_counts)`` sweep
    point: synthesize one fleet stream, then for each shard count build
    a fresh replicated cluster (K = min(3, N), R = min(2, K)), time
    ingest / cold assessment / warm assessment, and cross-check a
    verdict sample against a single-node reference service sharing the
    cluster's threshold calibrator.
    """
    if sweep_points is None:
        sweep_points = QUICK_POINTS if quick else QUICK_POINTS + SWEEP_POINTS
    if quick:
        repeats = min(repeats, 2)
    sweep_points = tuple(sweep_points)

    result = ExperimentResult(
        experiment="cluster",
        title="Sharded assessment cluster: throughput vs shard count",
        columns=[
            "n_servers",
            "n_events",
            "shards",
            "replicas",
            "ingest_evps",
            "cold_s",
            "warm_s",
            "verified",
        ],
        notes=(
            f"best of {repeats} fresh cluster(s) per point; ingest = events/s "
            "into all replicas; cold/warm = full-fleet quorum-read "
            "assess_many; verified = sampled servers bit-identical to a "
            "single-node reference"
        ),
    )

    with ExperimentRun(
        "cluster",
        seed=base_seed,
        config=CLUSTER_CONFIG,
        meta={"quick": quick, "repeats": repeats},
        bench_path=bench_path,
        events_path=events_path,
    ) as run:
        for n_servers, events_per_server, shard_counts in sweep_points:
            with obs.span("experiments.cluster.prepare", n_servers=n_servers):
                events = _build_events(n_servers, events_per_server, base_seed)
            for shards in shard_counts:
                _run_point(
                    events,
                    n_servers=n_servers,
                    shards=shards,
                    repeats=repeats,
                    verify_sample=verify_sample,
                    run=run,
                    result=result,
                )
    return result


def _run_point(
    events: List[Feedback],
    *,
    n_servers: int,
    shards: int,
    repeats: int,
    verify_sample: int,
    run: ExperimentRun,
    result: ExperimentResult,
) -> None:
    from ..cluster import ClusterAssessmentService
    from ..p2p.network import SimulatedNetwork

    replicas = min(3, shards)
    read_quorum = min(2, replicas)
    n_events = len(events)
    cluster = None
    for _ in range(max(repeats, 1)):
        with obs.span(
            "experiments.cluster.point", n_servers=n_servers, shards=shards
        ):
            cluster = ClusterAssessmentService(
                CLUSTER_CONFIG,
                n_nodes=shards,
                replicas=replicas,
                read_quorum=read_quorum,
                network=SimulatedNetwork(name=f"cluster-{shards}"),
            )
            with obs.timer(
                _CLUSTER_METRIC, mode="ingest", n_servers=n_servers, shards=shards
            ):
                cluster.record_batch(events)
            with obs.timer(
                _CLUSTER_METRIC,
                mode="assess_cold",
                n_servers=n_servers,
                shards=shards,
            ):
                verdicts = cluster.assess_many()
            with obs.timer(
                _CLUSTER_METRIC,
                mode="assess_warm",
                n_servers=n_servers,
                shards=shards,
            ):
                cluster.assess_many()
    if len(verdicts) != n_servers:
        raise AssertionError(
            f"cluster returned {len(verdicts)} verdicts for {n_servers} servers"
        )

    # ---- correctness gate: sampled servers vs single-node reference ----
    with obs.span(
        "experiments.cluster.verify", n_servers=n_servers, shards=shards
    ):
        servers = cluster.servers
        stride = max(len(servers) // max(verify_sample, 1), 1)
        sample = servers[::stride][:verify_sample]
        keep = set(sample)
        reference_ledger = FeedbackLedger()
        reference = AssessmentService(
            assessor=Assessor.from_config(
                CLUSTER_CONFIG, calibrator=cluster._calibrator
            ),
            ledger=reference_ledger,
        )
        for feedback in events:
            if feedback.server in keep:
                reference_ledger.record(feedback)
        expected = reference.assess_many(sample)
        mismatched = [s for s in sample if verdicts[s] != expected[s]]
        if mismatched:
            raise AssertionError(
                f"cluster disagrees with single-node reference on "
                f"{len(mismatched)} of {len(sample)} sampled servers "
                f"(first: {mismatched[0]})"
            )
    if run.log is not None:
        run.log.emit(
            "cluster_point_done",
            n_servers=n_servers,
            shards=shards,
            verified=len(sample),
        )

    params = {"n_servers": n_servers, "shards": shards}
    min_s = {}
    for mode in ("ingest", "assess_cold", "assess_warm"):
        hist = run.registry.histogram(_CLUSTER_METRIC, mode=mode, **params)
        run.bench_row(hist, mode, params)
        min_s[mode] = hist.min

    result.add_row(
        n_servers=n_servers,
        n_events=n_events,
        shards=shards,
        replicas=replicas,
        ingest_evps=round(n_events / min_s["ingest"]),
        cold_s=round(min_s["assess_cold"], 4),
        warm_s=round(min_s["assess_warm"], 4),
        verified=len(sample),
    )
