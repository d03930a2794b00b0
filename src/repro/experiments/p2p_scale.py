"""P2P substrate scaling: Chord lookup cost and gossip convergence vs. size.

Not a figure from the paper — the paper *assumes* all feedback about a
server is retrievable ("special data organization schemes in P2P
systems") and points at gossip aggregation for unstructured networks.
This experiment quantifies that substrate at growing network sizes: mean
lookup hop count and per-lookup latency on a Chord ring (O(log n)
claim), and push-pull gossip rounds plus per-round latency to reach 1%
agreement (O(log n) rounds claim).

Like fig7/fig9, timings flow through the obs layer; ``bench_path``
emits a schema-valid ``BENCH_p2p_scale.json`` so the substrate joins the
regression gate, and ``events_path`` writes the run's lifecycle events.
Overlay work runs under each node's scope, so the log's final metrics
snapshot carries per-node ``{node=...}`` series (``repro obs report``
prints them).  Every ring must pass its own consistency check before the
sweep moves on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..p2p.chord import ChordRing
from ..p2p.gossip import GossipAggregator
from ..stats.rng import make_rng
from .common import ExperimentResult, ExperimentRun

__all__ = ["run_p2p_scale", "NODE_COUNTS"]

NODE_COUNTS = (16, 32, 64, 128)

_LOOKUP_METRIC = "experiments.p2p_scale.lookup_seconds"
_ROUND_METRIC = "experiments.p2p_scale.gossip_round_seconds"
_ASSESS_METRIC = "experiments.p2p_scale.assess_sweep_seconds"
_ENGINES = ("direct", "incremental")
_RING_ERRORS = (
    "successor_errors",
    "predecessor_errors",
    "orphaned_keys",
    "under_replicated",
)


def run_p2p_scale(
    *,
    node_counts: Optional[Sequence[int]] = None,
    lookups: int = 50,
    gossip_tolerance: float = 0.01,
    max_rounds: int = 500,
    base_seed: int = 2008,
    quick: bool = False,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
    engine: str = "direct",
) -> ExperimentResult:
    """Scale the P2P substrate and measure lookup and gossip cost.

    For every network size: build a Chord ring, time ``lookups`` random
    key lookups (recording hop counts), then gossip a random value
    vector of the same size to within ``gossip_tolerance`` of the mean,
    timing every round.  ``bench_path`` writes the artifact through
    :mod:`repro.obs.bench`; ``events_path`` a lifecycle JSONL log.

    ``engine="incremental"`` additionally assesses one synthetic server
    per node at every size, per-call and through
    :class:`~repro.serve.AssessmentService` (verdicts asserted
    identical); the extra ``assess_percall_s`` / ``assess_serve_s``
    columns only appear in this mode — the default column list is
    pinned.

    Every ring must pass :meth:`~repro.p2p.chord.ChordRing.check_consistency`
    after its lookups and gossip; an inconsistent ring raises
    ``RuntimeError`` naming the first error, like gossip that does not
    converge.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if node_counts is None:
        node_counts = (8, 16) if quick else NODE_COUNTS
    if lookups < 1:
        raise ValueError(f"lookups must be >= 1, got {lookups}")
    if quick:
        lookups = min(lookups, 20)
    node_counts = tuple(node_counts)

    columns = [
        "n_nodes",
        "chord_mean_hops",
        "chord_lookup_s",
        "gossip_rounds",
        "gossip_round_s",
    ]
    notes = (
        f"{lookups} lookups per ring size; gossip to "
        f"{gossip_tolerance:.0%} agreement; lookup/round seconds are "
        "per-call minima through the obs layer"
    )
    assessor = None
    if engine == "incremental":
        # Engine-mode columns are strictly additive: the default column
        # list above is pinned by downstream consumers.
        columns += ["assess_percall_s", "assess_serve_s"]
        notes += "; assess columns: full-population assessment sweep"
        from ..core.config import AssessorConfig
        from ..core.two_phase import Assessor

        assessor = Assessor.from_config(
            AssessorConfig(trust_function="average", behavior_test="multi")
        )
    result = ExperimentResult(
        experiment="p2p_scale",
        title="P2P substrate scaling (Chord lookups, gossip convergence)",
        columns=columns,
        notes=notes,
    )

    with ExperimentRun(
        "p2p_scale",
        seed=base_seed,
        config={"lookups": lookups, "gossip_tolerance": gossip_tolerance},
        meta={"quick": quick},
        bench_path=bench_path,
        events_path=events_path,
    ) as run:
        registry = run.registry
        for n in node_counts:
            with obs.span("experiments.p2p_scale.build", n_nodes=n):
                ring = ChordRing(seed=base_seed + n)
                for i in range(n):
                    ring.add_node(f"node-{i}")
            hops: List[int] = []
            with obs.span("experiments.p2p_scale.lookups", n_nodes=n):
                for i in range(lookups):
                    with obs.timer(_LOOKUP_METRIC, n_nodes=n):
                        found = ring.lookup(f"server-{i}")
                    hops.append(found.hops)
            mean_hops = float(np.mean(hops))
            with obs.span("experiments.p2p_scale.gossip", n_nodes=n):
                values = make_rng(base_seed + n).random(n)
                agg = GossipAggregator(values, seed=base_seed + n)
                while agg.max_error() > gossip_tolerance:
                    if agg.rounds >= max_rounds:
                        raise RuntimeError(
                            f"gossip did not reach {gossip_tolerance} "
                            f"within {max_rounds} rounds at n={n}"
                        )
                    with obs.timer(_ROUND_METRIC, n_nodes=n):
                        agg.run_round()
            consistency = ring.check_consistency()
            if not consistency["ok"]:
                kind = next(k for k in _RING_ERRORS if consistency[k])
                raise RuntimeError(
                    f"Chord ring inconsistent at n={n}: "
                    f"{kind} {consistency[kind][0]}"
                )
            lookup_hist = registry.histogram(_LOOKUP_METRIC, n_nodes=n)
            round_hist = registry.histogram(_ROUND_METRIC, n_nodes=n)
            row = {
                "n_nodes": n,
                "chord_mean_hops": mean_hops,
                "chord_lookup_s": lookup_hist.min,
                "gossip_rounds": agg.rounds,
                "gossip_round_s": round_hist.min,
            }
            if assessor is not None:
                with obs.span("experiments.p2p_scale.assess", n_nodes=n):
                    from ..serve import AssessmentService
                    from .serve_scale import _build_population

                    histories = _build_population(n, base_seed=base_seed + n)
                    for history in histories:
                        assessor.assess(history)  # warm ε-calibration
                    service = AssessmentService(assessor)
                    for history in histories:
                        service.add_server(history)
                    service.assess_many()  # cold sweep fills the caches
                    with obs.timer(_ASSESS_METRIC, mode="serve", n_nodes=n):
                        batched = service.assess_many()
                    with obs.timer(_ASSESS_METRIC, mode="percall", n_nodes=n):
                        percall = {
                            history.server: assessor.assess(history)
                            for history in histories
                        }
                    if any(
                        batched[s] != assessment
                        for s, assessment in percall.items()
                    ):
                        raise AssertionError(
                            "serving assessments diverged from per-call "
                            f"assessment at n={n}"
                        )
                for mode, column in (
                    ("percall", "assess_percall_s"),
                    ("serve", "assess_serve_s"),
                ):
                    hist = registry.histogram(_ASSESS_METRIC, mode=mode, n_nodes=n)
                    row[column] = hist.min
                    run.bench_row(hist, f"assess_{mode}", {"n_nodes": n})
            result.add_row(**row)
            run.bench_row(
                lookup_hist, "chord_lookup", {"n_nodes": n}, mean_hops=mean_hops
            )
            run.bench_row(
                round_hist, "gossip_round", {"n_nodes": n}, rounds=agg.rounds
            )
    return result
