"""Ledger ingest and cold-assessment throughput: batched vs per-object.

Not a figure from the paper — this experiment quantifies the feedback
plane itself.  Folding Python ``Feedback`` objects one at a time caps
ingest throughput and makes a cold service start (persisted ledger ->
verdicts for the whole fleet) pay per-event object materialization
before the first assessment lands.  The columnar store
(:mod:`repro.feedback.store`) also ingests whole batches as column
arrays and feeds the batched fold
(:func:`repro.core.multi_testing.fold_cold_batch`), so the same cold start
is a handful of numpy passes.

Two sweeps per population size:

* **ingest** — events/second folding one pre-built event stream into
  the in-memory ledger one ``Feedback`` at a time (``ingest_object``),
  and into the ``columnar`` and ``mmap`` backends as one batch.
* **assess_cold** — end-to-end cold start from the *persisted* binary
  ledger: open the file, attach a fresh :class:`AssessmentService`, and
  assess every server.  The object path reads ``Feedback`` objects and
  folds them per event into the in-memory ledger with the scalar
  assessor; the vector path memory-maps the columns and runs the
  batched kernel.  Both paths must return identical assessments — any
  mismatch raises.

``bench_path`` writes a schema-valid ``BENCH_ingest.json`` so the
feedback plane joins the regression gate; in full mode the quick sweep
point is emitted *as well*, so one committed artifact serves both the
acceptance evidence (10k servers) and the CI quick diff.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.config import AssessorConfig
from ..feedback.io import read
from ..feedback.ledger import FeedbackLedger
from ..feedback.store import FeedbackBatch
from ..serve import AssessmentService
from ..stats.rng import make_rng
from .common import ExperimentResult, ExperimentRun

__all__ = ["run_ingest_scale", "SWEEP_POINTS", "QUICK_POINTS"]

#: Full-mode sweep: the acceptance population (10k servers, paper-scale
#: histories) — roughly 2.4M events.
SWEEP_POINTS: Tuple[Tuple[int, Tuple[int, int]], ...] = ((10_000, (120, 360)),)

#: Quick-mode sweep: small enough for CI smoke, same row shapes.
QUICK_POINTS: Tuple[Tuple[int, Tuple[int, int]], ...] = ((500, (60, 180)),)

_INGEST_METRIC = "experiments.ingest.seconds"


def _build_batch(
    n_servers: int, length_range: Tuple[int, int], base_seed: int
) -> FeedbackBatch:
    """Synthesize one time-ordered-per-server feedback stream as columns.

    Server ids, issuing clients, history lengths, and success rates all
    vary so the cold-assessment phase exercises many calibration buckets
    and both phase-1 outcomes.  Ids are built as fixed-width numpy
    string arrays — the interning fast path the columnar backends serve.
    """
    rng = make_rng(base_seed)
    lengths = rng.integers(length_range[0], length_range[1] + 1, size=n_servers)
    total = int(lengths.sum())
    servers = np.repeat(
        np.array([f"server-{i:05d}" for i in range(n_servers)]), lengths
    )
    clients = np.array(
        [f"client-{j:04d}" for j in rng.integers(0, max(n_servers // 2, 10), size=total)]
    )
    times = np.empty(total, dtype=np.float64)
    ratings = np.empty(total, dtype=np.uint8)
    rates = 0.55 + 0.4 * rng.random(n_servers)
    offset = 0
    for i in range(n_servers):
        n = int(lengths[i])
        times[offset : offset + n] = np.arange(n, dtype=np.float64)
        ratings[offset : offset + n] = rng.random(n) < rates[i]
        offset += n
    return FeedbackBatch(times=times, servers=servers, clients=clients, ratings=ratings)


def run_ingest_scale(
    *,
    sweep_points: Optional[Sequence[Tuple[int, Tuple[int, int]]]] = None,
    repeats: int = 3,
    base_seed: int = 2008,
    quick: bool = False,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
) -> ExperimentResult:
    """Measure ledger ingest and cold-start assessment across backends.

    For every ``(n_servers, length_range)`` sweep point: synthesize one
    event stream, time per-event vs batched ingest into each backend,
    persist the stream as a binary ledger, then time the two cold-start
    paths (object read + per-event folds + scalar sweep vs mmap load +
    vectorized kernel) from that file to a full set of verdicts,
    asserting both paths agree assessment-for-assessment.
    """
    if sweep_points is None:
        sweep_points = QUICK_POINTS if quick else QUICK_POINTS + SWEEP_POINTS
    if quick:
        repeats = min(repeats, 2)
    sweep_points = tuple(sweep_points)

    result = ExperimentResult(
        experiment="ingest",
        title="Feedback-plane throughput: columnar/mmap vs per-object ledger",
        columns=[
            "n_servers",
            "n_events",
            "object_evps",
            "columnar_evps",
            "mmap_evps",
            "cold_object_s",
            "cold_vector_s",
            "cold_speedup",
        ],
        notes=(
            f"ingest = events/s folding one stream (best of {repeats}); "
            "cold = persisted ledger -> verdicts for every server, "
            "identical assessments asserted between paths"
        ),
    )

    workdir = tempfile.mkdtemp(prefix="repro-ingest-")
    try:
        with ExperimentRun(
            "ingest",
            seed=base_seed,
            meta={"quick": quick, "repeats": repeats},
            bench_path=bench_path,
            events_path=events_path,
        ) as run:
            for n_servers, length_range in sweep_points:
                _run_point(
                    n_servers,
                    length_range,
                    base_seed=base_seed,
                    repeats=repeats,
                    workdir=workdir,
                    run=run,
                    result=result,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _run_point(
    n_servers: int,
    length_range: Tuple[int, int],
    *,
    base_seed: int,
    repeats: int,
    workdir: str,
    run: ExperimentRun,
    result: ExperimentResult,
) -> None:
    with obs.span("experiments.ingest.prepare", n_servers=n_servers):
        batch = _build_batch(n_servers, length_range, base_seed)
    n_events = len(batch)
    servers = sorted(set(batch.servers.tolist()))
    path = os.path.join(workdir, f"ingest-{n_servers}.ledger")

    # ---- ingest: per-event vs batched columnar vs batched mmap ----
    with obs.span("experiments.ingest.object", n_servers=n_servers):
        feedbacks = list(batch.iter_feedbacks())
        for _ in range(max(repeats, 1)):
            ledger = FeedbackLedger()
            with obs.timer(_INGEST_METRIC, mode="ingest_object", n_events=n_events):
                for feedback in feedbacks:
                    ledger.record(feedback)
        del feedbacks, ledger
    with obs.span("experiments.ingest.columnar", n_servers=n_servers):
        for _ in range(max(repeats, 1)):
            ledger = FeedbackLedger(backend="columnar")
            with obs.timer(
                _INGEST_METRIC, mode="ingest_columnar", n_events=n_events
            ):
                ledger.record_batch(batch)
        del ledger
    with obs.span("experiments.ingest.mmap", n_servers=n_servers):
        for _ in range(max(repeats, 1)):
            # a fresh ledger per repeat: drop the record file *and* its
            # id sidecars, or the reload would see duplicated tables
            for stale in (path, f"{path}.servers", f"{path}.clients", f"{path}.categories"):
                if os.path.exists(stale):
                    os.remove(stale)
            with FeedbackLedger(backend="mmap", path=path) as ledger:
                with obs.timer(
                    _INGEST_METRIC, mode="ingest_mmap", n_events=n_events
                ):
                    ledger.record_batch(batch)
                    ledger.flush()
    if run.log is not None:
        run.log.emit("ingest_done", n_servers=n_servers, n_events=n_events)

    # ---- cold start: persisted ledger -> verdicts for every server ----
    with obs.span("experiments.ingest.cold_vector", n_servers=n_servers):
        vector_assessments = None
        for _ in range(min(max(repeats, 1), 2)):
            service = AssessmentService(config=AssessorConfig(), vectorized=True)
            with obs.timer(
                _INGEST_METRIC, mode="assess_cold_vector", n_servers=n_servers
            ):
                service.attach_ledger(FeedbackLedger(backend="mmap", path=path))
                vector_assessments = service.assess_many(servers)
    with obs.span("experiments.ingest.cold_object", n_servers=n_servers):
        service = AssessmentService(config=AssessorConfig(), vectorized=False)
        with obs.timer(
            _INGEST_METRIC, mode="assess_cold_object", n_servers=n_servers
        ):
            ledger = FeedbackLedger()
            for feedback in read(path, format="binary"):
                ledger.record(feedback)
            service.attach_ledger(ledger)
            object_assessments = service.assess_many(servers)
    with obs.span("experiments.ingest.verify", n_servers=n_servers):
        mismatched = [
            server
            for server in servers
            if vector_assessments[server] != object_assessments[server]
        ]
        if mismatched:
            raise AssertionError(
                f"cold paths disagree on {len(mismatched)} of {n_servers} "
                f"servers (first: {mismatched[0]})"
            )
    if run.log is not None:
        run.log.emit("cold_done", n_servers=n_servers)

    min_s = {}
    for mode, params in (
        ("ingest_object", {"n_events": n_events}),
        ("ingest_columnar", {"n_events": n_events}),
        ("ingest_mmap", {"n_events": n_events}),
        ("assess_cold_vector", {"n_servers": n_servers}),
        ("assess_cold_object", {"n_servers": n_servers}),
    ):
        hist = run.registry.histogram(_INGEST_METRIC, mode=mode, **params)
        run.bench_row(hist, mode, params)
        min_s[mode] = hist.min

    cold_object = min_s["assess_cold_object"]
    cold_vector = min_s["assess_cold_vector"]
    result.add_row(
        n_servers=n_servers,
        n_events=n_events,
        object_evps=round(n_events / min_s["ingest_object"]),
        columnar_evps=round(n_events / min_s["ingest_columnar"]),
        mmap_evps=round(n_events / min_s["ingest_mmap"]),
        cold_object_s=round(cold_object, 4),
        cold_vector_s=round(cold_vector, 4),
        cold_speedup=round(cold_object / cold_vector, 2)
        if cold_vector > 0
        else float("inf"),
    )
