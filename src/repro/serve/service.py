"""Batched incremental assessment service.

:class:`AssessmentService` is the serving facade over the two-phase
pipeline: it keeps one :class:`~repro.core.incremental.IncrementalBehaviorState`
per server, folds feedback as it arrives (directly or via a subscribed
:class:`~repro.feedback.ledger.FeedbackLedger`), memoizes phase-1
verdicts and whole assessments, and answers bulk trust queries through
:meth:`AssessmentService.assess_many`, sharding across a
``concurrent.futures`` pool when that actually helps.

Verdicts are bit-identical to per-call
:meth:`~repro.core.two_phase.TwoPhaseAssessor.assess` — the service
reuses the assessor's own phase logic — with one deliberate difference:
the serving fast path only emits per-decision audit records for *fresh*
assessments while auditing is on (memo hits never re-log; run the
assessor directly when full phase-1 round provenance is needed).

Every ``assess_many`` request runs under a root
:class:`~repro.obs.context.TraceContext` (minted unless the caller
already attached one), serialized across the process executor
boundary so worker shard spans, resilience events, and audit records
all carry the request's trace_id.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import AssessorConfig
from ..core.incremental import IncrementalBehaviorState
from ..core.two_phase import Assessor, TwoPhaseAssessor
from ..core.vectorized import fold_cold_batch, supports_vectorized
from ..core.verdict import Assessment, AssessmentStatus
from ..feedback.history import TransactionHistory
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import EntityId, Feedback
from ..obs import audit as _audit
from ..obs import context as _ctx
from ..obs import runtime as _obs
from ..obs.registry import MetricsRegistry
from ..obs.tracing import Tracer
from ..resilience import runtime as _res
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import InjectedFault, ResilienceError
from ..resilience.retry import RetryExhausted, RetryPolicy
from ..trust.base import LedgerTrustFunction
from .cache import CalibrationCache

__all__ = ["AssessmentService"]

_log = logging.getLogger(__name__)

_EXECUTORS = ("auto", "serial", "process")

#: Fallback order of the degradation ladder, per starting executor: a
#: broken pool (or a shard past its deadline) steps down, never up, and
#: ends at serial — which shares no pool and cannot "break".
_LADDER = {
    "process": ("process", "serial"),
    "serial": ("serial",),
}

#: Failures a ladder step may recover from by stepping down.  Anything
#: outside this set (KeyError for an unknown server, ValueError for a
#: misconfigured call) is a caller error and propagates untouched.
_RECOVERABLE = (BrokenProcessPool, TimeoutError, InjectedFault, OSError)

#: Below this many servers, pool startup outweighs any sharding gain.
_MIN_PARALLEL_BATCH = 512

# Per-process worker state for executor="process": the assessor is built
# once per worker from the service's declarative config (initializer),
# then reused for every shard the pool hands that worker.
_PROCESS_STATE: dict = {}


def _worker_env() -> Dict[str, object]:
    """Snapshot the parent's observability settings for worker initargs.

    Spawned workers inherit nothing: without this, worker-side events
    and spans are silently dropped and ``REPRO_LOG_LEVEL`` only governs
    the parent.  Only serializable settings travel — the event-log and
    span-sink *paths*, never the open handles (JSONL appends from many
    processes interleave whole lines safely).
    """
    event_log = _res.events
    return {
        "log_level": os.environ.get("REPRO_LOG_LEVEL"),
        "obs_enabled": _obs.enabled,
        "span_sink_path": (
            str(_obs.span_sink.path) if _obs.span_sink is not None else None
        ),
        "event_log_path": (
            str(event_log.path)
            if event_log is not None and event_log.path is not None
            else None
        ),
    }


def _init_process_worker(
    config: AssessorConfig, worker_env: Optional[Dict[str, object]] = None
) -> None:
    _PROCESS_STATE["assessor"] = Assessor.from_config(config)
    if not worker_env:
        return
    level = worker_env.get("log_level")
    if level:
        from ..obs import configure_logging

        configure_logging(str(level))
    sink_path = worker_env.get("span_sink_path")
    if worker_env.get("obs_enabled") or sink_path:
        # fresh per-worker registry/tracer: a forked worker must not
        # inherit (and nest under) the parent's open span stack
        _obs.enable(MetricsRegistry(), Tracer())
    if sink_path:
        _obs.span_sink = _ctx.SpanLog(str(sink_path))
    event_path = worker_env.get("event_log_path")
    if event_path:
        from ..obs.events import EventLog

        _res.events = EventLog(str(event_path))


def _assess_shard_in_process(
    task: Tuple[List[TransactionHistory], Optional[Dict[str, str]], int],
) -> List[Assessment]:
    histories, headers, shard_index = task
    assessor = _PROCESS_STATE["assessor"]
    if headers is None:
        return [assessor.assess(history) for history in histories]
    # rebuild the request context from its serialized headers; the
    # shard span opens on this worker's own tracer and lands in its sink
    with _ctx.use(_ctx.TraceContext.from_headers(headers)):
        with _obs.span(
            "serve.executor.shard", shard=shard_index, executor="process"
        ):
            return [assessor.assess(history) for history in histories]


class AssessmentService:
    """Incremental, batched serving of two-phase assessments.

    Construct from exactly one of:

    * ``assessor=`` — an existing :class:`TwoPhaseAssessor`; or
    * ``config=`` — an :class:`~repro.core.config.AssessorConfig`, which
      additionally enables ``executor="process"`` (workers rebuild the
      assessor from the declarative config).

    Parameters
    ----------
    ledger:
        Attach to a system ledger: existing servers are registered, new
        feedback auto-registers its server via the ledger's subscription
        hook, and phase 2 receives the ledger (required by PeerTrust /
        EigenTrust-style schemes).
    calibration_cache:
        A :class:`~repro.serve.cache.CalibrationCache` to back the
        behavior test's ε-threshold calibrator (shared across services
        and persisted across runs).
    executor:
        Default :meth:`assess_many` sharding mode — ``"auto"``,
        ``"serial"`` or ``"process"``.  ``"auto"`` picks serial unless
        the machine has spare cores, the batch is large, a declarative
        config is available, and the assessor has no behavior test
        (whose Monte-Carlo calibration would draw per-worker RNG
        streams and so change thresholds).
    max_workers:
        Pool size for ``executor="process"`` (default: the CPU count).
    retry_policy:
        Retry contract for the pool-backed executor: each ladder step
        is attempted this many times (its ``deadline_s``, when set, is
        the per-shard-sweep deadline passed to the pool) before the
        service degrades to the next step.  Default: 2 attempts, no
        sleeping, no deadline.
    vectorized:
        Use the batched cold-path kernel
        (:func:`~repro.core.vectorized.fold_cold_batch`): when an
        ``assess_many`` sweep finds at least ``vector_min_batch`` cold
        states and the tester qualifies, their phase-1 verdicts are
        folded in one vectorized pass and seeded into the incremental
        states before the per-server walk (which then hits the verdict
        cache).  Verdicts are bit-identical either way; PR 4's warm
        incremental path is untouched.
    vector_min_batch:
        Minimum number of cold states before the vectorized pre-fold
        pays for itself; smaller sweeps stay on the scalar path.

    **Degradation ladder.**  When a pool-backed ``assess_many`` sweep
    fails recoverably (``BrokenProcessPool``, a pool deadline, an
    injected worker fault), the service steps down process → serial,
    records the fallback (``last_degradation``, an
    ``executor_degraded`` event, the ``serve.resilience.degradations``
    counter), and returns verdicts **bit-identical** to the healthy
    sweep — serial shares no pool and reuses the same incremental
    states.  A :class:`CircuitBreaker` on the process pool remembers
    repeated pool failures so later sweeps skip the known-broken pool
    without paying pool startup again.  Only when *every* step fails does the
    sweep raise — a single structured
    :class:`~repro.resilience.faults.ResilienceError` naming the
    originating site, never a bare worker traceback.
    """

    def __init__(
        self,
        assessor: Optional[TwoPhaseAssessor] = None,
        *,
        config: Optional[AssessorConfig] = None,
        ledger: Optional[FeedbackLedger] = None,
        calibration_cache: Optional[CalibrationCache] = None,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        vectorized: bool = True,
        vector_min_batch: int = 32,
    ):
        if (assessor is None) == (config is None):
            raise ValueError("pass exactly one of assessor= or config=")
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        self._config = config
        self._retry_policy = retry_policy or RetryPolicy(
            max_attempts=2,
            base_delay=0.0,
            retry_on=_RECOVERABLE,
            name="serve.executor",
        )
        self._breakers = {"process": CircuitBreaker(name="serve.executor.process")}
        self.n_degradations = 0
        #: ``{"from", "to", "error"}`` of the most recent executor
        #: fallback, ``None`` while everything is healthy.
        self.last_degradation: Optional[Dict[str, str]] = None
        self._assessor = assessor if assessor is not None else Assessor.from_config(config)
        self._executor = executor
        self._max_workers = max_workers
        self._calibration_cache = calibration_cache
        if calibration_cache is not None:
            behavior = self._assessor.behavior_test
            calibrator = getattr(behavior, "calibrator", None)
            if calibrator is not None:
                calibrator.attach_store(calibration_cache)
        self._states: Dict[EntityId, IncrementalBehaviorState] = {}
        # Whole-assessment memo (history length -> Assessment); only valid
        # when phase 2 depends on nothing but the server's own history.
        self._assessment_cache: Dict[EntityId, tuple] = {}
        self._cacheable_trust = not isinstance(
            self._assessor.trust_function, LedgerTrustFunction
        )
        self.n_assessments = 0
        self.n_assessment_cache_hits = 0
        self._vectorized = vectorized
        self._vector_min_batch = vector_min_batch
        self.n_vector_prefolds = 0
        self.n_vector_seeded = 0
        self._ledger: Optional[FeedbackLedger] = None
        self._ledger_callback = None
        if ledger is not None:
            self.attach_ledger(ledger)

    # ------------------------------------------------------------------ #
    # registration and ingest

    @property
    def assessor(self) -> TwoPhaseAssessor:
        """The wrapped two-phase assessor."""
        return self._assessor

    @property
    def config(self) -> Optional[AssessorConfig]:
        """The declarative config, when the service was built from one."""
        return self._config

    @property
    def ledger(self) -> Optional[FeedbackLedger]:
        """The attached system ledger, if any."""
        return self._ledger

    def servers(self) -> List[EntityId]:
        """Registered server ids, in registration order."""
        return list(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def attach_ledger(self, ledger: FeedbackLedger) -> None:
        """Track a system ledger: register its servers, follow new feedback."""
        if self._ledger is not None:
            raise ValueError("a ledger is already attached")
        self._ledger = ledger
        for server in sorted(ledger.servers()):
            self._register(ledger.history(server))

        def _on_feedback(feedback: Feedback) -> None:
            if feedback.server not in self._states:
                self._register(ledger.history(feedback.server))

        self._ledger_callback = _on_feedback
        ledger.subscribe(_on_feedback)

    def add_server(self, server) -> EntityId:
        """Register a server; returns its id.

        ``server`` is either a :class:`TransactionHistory` (registered
        as-is, sharing the live object) or a bare server id (registered
        with a fresh empty history).  Registering an id twice is a no-op;
        registering a *different* history under an existing id is an
        error.
        """
        if isinstance(server, TransactionHistory):
            return self._register(server)
        existing = self._states.get(server)
        if existing is not None:
            return server
        return self._register(TransactionHistory(server))

    def _register(self, history: TransactionHistory) -> EntityId:
        server = history.server
        existing = self._states.get(server)
        if existing is not None:
            if existing.history is not history:
                raise ValueError(
                    f"server {server!r} is already registered with a "
                    "different history"
                )
            return server
        self._states[server] = IncrementalBehaviorState(
            self._assessor.behavior_test
            if self._assessor.behavior_test is not None
            else _NullTester(),
            history,
        )
        if _obs.enabled:
            _obs.registry.inc("serve.service.servers_registered")
        return server

    def observe(self, feedback: Feedback) -> None:
        """Ingest one feedback record.

        With a ledger attached this records through the ledger (which
        also notifies every other subscriber); standalone services fold
        directly into the server's state, registering it on first sight.
        """
        if self._ledger is not None:
            self._ledger.record(feedback)
            return
        state = self._states.get(feedback.server)
        if state is None:
            self.add_server(feedback.server)
            state = self._states[feedback.server]
        state.fold_feedback(feedback)

    def observe_outcome(self, server: EntityId, outcome: int) -> None:
        """Ingest one bare 0/1 outcome for ``server`` (standalone mode only)."""
        if self._ledger is not None:
            raise ValueError("ledger-attached services ingest via the ledger")
        state = self._states.get(server)
        if state is None:
            self.add_server(server)
            state = self._states[server]
        state.fold(outcome)

    def invalidate(self, server: EntityId) -> None:
        """Drop every cache for ``server``; next assessment recomputes."""
        self._states[server].invalidate()
        self._assessment_cache.pop(server, None)

    def replace_server(self, history: TransactionHistory) -> EntityId:
        """Swap in a rebuilt history for an existing (or new) server.

        The repair counterpart of :meth:`add_server`: anti-entropy and
        read-repair replace a server's ledger history wholesale (see
        :meth:`~repro.feedback.ledger.FeedbackLedger.reset_server`), which
        invalidates the incremental state and memoized assessment built
        over the old object.  Both are dropped and the replacement is
        registered fresh; the next assessment recomputes from scratch.
        """
        server = history.server
        self._states.pop(server, None)
        self._assessment_cache.pop(server, None)
        if _obs.enabled:
            _obs.registry.inc("serve.service.server_replacements")
        return self._register(history)

    # ------------------------------------------------------------------ #
    # assessment

    def assess(self, server: EntityId) -> Assessment:
        """Assess one server, reusing incremental state and memos."""
        state = self._states.get(server)
        if state is None:
            raise KeyError(f"server {server!r} is not registered")
        history = state.history
        n = len(history)
        if self._cacheable_trust:
            cached = self._assessment_cache.get(server)
            if cached is not None and cached[0] == n:
                self.n_assessment_cache_hits += 1
                if _obs.enabled:
                    _obs.registry.inc("serve.service.assessment_cache_hits")
                return cached[1]
        start = time.perf_counter() if _obs.enabled else 0.0
        assessment = self._assess_fresh(state, history)
        self.n_assessments += 1
        # degraded answers (stale calibration threshold) are served but
        # never memoized: the next query retries the real computation
        if self._cacheable_trust and not assessment.degraded:
            self._assessment_cache[server] = (n, assessment)
        if _obs.enabled:
            _obs.registry.inc("serve.service.assessments")
            # a plain histogram observation, not a span: the latency SLO
            # needs the distribution, a span per assessment would not
            # stay bounded across 100k-server sweeps
            _obs.registry.observe(
                "serve.assess.seconds", time.perf_counter() - start
            )
        return assessment

    def _assess_fresh(
        self, state: IncrementalBehaviorState, history: TransactionHistory
    ) -> Assessment:
        if _audit.enabled:
            with _audit.trail.decision_scope(server=history.server):
                assessment = self._assess_fresh_inner(state, history)
                if _audit.trail.want_record():
                    self._emit_serve_audit(assessment)
                return assessment
        return self._assess_fresh_inner(state, history)

    def _emit_serve_audit(self, assessment: Assessment) -> None:
        """Serve-path decision provenance (summary only, no phase-1 rounds)."""
        provenance = getattr(self._assessor.trust_function, "provenance", None)
        trust_name = (
            provenance()["name"]
            if callable(provenance)
            else type(self._assessor.trust_function).__name__
        )
        _audit.trail.emit(
            _audit.assessment_record(
                server=assessment.server,
                status=assessment.status.value,
                trust_value=assessment.trust_value,
                trust_threshold=self._assessor.trust_threshold,
                trust_function=trust_name,
            )
        )

    def _assess_fresh_inner(
        self, state: IncrementalBehaviorState, history: TransactionHistory
    ) -> Assessment:
        behavior = None
        degraded = False
        calibrator = getattr(self._assessor.behavior_test, "calibrator", None)
        stale_before = (
            calibrator.degraded_calibrations if calibrator is not None else 0
        )
        if self._assessor.behavior_test is not None:
            behavior = state.verdict()
            if calibrator is not None:
                # phase 1 answered off a stale calibration threshold —
                # usable, but flagged so the caller can re-derive later
                degraded = calibrator.degraded_calibrations > stale_before
            if not behavior.passed:
                return Assessment(
                    status=AssessmentStatus.SUSPICIOUS,
                    trust_value=None,
                    behavior=behavior,
                    server=history.server,
                    degraded=degraded,
                )
        trust_value = self._assessor.trust_value(history, ledger=self._ledger)
        status = (
            AssessmentStatus.TRUSTED
            if trust_value >= self._assessor.trust_threshold
            else AssessmentStatus.UNTRUSTED
        )
        return Assessment(
            status=status,
            trust_value=trust_value,
            behavior=behavior,
            server=history.server,
            degraded=degraded,
        )

    def assess_many(
        self,
        server_ids: Optional[Iterable[EntityId]] = None,
        *,
        executor: Optional[str] = None,
    ) -> Dict[EntityId, Assessment]:
        """Assess a batch of servers (default: every registered server).

        Sharding follows the service's executor mode unless overridden
        per call.  Results come back as ``{server_id: Assessment}`` in
        input order.
        """
        ids = list(server_ids) if server_ids is not None else list(self._states)
        mode = executor if executor is not None else self._executor
        if mode not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {mode!r}")
        if mode == "auto":
            mode = self._choose_executor(len(ids))
        # surface caller errors before any pool is paid for — these are
        # not faults and must not enter the degradation ladder
        if mode == "process":
            self._check_process_preconditions()
        from ..obs import span as _span

        # every request runs under a trace context when collection is on:
        # the caller's, or a freshly minted root — spans, resilience
        # events, and audit records downstream all inherit its trace_id
        ctx = _ctx.current()
        if ctx is None and _obs.enabled:
            ctx = _ctx.new_root(op="assess_many")
        with _ctx.use(ctx):
            if _obs.enabled:
                _obs.registry.inc("serve.requests")
            with _span("serve.assess_many", mode=mode, batch=len(ids)):
                if mode == "serial":
                    # process workers rebuild their own states; seeds
                    # would never reach them
                    self._prefold_cold(ids)
                result = self._assess_with_ladder(ids, mode)
            # drive the metrics scraper from the serving loop itself —
            # one wall-clock slot check per request, no background
            # thread; still inside the request context so anomaly
            # events are stamped with the triggering request's trace_id
            if _obs.scraper is not None:
                _obs.scraper.maybe_scrape()
        return result

    def _prefold_cold(self, ids: Sequence[EntityId]) -> None:
        """Batch-fold every cold state's phase 1 through the vectorized
        kernel and seed the results, so the per-server walk below turns
        into verdict-cache hits.

        Skipped entirely when faults are armed: the kernel computes
        thresholds for *all* suffix rounds up front, which would consume
        injected calibration faults in a different order than the scalar
        walk — chaos runs must replay bit-identically.  Likewise, seeds
        are discarded when the kernel answered off a stale calibration
        threshold, so the scalar path can re-derive and flag the
        assessment as degraded.
        """
        if not self._vectorized or _res.armed:
            return
        tester = self._assessor.behavior_test
        if tester is None or not supports_vectorized(tester):
            return
        cold: List[IncrementalBehaviorState] = []
        seen = set()
        for sid in ids:
            state = self._states.get(sid)
            if state is None or sid in seen:
                continue  # unknown ids fail in assess(), with context
            seen.add(sid)
            if state.needs_phase1():
                cold.append(state)
        if len(cold) < self._vector_min_batch:
            return
        calibrator = getattr(tester, "calibrator", None)
        stale_before = (
            calibrator.degraded_calibrations if calibrator is not None else 0
        )
        folded = fold_cold_batch(
            [state.history.outcomes() for state in cold], tester
        )
        if (
            calibrator is not None
            and calibrator.degraded_calibrations > stale_before
        ):
            return
        for state, (report, counts) in zip(cold, folded):
            state.seed_phase1(report, counts)
        self.n_vector_prefolds += 1
        self.n_vector_seeded += len(cold)
        if _obs.enabled:
            _obs.registry.inc("serve.service.vector_prefolds")
            _obs.registry.inc("serve.service.vector_seeded", len(cold))

    def _run_step(self, step: str, ids: Sequence[EntityId]) -> Dict[EntityId, Assessment]:
        if step == "serial":
            return {sid: self.assess(sid) for sid in ids}
        return self._assess_many_process(ids)

    def _assess_with_ladder(
        self, ids: Sequence[EntityId], mode: str
    ) -> Dict[EntityId, Assessment]:
        """Walk the degradation ladder from ``mode`` down to serial."""
        attempts: List[Tuple[str, str]] = []
        origin_site = "serve.executor.worker"
        for step in _LADDER[mode]:
            breaker = self._breakers.get(step)
            if breaker is not None and not breaker.allow():
                attempts.append((step, "circuit breaker open"))
                _res.emit("breaker_rejection", breaker=breaker.name, step=step)
                continue
            try:
                result = self._retry_policy.call(self._run_step, step, ids)
            except RetryExhausted as exc:
                cause = exc.last_error
                if not isinstance(cause, _RECOVERABLE):
                    raise cause from exc
                if breaker is not None:
                    breaker.record_failure()
                attempts.append((step, repr(cause)))
                if isinstance(cause, InjectedFault):
                    origin_site = cause.site
                _log.warning("assess_many %s step failed (%r); degrading", step, cause)
                continue
            if breaker is not None:
                breaker.record_success()
            if step != mode:
                self._record_degradation(mode, step, attempts)
            return result
        # the ladder is exhausted: capture the system's last moments
        # before the structured error unwinds the caller's stack
        if _obs.flight_recorder is not None:
            _obs.flight_recorder.dump(
                reason="resilience_error",
                site=origin_site,
                attempts="; ".join(f"{step}: {err}" for step, err in attempts),
            )
        raise ResilienceError(origin_site, attempts)

    def _record_degradation(
        self, requested: str, served: str, attempts: List[Tuple[str, str]]
    ) -> None:
        self.n_degradations += 1
        error = attempts[-1][1] if attempts else ""
        self.last_degradation = {"from": requested, "to": served, "error": error}
        _res.emit("executor_degraded", **self.last_degradation)
        if _obs.enabled:
            _obs.registry.inc(
                "serve.resilience.degradations", requested=requested, served=served
            )

    def _check_process_preconditions(self) -> None:
        if self._config is None:
            raise ValueError(
                "executor='process' needs a service built from config= "
                "(workers rebuild the assessor from the declarative config)"
            )
        if self._ledger is not None or not self._cacheable_trust:
            raise ValueError(
                "executor='process' supports history-based trust functions "
                "only; ledger-backed schemes cannot be sharded across processes"
            )

    def _choose_executor(self, batch_size: int) -> str:
        cores = os.cpu_count() or 1
        if cores <= 2 or batch_size < _MIN_PARALLEL_BATCH:
            return "serial"
        # each worker calibrates with its own RNG stream, so a behavior
        # test's thresholds (and verdicts) would depend on the sharding
        if (
            self._config is not None
            and self._ledger is None
            and self._assessor.behavior_test is None
        ):
            return "process"
        return "serial"

    def _workers(self) -> int:
        return self._max_workers or (os.cpu_count() or 1)

    def _shards(self, ids: Sequence[EntityId]) -> List[List[EntityId]]:
        n_shards = min(self._workers(), max(1, len(ids)))
        size = (len(ids) + n_shards - 1) // n_shards
        return [list(ids[i : i + size]) for i in range(0, len(ids), size)]

    @staticmethod
    def _inject_worker_fault() -> None:
        """Consult the plan at the pool-worker site (pool-parent side).

        Worker processes do not inherit the parent's armed plan, so the
        chaos framework models worker death here, where the pool's
        native failures (``BrokenProcessPool``) surface anyway: a
        ``crash`` fault becomes a broken pool, anything else an
        :class:`InjectedFault`.
        """
        spec = _res.check("serve.executor.worker")
        if spec is None:
            return
        if spec.mode == "crash":
            raise BrokenProcessPool(
                "injected worker crash at serve.executor.worker"
            )
        raise InjectedFault("serve.executor.worker", spec.mode, 0)

    def _assess_many_process(
        self, ids: Sequence[EntityId]
    ) -> Dict[EntityId, Assessment]:
        self._check_process_preconditions()
        if _res.armed:
            self._inject_worker_fault()
        shards = self._shards(ids)
        parent_ctx = _ctx.current()
        headers = parent_ctx.to_headers() if parent_ctx is not None else None
        tasks = [
            ([self._states[sid].history for sid in shard], headers, index)
            for index, shard in enumerate(shards)
        ]
        results: Dict[EntityId, Assessment] = {}
        with ProcessPoolExecutor(
            max_workers=self._workers(),
            initializer=_init_process_worker,
            initargs=(self._config, _worker_env()),
        ) as pool:
            assessed_shards = pool.map(
                _assess_shard_in_process,
                tasks,
                timeout=self._retry_policy.deadline_s,
            )
            for shard, assessed in zip(shards, assessed_shards):
                for sid, assessment in zip(shard, assessed):
                    results[sid] = assessment
        return {sid: results[sid] for sid in ids}

    # ------------------------------------------------------------------ #
    # maintenance

    def stats(self) -> Dict[str, object]:
        """Serving counters: states, memo hits, calibration reuse."""
        folds = sum(s.n_folds for s in self._states.values())
        verdict_hits = sum(s.n_cache_hits for s in self._states.values())
        extensions = sum(s.n_count_extensions for s in self._states.values())
        recomputes = sum(s.n_count_recomputes for s in self._states.values())
        calibrator = getattr(self._assessor.behavior_test, "calibrator", None)
        payload: Dict[str, object] = {
            "servers": len(self._states),
            "assessments": self.n_assessments,
            "assessment_cache_hits": self.n_assessment_cache_hits,
            "folds": folds,
            "verdict_cache_hits": verdict_hits,
            "count_extensions": extensions,
            "count_recomputes": recomputes,
        }
        if calibrator is not None:
            hits, misses = calibrator.cache_stats
            payload["calibration_hits"] = hits
            payload["calibration_misses"] = misses
            payload["degraded_calibrations"] = calibrator.degraded_calibrations
        if self._calibration_cache is not None:
            payload["calibration_cache"] = self._calibration_cache.stats()
        payload["degradations"] = self.n_degradations
        payload["last_degradation"] = self.last_degradation
        payload["breakers"] = {
            mode: breaker.state for mode, breaker in self._breakers.items()
        }
        payload["executor_retries"] = self._retry_policy.stats()
        return payload

    def save_cache(self, path: Optional[str] = None) -> Optional[str]:
        """Persist the calibration cache (no-op without one attached)."""
        if self._calibration_cache is None:
            return None
        return self._calibration_cache.save(path)

    def close(self) -> None:
        """Detach from the ledger; the service can be garbage collected."""
        if self._ledger is not None and self._ledger_callback is not None:
            self._ledger.unsubscribe(self._ledger_callback)
        self._ledger = None
        self._ledger_callback = None


class _NullTester:
    """Stand-in tester for screening-disabled assessors (never consulted)."""

    name = "null"

    def test(self, history):
        raise AssertionError("null tester must never be consulted")
