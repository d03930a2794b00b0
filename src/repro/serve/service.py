"""Batched incremental assessment service.

:class:`AssessmentService` is the serving facade over the two-phase
pipeline: it keeps one :class:`~repro.core.incremental.IncrementalBehaviorState`
per server, folds feedback as it arrives (directly or via a subscribed
:class:`~repro.feedback.ledger.FeedbackLedger`), memoizes phase-1
verdicts and whole assessments, and answers bulk trust queries through
:meth:`AssessmentService.assess_many` in one serial sweep.

Serving runs in one process: the speed comes from the phase-1 verdict
memo keyed by history length, the whole-assessment memo and the
vectorized cold-path prefold, not from parallelism.  The phase-1 ε
thresholds do not tie it there: each is a pure function of its key and
the calibrator's seed, so any calibrator with the same settings and
seed answers with the same thresholds.

Assessments are bit-identical to per-call
:meth:`~repro.core.two_phase.TwoPhaseAssessor.assess`: phase 1 is the
tester's own ``test`` (or the batch kernel's bit-identical reports),
and the assessor's :meth:`~repro.core.two_phase.TwoPhaseAssessor.decide`
turns it into the assessment; the service adds only the ``degraded``
flag.  Fresh assessments leave the assessor's audit records (memo hits
never re-log; a kernel-seeded verdict carries no rounds).

Every ``assess_many`` request runs under a root
:class:`~repro.obs.context.TraceContext` (minted unless the caller
already attached one), so its spans, resilience events, and audit
records all carry the request's trace_id.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.config import AssessorConfig
from ..core.incremental import IncrementalBehaviorState
from ..core.multi_testing import fold_cold_batch, supports_vectorized
from ..core.two_phase import Assessor, TwoPhaseAssessor
from ..core.verdict import Assessment
from ..feedback.history import TransactionHistory
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import EntityId, Feedback
from ..obs import context as _ctx
from ..obs import runtime as _obs
from ..resilience import runtime as _res
from ..resilience.faults import InjectedFault, ResilienceError
from ..trust.base import LedgerTrustFunction
from .cache import CalibrationCache

__all__ = ["AssessmentService"]


class AssessmentService:
    """Incremental, batched serving of two-phase assessments.

    Construct from exactly one of:

    * ``assessor=`` — an existing :class:`TwoPhaseAssessor`; or
    * ``config=`` — an :class:`~repro.core.config.AssessorConfig`, from
      which the assessor is built through the registries.

    Parameters
    ----------
    ledger:
        Attach to a system ledger: existing servers are registered in
        one pass (:meth:`~repro.feedback.ledger.FeedbackLedger.histories`),
        a server registers when a fold gives it its first live row (the
        ledger's server subscription), and phase 2 receives the ledger
        (required by PeerTrust / EigenTrust-style schemes).
    calibration_cache:
        A :class:`~repro.serve.cache.CalibrationCache` to back the
        behavior test's ε-threshold calibrator (shared across services
        and persisted across runs).
    executor:
        ``"serial"``, the only mode; kept so callers can state it.
    vectorized:
        Use the batched cold-path fold
        (:func:`~repro.core.multi_testing.fold_cold_batch`): when an
        ``assess_many`` sweep finds cold states and the tester
        qualifies, their phase-1 verdicts are folded in one call and
        seeded into the incremental states before the per-server walk
        (which then hits the verdict cache).  Verdicts are bit-identical
        either way; the warm incremental path is untouched.

    **Faults.**  Recovery happens where the fault lands: the calibrator
    retries a failed Monte-Carlo pass and, failing that, serves a stale
    threshold flagged as ``degraded``.  When an injected fault escapes
    the sweep anyway (a cold calibrator has no stale candidate),
    ``assess_many`` raises one
    :class:`~repro.resilience.faults.ResilienceError` naming the
    originating site.
    """

    def __init__(
        self,
        assessor: Optional[TwoPhaseAssessor] = None,
        *,
        config: Optional[AssessorConfig] = None,
        ledger: Optional[FeedbackLedger] = None,
        calibration_cache: Optional[CalibrationCache] = None,
        executor: str = "serial",
        vectorized: bool = True,
    ):
        if (assessor is None) == (config is None):
            raise ValueError("pass exactly one of assessor= or config=")
        if executor != "serial":
            raise ValueError(f"executor must be 'serial', got {executor!r}")
        self._config = config
        self._assessor = assessor if assessor is not None else Assessor.from_config(config)
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
        for history in ledger.histories().values():
            self._register(history)

        def _on_servers(servers: List[EntityId]) -> None:
            # the ledger held nothing for these: a state left is stale
            for server in servers:
                self._forget(server)
                self._register(ledger.history(server))

        self._ledger_callback = _on_servers
        ledger.subscribe_servers(_on_servers)

    def add_server(self, server) -> EntityId:
        """Register a server; returns its id.

        ``server`` is either a :class:`TransactionHistory` (registered
        as-is, sharing the live object) or a bare server id (registered
        with a fresh empty history).  Registering an id twice is a no-op;
        registering a *different* history under an existing id is an
        error.  With a ledger attached, every server it holds is already
        registered to its live history: ``server`` must be such a
        server's id or that history; anything else is an error.
        """
        if self._ledger is not None:
            sid = server.server if isinstance(server, TransactionHistory) else server
            state = self._states.get(sid)
            if state is None or server is not sid and server is not state.history:
                raise ValueError(
                    f"a ledger-attached service serves only the ledger's own "
                    f"history of a server it holds, not this one for {sid!r}"
                )
            return sid
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
        self._forget(history.server)
        if _obs.enabled:
            _obs.registry.inc("serve.service.server_replacements")
        return self._register(history)

    def remove_server(self, server: EntityId) -> None:
        """Forget ``server``: drop its incremental state and memoized
        assessment.  While an attached ledger still holds it, this is
        :meth:`invalidate`; otherwise the server registers afresh at its
        next first live row (the repair path's reset of a server to an
        empty stream leaves nothing to judge until then)."""
        if self._ledger is not None and server in self._ledger and server in self._states:
            self.invalidate(server)
        else:
            self._forget(server)

    def _forget(self, server: EntityId) -> None:
        self._states.pop(server, None)
        self._assessment_cache.pop(server, None)

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
        assessment = self._assessor.audited(history, self._judge, state)
        self.n_assessments += 1
        # degraded answers (stale calibration threshold) are served but
        # never memoized: the next query retries the real computation
        if self._cacheable_trust and not assessment.degraded:
            self._assessment_cache[server] = (n, assessment)
        if _obs.enabled:
            _obs.registry.inc("serve.service.assessments")
            if assessment.degraded:
                _obs.registry.inc("serve.service.degraded_assessments")
            # a plain histogram observation, not a span: CI's serve
            # health check needs the distribution, a span per assessment
            # would not stay bounded across 100k-server sweeps
            _obs.registry.observe(
                "serve.assess.seconds", time.perf_counter() - start
            )
        return assessment

    def _judge(
        self, history: TransactionHistory, state: IncrementalBehaviorState
    ) -> Assessment:
        """The assessor's phase rule over the state's phase-1 verdict."""
        behavior = None
        calibrator = getattr(self._assessor.behavior_test, "calibrator", None)
        stale_before = (
            calibrator.degraded_calibrations if calibrator is not None else 0
        )
        if self._assessor.behavior_test is not None:
            behavior = state.verdict()
        assessment = self._assessor.decide(history, behavior, ledger=self._ledger)
        if calibrator is not None and calibrator.degraded_calibrations > stale_before:
            # phase 1 answered off a stale calibration threshold —
            # usable, but flagged so the caller can re-derive later
            return replace(assessment, degraded=True)
        return assessment

    def assess_many(
        self, server_ids: Optional[Iterable[EntityId]] = None
    ) -> Dict[EntityId, Assessment]:
        """Assess a batch of servers (default: every registered server).

        Results come back as ``{server_id: Assessment}`` in input order.
        An unknown id raises ``KeyError``; an injected fault that no
        recovery path absorbed raises one
        :class:`~repro.resilience.faults.ResilienceError`.
        """
        ids = list(server_ids) if server_ids is not None else list(self._states)
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
            with _span("serve.assess_many", batch=len(ids)):
                self._prefold_cold(ids)
                result = self._sweep(ids)
        return result

    def _prefold_cold(self, ids: Sequence[EntityId]) -> None:
        """Batch-fold every cold state's phase 1 and seed the results, so
        the per-server walk below turns into verdict-cache hits.

        Seeds are discarded when the batch answered off a stale
        calibration threshold, so the per-server walk can re-derive and
        flag the assessment as degraded.  Skipped entirely when faults
        are armed: the batch memoizes a degraded (uncached) threshold for
        the rest of the batch and raises an escaping fault outside
        :meth:`_sweep`, so the calibration fault site would see a
        different sequence of consultations than the per-server walk,
        and chaos runs must replay bit-identically.
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
        if not cold:
            return
        calibrator = getattr(tester, "calibrator", None)
        stale_before = (
            calibrator.degraded_calibrations if calibrator is not None else 0
        )
        folded = fold_cold_batch([state.history for state in cold], tester)
        if (
            calibrator is not None
            and calibrator.degraded_calibrations > stale_before
        ):
            return
        for state, report in zip(cold, folded):
            state.seed_phase1(report)
        self.n_vector_prefolds += 1
        self.n_vector_seeded += len(cold)
        if _obs.enabled:
            _obs.registry.inc("serve.service.vector_prefolds")
            _obs.registry.inc("serve.service.vector_seeded", len(cold))

    def _sweep(self, ids: Sequence[EntityId]) -> Dict[EntityId, Assessment]:
        """The per-server walk; an escaping injected fault becomes one
        structured error."""
        try:
            return {sid: self.assess(sid) for sid in ids}
        except InjectedFault as fault:
            raise ResilienceError(fault.site, [("serial", repr(fault))]) from fault

    # ------------------------------------------------------------------ #
    # maintenance

    def stats(self) -> Dict[str, object]:
        """Serving counters: states, memo hits, calibration reuse."""
        folds = sum(s.n_folds for s in self._states.values())
        verdict_hits = sum(s.n_cache_hits for s in self._states.values())
        recomputes = sum(s.n_recomputes for s in self._states.values())
        calibrator = getattr(self._assessor.behavior_test, "calibrator", None)
        payload: Dict[str, object] = {
            "servers": len(self._states),
            "assessments": self.n_assessments,
            "assessment_cache_hits": self.n_assessment_cache_hits,
            "folds": folds,
            "verdict_cache_hits": verdict_hits,
            # window counts are always taken afresh; the key stays for
            # readers of the old extend/recompute split
            "count_extensions": 0,
            "count_recomputes": recomputes,
        }
        if calibrator is not None:
            hits, misses = calibrator.cache_stats
            payload["calibration_hits"] = hits
            payload["calibration_misses"] = misses
            payload["degraded_calibrations"] = calibrator.degraded_calibrations
        if self._calibration_cache is not None:
            payload["calibration_cache"] = self._calibration_cache.stats()
        return payload

    def save_cache(self, path: Optional[str] = None) -> Optional[str]:
        """Persist the calibration cache (no-op without one attached)."""
        if self._calibration_cache is None:
            return None
        return self._calibration_cache.save(path)

    def close(self) -> None:
        """Detach from the ledger; the service can be garbage collected."""
        if self._ledger is not None and self._ledger_callback is not None:
            self._ledger.unsubscribe_servers(self._ledger_callback)
        self._ledger = None
        self._ledger_callback = None


class _NullTester:
    """Stand-in tester for screening-disabled assessors (never consulted)."""

    name = "null"

    def test(self, history):
        raise AssertionError("null tester must never be consulted")
