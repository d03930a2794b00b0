"""The ecosystem simulation engine.

Drives a population of servers (honest players, drifting players,
scripted attackers) and clients through discrete time steps under the
paper's interaction model:

1. each step, every client decides per server whether to request service
   (the Sec. 5.2 arrival model, driven by the server's current public
   reputation and the client's last experience with that server);
2. a requesting client assesses the server with the configured two-phase
   assessor (Fig. 2); it transacts only on a ``TRUSTED`` verdict and
   records why it refused otherwise;
3. a transaction's outcome comes from the server's behavior model and the
   resulting feedback is appended to the feedback store — by default a
   central :class:`~repro.feedback.ledger.FeedbackLedger`, optionally a
   :class:`~repro.p2p.store.DistributedFeedbackStore` so the whole
   ecosystem runs over the DHT substrate.

The engine is deliberately policy-free: which behavior test and trust
function the clients use is entirely captured by the assessor, so the
same scenario can be replayed under different defenses — exactly what the
integration tests and the ecosystem examples need.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.two_phase import TwoPhaseAssessor
from ..core.verdict import AssessmentStatus
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import EntityId, Feedback, Rating
from ..obs import audit as _audit
from ..obs import runtime as _obs
from ..stats.rng import SeedLike, make_rng
from ..trust.base import LedgerTrustFunction
from .arrival import ArrivalModel, ClientStateTable
from .metrics import SimulationMetrics
from .server import ServerBehavior

__all__ = ["ReputationSimulation"]

_ENGINES = ("direct", "incremental")


class ReputationSimulation:
    """A closed ecosystem of servers, clients and one shared ledger."""

    def __init__(
        self,
        servers: Dict[EntityId, ServerBehavior],
        clients: Sequence[EntityId],
        assessor: TwoPhaseAssessor,
        arrival: ArrivalModel = ArrivalModel(),
        bootstrap_transactions: int = 0,
        exploration: float = 0.0,
        prior_histories: Optional[Dict[EntityId, "Sequence[int]"]] = None,
        feedback_store=None,
        seed: SeedLike = None,
        engine: str = "direct",
    ):
        """``bootstrap_transactions`` seeds each server with that many
        transactions from unconditional clients (round-robin) before
        assessment starts — new servers have no history, and the paper
        notes short histories must be handled by other mechanisms.

        ``exploration`` is the probability that a client transacts despite
        a refusing assessment (the paper's "relax behavior testing so we
        can choose service from new servers" for low-risk transactions).
        Without it a false-positive flag is an absorbing state: the
        server's history freezes and the flag can never clear.

        ``prior_histories`` maps a server id to an outcome sequence that
        is written into the ledger before the simulation starts — how an
        attacker *enters* with an already-established reputation (the
        paper's preparation phase) instead of having to build it live.

        ``feedback_store`` is any object with ``record`` / ``servers`` /
        ``history`` (a fresh central ledger by default; pass a
        ``DistributedFeedbackStore`` for a decentralized deployment).
        Ledger-based trust functions (PeerTrust, EigenTrust, HTrust) need
        the full per-client query surface and therefore require the
        default central ledger.

        ``engine`` selects how the hot loop assesses: ``"direct"`` calls
        the assessor per decision (the historical behavior, required for
        per-decision audit records); ``"incremental"`` routes through an
        :class:`~repro.serve.AssessmentService` whose per-server state
        memoizes phase-1 verdicts between feedback events — identical
        decisions, much cheaper on workloads where assessments outnumber
        transactions.  The incremental engine needs the central ledger's
        subscription hook."""
        if not servers:
            raise ValueError("need at least one server")
        if not clients:
            raise ValueError("need at least one client")
        overlap = set(servers) & set(clients)
        if overlap:
            raise ValueError(f"ids used as both server and client: {sorted(overlap)}")
        self._servers = dict(servers)
        self._clients = list(clients)
        self._assessor = assessor
        self._arrival = arrival
        self._rng = make_rng(seed)
        self._ledger = feedback_store if feedback_store is not None else FeedbackLedger()
        if isinstance(assessor.trust_function, LedgerTrustFunction) and not isinstance(
            self._ledger, FeedbackLedger
        ):
            raise ValueError(
                "ledger-based trust functions need the full FeedbackLedger "
                "query surface; use the default central store with "
                f"{type(assessor.trust_function).__name__}"
            )
        self._states: Dict[EntityId, ClientStateTable] = {
            s: ClientStateTable(self._clients, arrival) for s in self._servers
        }
        self._metrics = SimulationMetrics()
        self._time = 0.0
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        self._engine = engine
        self._service = None
        if engine == "incremental":
            if not isinstance(self._ledger, FeedbackLedger):
                raise ValueError(
                    "engine='incremental' needs the central FeedbackLedger's "
                    "subscription hook; use the default feedback store"
                )
            from ..serve import AssessmentService

            self._service = AssessmentService(assessor, ledger=self._ledger)
        if not 0.0 <= exploration <= 1.0:
            raise ValueError(f"exploration must lie in [0, 1], got {exploration}")
        self._exploration = exploration
        if bootstrap_transactions < 0:
            raise ValueError("bootstrap_transactions must be non-negative")
        self._seed_prior_histories(prior_histories or {})
        self._bootstrap(bootstrap_transactions)

    # ------------------------------------------------------------------ #

    @property
    def ledger(self):
        """The feedback store (central ledger unless one was injected)."""
        return self._ledger

    @property
    def metrics(self) -> SimulationMetrics:
        return self._metrics

    @property
    def time(self) -> float:
        return self._time

    @property
    def engine(self) -> str:
        """The assessment engine mode (``"direct"`` or ``"incremental"``)."""
        return self._engine

    def reputation_of(self, server: EntityId) -> float:
        """The public (phase 2) reputation clients currently see."""
        trust_fn = self._assessor.trust_function
        if server not in self._ledger.servers():
            return 0.0
        if isinstance(trust_fn, LedgerTrustFunction):
            return trust_fn.score_server(server, self._ledger)
        return trust_fn.score(self._ledger.history(server))

    def assess(self, server: EntityId):
        """Run the configured two-phase assessment on a server."""
        if self._service is not None and server in self._service.servers():
            return self._service.assess(server)
        ledger = self._ledger if isinstance(self._ledger, FeedbackLedger) else None
        return self._assessor.assess(self._ledger.history(server), ledger=ledger)

    # ------------------------------------------------------------------ #

    def run(self, steps: int) -> SimulationMetrics:
        """Advance the simulation ``steps`` steps; returns the metrics."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self._metrics

    def step(self) -> None:
        """One simulation step: arrivals, assessments, transactions."""
        with _obs.timer("simulation.step_seconds"):
            self._time += 1.0
            self._metrics.steps += 1
            if _obs.enabled:
                _obs.registry.inc("simulation.steps")
            for server_id, behavior in self._servers.items():
                self._step_server(server_id, behavior)

    # ------------------------------------------------------------------ #

    def _step_server(self, server_id: EntityId, behavior: ServerBehavior) -> None:
        reputation = self._clamp(self.reputation_of(server_id))
        requesters = self._states[server_id].sample_requesters(
            reputation, seed=self._rng
        )
        stats = self._metrics.server(server_id)
        for client in requesters:
            stats.requests += 1
            if _obs.enabled:
                _obs.registry.inc("simulation.requests")
            if not self._client_accepts(server_id, client, stats):
                continue
            outcome = behavior.next_outcome(self._rng)
            feedback = Feedback(
                time=self._time,
                server=server_id,
                client=client,
                rating=Rating.POSITIVE if outcome else Rating.NEGATIVE,
            )
            self._ledger.record(feedback)
            self._states[server_id].record_service(client, outcome)
            stats.transactions += 1
            stats.good_transactions += outcome
            if _obs.enabled:
                _obs.registry.inc("simulation.transactions")
                _obs.registry.inc("simulation.good_transactions", int(outcome))

    def _client_accepts(self, server_id: EntityId, client: EntityId, stats) -> bool:
        if server_id not in self._ledger.servers():
            # no history at all: the paper's position is that fresh
            # servers are a high-risk group needing other mechanisms; we
            # let the first transactions through so histories can form.
            return True
        ledger = self._ledger if isinstance(self._ledger, FeedbackLedger) else None
        stats.assessments += 1
        if _obs.enabled:
            _obs.registry.inc("simulation.assessments")
        if self._service is not None and not _audit.enabled:
            # the serving fast path: memoized phase-1 verdicts, identical
            # decisions; audit runs fall through to the direct assessor so
            # per-decision provenance records keep flowing
            assessment = self._service.assess(server_id)
        elif _audit.enabled:
            # Outermost decision scope: the assessor's nested scope joins
            # this one, so the per-tick routing context (who asked, when)
            # lands on every record and sampling counts one decision per
            # routed request — the knob that keeps long runs bounded.
            with _audit.trail.decision_scope(
                step=int(self._time), client=str(client), server=str(server_id)
            ):
                assessment = self._assessor.assess(
                    self._ledger.history(server_id), ledger=ledger
                )
        else:
            assessment = self._assessor.assess(
                self._ledger.history(server_id), ledger=ledger
            )
        if assessment.status is AssessmentStatus.TRUSTED:
            return True
        if self._exploration and self._rng.random() < self._exploration:
            return True  # a risk-tolerant client transacts anyway
        if assessment.status is AssessmentStatus.SUSPICIOUS:
            stats.refusals_suspicious += 1
            if _obs.enabled:
                _obs.registry.inc("simulation.refusals", reason="suspicious")
        else:
            stats.refusals_trust += 1
            if _obs.enabled:
                _obs.registry.inc("simulation.refusals", reason="trust")
        return False

    def _seed_prior_histories(self, prior_histories) -> None:
        """Write pre-existing reputations into the ledger (round-robin clients)."""
        for server_id, outcomes in prior_histories.items():
            if server_id not in self._servers:
                raise ValueError(f"prior history for unknown server {server_id!r}")
            for i, outcome in enumerate(outcomes):
                outcome = int(outcome)
                if outcome not in (0, 1):
                    raise ValueError(
                        f"prior outcomes must be binary, got {outcome!r}"
                    )
                self._time += 1.0
                client = self._clients[i % len(self._clients)]
                self._ledger.record(
                    Feedback(
                        time=self._time,
                        server=server_id,
                        client=client,
                        rating=Rating.POSITIVE if outcome else Rating.NEGATIVE,
                    )
                )
                self._states[server_id].record_service(client, outcome)

    def _bootstrap(self, per_server: int) -> None:
        """Seed histories before assessment-gated interaction starts."""
        for _ in range(per_server):
            self._time += 1.0
            for server_id, behavior in self._servers.items():
                client = self._clients[
                    int(self._rng.integers(0, len(self._clients)))
                ]
                outcome = behavior.next_outcome(self._rng)
                self._ledger.record(
                    Feedback(
                        time=self._time,
                        server=server_id,
                        client=client,
                        rating=Rating.POSITIVE if outcome else Rating.NEGATIVE,
                    )
                )
                self._states[server_id].record_service(client, outcome)

    @staticmethod
    def _clamp(value: float) -> float:
        return min(max(value, 0.0), 1.0)
