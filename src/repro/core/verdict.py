"""Result objects returned by the behavior tests and the two-phase assessor.

One frozen :class:`BehaviorVerdict` dataclass is the unified phase-1
result type: every tester (single, multi, collusion-resilient,
categorized, segmented, temporal, multinomial) returns a
``BehaviorVerdict`` — composite testers return a subclass that carries
its per-round verdicts in the shared ``rounds`` field while presenting
the same aggregate surface (``passed``, ``distance``, ``epsilon``,
``margin``) as a plain single-test verdict.  Collusion-resilient tests
additionally attach a :class:`ReorderTrace` describing the
issuer-grouped reordering their verdict was computed on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Tuple, Union

__all__ = [
    "ReorderTrace",
    "BehaviorVerdict",
    "MultiTestReport",
    "AssessmentStatus",
    "Assessment",
]

#: Key of one composite-test round: a suffix length (multi-testing), a
#: category / bucket name (categorized, temporal), or a segment start.
RoundKey = Union[int, str]

#: Largest number of issuer groups a ReorderTrace enumerates — supporter
#: bases reach thousands of clients, the verdict must stay lightweight.
_REORDER_TOP = 32


def _frozen(cls, fields: dict):
    """An instance of the frozen dataclass ``cls`` holding ``fields``
    (every field), set in one ``__dict__`` assignment instead of the
    generated ``__init__``'s ``object.__setattr__`` per field."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


@dataclass(frozen=True)
class ReorderTrace:
    """Provenance of the issuer-grouped reordering Q -> Q' (Sec. 4).

    ``group_sizes`` lists feedback-group sizes in the reordered
    (descending) order, truncated to the largest ``_REORDER_TOP`` groups
    when the supporter base is large.
    """

    n_feedbacks: int
    n_groups: int
    group_sizes: Tuple[int, ...]
    truncated: bool = False

    @classmethod
    def from_feedbacks(cls, feedbacks) -> "ReorderTrace":
        """Summarize the issuer grouping of a feedback sequence."""
        sizes = {}
        for fb in feedbacks:
            sizes[fb.client] = sizes.get(fb.client, 0) + 1
        ordered = sorted(sizes.values(), reverse=True)
        return cls(
            n_feedbacks=len(feedbacks),
            n_groups=len(ordered),
            group_sizes=tuple(ordered[:_REORDER_TOP]),
            truncated=len(ordered) > _REORDER_TOP,
        )


@dataclass(frozen=True)
class BehaviorVerdict:
    """Outcome of one behavior test — the unified phase-1 result.

    For a plain single test the numeric fields describe that one
    distribution-distance comparison.  Composite testers populate
    ``rounds`` with their per-round verdicts and surface the *decisive*
    round's numbers (the first failing round, or the primary round when
    all passed) in the aggregate fields, so ``verdict.distance`` and
    ``verdict.epsilon`` always answer "which comparison decided this".

    ``insufficient`` marks histories too short to judge; in that case
    ``passed`` reflects the configured ``on_insufficient`` policy and the
    numeric fields are zero.  ``reorder`` carries the issuer-grouped
    reordering trace when the verdict was computed on a collusion-
    resilient reordering of the history.
    """

    passed: bool
    distance: float = 0.0
    threshold: float = 0.0
    p_hat: float = 0.0
    n_windows: int = 0
    window_size: int = 0
    n_considered: int = 0
    insufficient: bool = False
    rounds: Tuple[Tuple[RoundKey, "BehaviorVerdict"], ...] = ()
    reorder: Optional[ReorderTrace] = None

    @property
    def margin(self) -> float:
        """``threshold - distance``; negative means the test failed."""
        return self.threshold - self.distance

    @property
    def epsilon(self) -> float:
        """The calibrated distance threshold ε (alias of ``threshold``)."""
        return self.threshold

    @property
    def n_rounds(self) -> int:
        """Number of composite rounds (0 for a plain single-test verdict)."""
        return len(self.rounds)

    @property
    def first_failure(self) -> Optional[Tuple[RoundKey, "BehaviorVerdict"]]:
        """The first failing round in report order, if any."""
        for key, verdict in self.rounds:
            if not verdict.passed:
                return (key, verdict)
        return None

    @property
    def worst_margin(self) -> float:
        """Smallest ``threshold - distance`` across judged rounds.

        For a plain verdict (no rounds) this is its own :attr:`margin`;
        rounds marked insufficient are skipped, and a report whose every
        round is insufficient has nothing to rank — ``inf``.
        """
        if not self.rounds:
            return float("inf") if self.insufficient else self.margin
        margins = [v.margin for _, v in self.rounds if not v.insufficient]
        return min(margins) if margins else float("inf")

    @classmethod
    def insufficient_history(
        cls, *, passed: bool, window_size: int, n_considered: int
    ) -> "BehaviorVerdict":
        """The verdict for a history too short to judge."""
        return cls(
            passed=passed,
            distance=0.0,
            threshold=0.0,
            p_hat=0.0,
            n_windows=0,
            window_size=window_size,
            n_considered=n_considered,
            insufficient=True,
        )

    @classmethod
    def judged(
        cls,
        passed: bool,
        distance: float,
        threshold: float,
        p_hat: float,
        n_windows: int,
        window_size: int,
    ) -> "BehaviorVerdict":
        """The verdict of one judged comparison over ``n_windows``
        windows of ``window_size``; equal to the constructor's, and about
        three times cheaper (a suffix walk builds one per round)."""
        return _frozen(
            BehaviorVerdict,
            {
                "passed": passed,
                "distance": distance,
                "threshold": threshold,
                "p_hat": p_hat,
                "n_windows": n_windows,
                "window_size": window_size,
                "n_considered": n_windows * window_size,
                "insufficient": False,
                "rounds": (),
                "reorder": None,
            },
        )

    def _decisive_round(self) -> Optional["BehaviorVerdict"]:
        """The round whose numbers summarize a composite verdict: the
        first failure, else the first judged round, else the first."""
        judged = None
        for _, verdict in self.rounds:
            if not verdict.passed:
                return verdict
            if judged is None and not verdict.insufficient:
                judged = verdict
        return judged or (self.rounds[0][1] if self.rounds else None)

    def _fill_aggregates_from_rounds(self) -> None:
        """Copy the decisive round's numbers into defaulted aggregate fields.

        Called from composite-report ``__post_init__``; uses
        ``object.__setattr__`` because the dataclass is frozen.
        """
        decisive = self._decisive_round()
        if decisive is None:
            return
        untouched = (
            self.distance == 0.0
            and self.threshold == 0.0
            and self.p_hat == 0.0
            and self.n_windows == 0
        )
        if untouched:
            for name in (
                "distance",
                "threshold",
                "p_hat",
                "n_windows",
                "window_size",
                "n_considered",
            ):
                object.__setattr__(self, name, getattr(decisive, name))
        # a judged decisive round means not every round is insufficient
        if (
            decisive.insufficient
            and not self.insufficient
            and all(v.insufficient for _, v in self.rounds)
        ):
            object.__setattr__(self, "insufficient", True)


@dataclass(frozen=True)
class MultiTestReport(BehaviorVerdict):
    """Outcome of multi-testing: one verdict per suffix length.

    ``rounds`` holds ``(suffix_length, verdict)`` pairs ordered from the
    longest suffix (the full history) to the shortest tested; ``passed``
    is True iff every round passed (any failure indicates a potentially
    suspicious server, Sec. 3.3).  The aggregate fields inherited from
    :class:`BehaviorVerdict` describe the decisive round.
    """

    def __post_init__(self) -> None:
        self._fill_aggregates_from_rounds()

    @classmethod
    def of_rounds(
        cls,
        rounds: Iterable[Tuple[RoundKey, BehaviorVerdict]],
        reorder: Optional[ReorderTrace] = None,
    ) -> "MultiTestReport":
        """The report over ``rounds``: passed iff every round passed.

        Equal to ``MultiTestReport(passed=..., rounds=rounds,
        reorder=reorder)``.  When the decisive round is a plain judged
        verdict (every suffix walk's case), its fields are copied in one
        step instead of through the constructor and ``__post_init__``.
        """
        rounds = tuple(rounds)
        failed = next((v for _, v in rounds if not v.passed), None)
        decisive = failed if failed is not None else (rounds[0][1] if rounds else None)
        if type(decisive) is not BehaviorVerdict or decisive.insufficient:
            return cls(passed=failed is None, rounds=rounds, reorder=reorder)
        fields = dict(vars(decisive))
        fields.update(passed=failed is None, rounds=rounds, reorder=reorder)
        return _frozen(cls, fields)


class AssessmentStatus(Enum):
    """Terminal states of the two-phase assessment (Fig. 2)."""

    #: behavior test failed — "Destination peer is suspicious"
    SUSPICIOUS = "suspicious"
    #: behavior test passed and the trust value meets the client threshold
    TRUSTED = "trusted"
    #: behavior test passed but trust value is below the client threshold
    UNTRUSTED = "untrusted"


@dataclass(frozen=True)
class Assessment:
    """Full two-phase result handed back to the client.

    ``degraded`` marks an answer produced on a recovery path (e.g. a
    stale calibration threshold after the Monte-Carlo pass failed
    mid-assessment): still a usable verdict, but one the operator may
    want to re-derive once the fault clears.
    """

    status: AssessmentStatus
    trust_value: Optional[float]
    behavior: Optional[BehaviorVerdict]
    server: str = field(default="server")
    degraded: bool = field(default=False, compare=True)

    @property
    def accepted(self) -> bool:
        """Would a client with the configured threshold transact?"""
        return self.status is AssessmentStatus.TRUSTED

    @property
    def suspicious(self) -> bool:
        return self.status is AssessmentStatus.SUSPICIOUS
