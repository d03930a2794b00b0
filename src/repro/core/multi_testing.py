"""Multi-testing of server behavior — Scheme 2 (Sec. 3.3 and Sec. 5.5).

A long history dilutes recent misbehavior, so the single test is prone to
hibernating attacks.  Multi-testing re-runs the distribution test on
progressively shorter *recent* suffixes: the full ``l`` transactions,
then the most recent ``l - k``, ``l - 2k``, ... until too few windows
remain.  An honest player's behavior follows the binomial model on every
suffix, so any failing round flags the server.

Two interchangeable implementations are provided:

* ``strategy="naive"`` — re-window and re-estimate every suffix from
  scratch: O(n^2 / k) work, the paper's unoptimized baseline;
* ``strategy="optimized"`` — the paper's O(n) refinement: windows are
  anchored at the newest transaction, so every suffix's windows are a
  *suffix of the full window-count sequence*.  One numpy pass computes
  every round's histogram (a ``bincount`` of the windows each round adds,
  then a running ``cumsum``), ``p_hat``, expected pmf and distance; a
  plain loop then consults the thresholds from the shortest suffix to
  the longest and stops at the first failure.

Both produce identical verdicts (asserted by the test suite); Fig. 9's
performance experiment benchmarks the difference.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..feedback.windows import window_counts
from ..obs import audit as _audit
from ..obs import runtime as _obs
# binomial_pmf stays a module global here: perfbench counts its calls
from ..stats.binomial import binomial_pmf, binomial_pmf_many  # noqa: F401
from ..stats.distances import get_distance
from .calibration import ThresholdCalibrator
from .config import DEFAULT_CONFIG, BehaviorTestConfig
from .testing import HistoryInput, SingleBehaviorTest, _extract_outcomes
from .verdict import BehaviorVerdict, MultiTestReport

__all__ = ["MultiBehaviorTest", "judge_rounds", "run_suffix_rounds"]

_STRATEGIES = ("optimized", "naive")


def judge_rounds(
    walks: Iterable[range],
    lengths: Sequence[int],
    wants: Sequence[int],
    p_hats: Sequence[float],
    distance: Callable[[int], float],
    threshold: Callable[[int], float],
    *,
    window_size: int,
    collect_all: bool,
) -> List[List[Tuple[int, BehaviorVerdict]]]:
    """Turn precomputed suffix rounds into verdicts, shortest suffix first.

    Each of ``walks`` is one history's rounds, as indices into the
    per-round sequences in ascending-suffix order; round ``r`` covers
    ``lengths[r]`` transactions in ``wants[r]`` windows at rate
    ``p_hats[r]``.  ``distance(r)`` and ``threshold(r)`` are consulted
    lazily: only when the window count changes (an unchanged window set
    reuses the previous verdict), and never after a walk's first failing
    round unless ``collect_all``.  The calibrator draws from one shared
    rng stream, so this order of threshold consultations is part of
    every verdict.  Returns one list of ``(length, verdict)`` per walk.
    """
    m = window_size
    judged: List[List[Tuple[int, BehaviorVerdict]]] = []
    for walk in walks:
        rounds: List[Tuple[int, BehaviorVerdict]] = []
        verdict: Optional[BehaviorVerdict] = None
        last_want = -1
        for r in walk:
            w = wants[r]
            if w != last_want:
                d = distance(r)
                thr = float(threshold(r))
                verdict = BehaviorVerdict(d <= thr, d, thr, p_hats[r], w, m, w * m)
                last_want = w
            rounds.append((lengths[r], verdict))
            if not verdict.passed and not collect_all:
                break
        judged.append(rounds)
    return judged


def run_suffix_rounds(
    counts: np.ndarray,
    lengths: List[int],
    *,
    window_size: int,
    distance_name: str,
    calibrator: ThresholdCalibrator,
    collect_all: bool = False,
    obs_prefix: str = "core.multi_testing",
) -> List[Tuple[int, BehaviorVerdict]]:
    """The paper's O(n) suffix walk over precomputed window counts.

    ``counts`` is the recent-aligned window-count array of the full
    history and ``lengths`` the suffix lengths, longest first.  Each
    suffix's windows are the most recent ``length // m`` counts, so one
    ``bincount`` of the windows each round adds, summed down the rounds,
    yields every round's histogram; ``p_hat``, the expected pmf and the
    distance follow as whole-array expressions.  Distances past the
    first failing round may be computed, but their thresholds are never
    consulted (see :func:`judge_rounds`).  Returns the judged rounds
    shortest suffix first.  Both :class:`MultiBehaviorTest` and the
    incremental serving engine call this, so their verdicts are
    bit-identical.
    """
    m = window_size
    suffixes = lengths[::-1]  # shortest suffix first
    wants_l = [length // m for length in suffixes]
    wants = np.array(wants_l)
    n_rounds = len(wants_l)
    k_max = wants_l[-1]
    newest_first = counts[counts.size - k_max :][::-1]
    # window j (0 = newest) first enters the round whose count exceeds j
    entered = wants.searchsorted(np.arange(k_max), side="right")
    added = np.bincount(entered * (m + 1) + newest_first, minlength=n_rounds * (m + 1))
    hist = np.add.accumulate(added.reshape(n_rounds, m + 1), axis=0)  # running sum
    good = hist @ np.arange(m + 1)
    p_hat = good / (wants * m)
    observed = hist / wants[:, None]
    expected = binomial_pmf_many(m, p_hat)
    if distance_name == "l1":
        distance = np.abs(observed - expected).sum(axis=1).tolist().__getitem__
    else:
        fn = get_distance(distance_name)

        def distance(r: int) -> float:
            return float(fn(observed[r], expected[r]))

    p_l = p_hat.tolist()
    (judged,) = judge_rounds(
        [range(n_rounds)],
        suffixes,
        wants_l,
        p_l,
        distance,
        lambda r: calibrator.threshold(m, wants_l[r], p_l[r]),
        window_size=m,
        collect_all=collect_all,
    )
    if _obs.enabled:
        # each judged round carries over the previous round's windows
        # and ingests only the ones that entered
        walked = len(judged)
        reused, ingested = sum(wants_l[: walked - 1]), wants_l[walked - 1]
        _obs.registry.inc(f"{obs_prefix}.suffix_reuse", reused, strategy="optimized")
        _obs.registry.inc(
            f"{obs_prefix}.suffix_recomputed", ingested, strategy="optimized"
        )
    return judged


class MultiBehaviorTest:
    """Long- *and* short-term behavior testing over recent suffixes."""

    name = "multi"

    def __init__(
        self,
        config: BehaviorTestConfig = DEFAULT_CONFIG,
        calibrator: Optional[ThresholdCalibrator] = None,
        strategy: str = "optimized",
        collect_all: bool = False,
    ):
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
        if config.align != "recent":
            raise ValueError(
                "multi-testing requires align='recent' so suffixes share "
                "window boundaries (the basis of the O(n) optimization)"
            )
        self._config = config
        self._strategy = strategy
        self._collect_all = collect_all
        self._calibrator = calibrator or ThresholdCalibrator(
            confidence=config.confidence,
            n_sets=config.calibration_sets,
            distance=config.distance,
            p_quantum=config.p_quantum,
        )
        # the naive strategy re-runs this internally; the multi record is
        # the audit source of truth, so the inner test stays silent
        self._single = SingleBehaviorTest(config, self._calibrator, emit_audit=False)

    @property
    def config(self) -> BehaviorTestConfig:
        return self._config

    @property
    def calibrator(self) -> ThresholdCalibrator:
        return self._calibrator

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def collect_all(self) -> bool:
        """Whether rounds after the first failure are still judged."""
        return self._collect_all

    def suffix_lengths(self, n: int) -> List[int]:
        """Suffix lengths tested for a history of ``n`` transactions.

        ``[n, n - k, n - 2k, ...]`` down to the statistical-significance
        floor (``min_windows`` complete windows).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        floor = self._config.min_transactions
        lengths = []
        length = n
        while length >= floor:
            lengths.append(length)
            length -= self._config.multi_step
        return lengths

    def test(self, history: HistoryInput) -> MultiTestReport:
        """Judge all suffixes; fails if any round fails."""
        if _audit.enabled:
            server = getattr(history, "server", None)
            with _audit.trail.decision_scope(server=server):
                return self._test_audited(_extract_outcomes(history))
        return self._test(_extract_outcomes(history))

    def _test_audited(self, outcomes: np.ndarray) -> MultiTestReport:
        report = self._test(outcomes)
        trail = _audit.trail
        if trail.want_record():
            trail.emit(
                _audit.multi_test_record(
                    self.name,
                    config=self._config,
                    outcomes=outcomes,
                    report=report,
                    strategy=self._strategy,
                    include_pmfs=trail.include_pmfs,
                )
            )
        return report

    def _test(self, outcomes: np.ndarray) -> MultiTestReport:
        lengths = self.suffix_lengths(int(outcomes.size))
        if not lengths:
            verdict = BehaviorVerdict.insufficient_history(
                passed=(self._config.on_insufficient == "pass"),
                window_size=self._config.window_size,
                n_considered=int(outcomes.size),
            )
            return MultiTestReport(
                passed=verdict.passed, rounds=((int(outcomes.size), verdict),)
            )
        with _obs.timer("core.multi_testing.seconds", strategy=self._strategy):
            if self._strategy == "naive":
                rounds = self._run_naive(outcomes, lengths)
            else:
                rounds = self._run_optimized(outcomes, lengths)
        passed = all(v.passed for _, v in rounds)
        if _obs.enabled:
            _obs.registry.inc("core.multi_testing.runs", strategy=self._strategy)
            _obs.registry.inc(
                "core.multi_testing.rounds", len(rounds), strategy=self._strategy
            )
            if not passed and not self._collect_all and len(rounds) < len(lengths):
                _obs.registry.inc(
                    "core.multi_testing.early_stops", strategy=self._strategy
                )
        # Present rounds longest-first, the order the paper describes.
        ordered = tuple(sorted(rounds, key=lambda pair: -pair[0]))
        return MultiTestReport(passed=passed, rounds=ordered)

    # ------------------------------------------------------------------ #
    # naive O(n^2 / k): re-test every suffix from scratch

    def _run_naive(
        self, outcomes: np.ndarray, lengths: List[int]
    ) -> List[Tuple[int, BehaviorVerdict]]:
        m = self._config.window_size
        rounds: List[Tuple[int, BehaviorVerdict]] = []
        for length in lengths:
            verdict = self._single.test_outcomes(outcomes[outcomes.size - length :])
            if _obs.enabled:
                # every round re-windows the whole suffix from scratch
                _obs.registry.inc(
                    "core.multi_testing.suffix_recomputed", length // m, strategy="naive"
                )
            rounds.append((length, verdict))
            if not verdict.passed and not self._collect_all:
                break
        return rounds

    # ------------------------------------------------------------------ #
    # optimized O(n): every suffix round in one pass over the window counts

    def _run_optimized(
        self, outcomes: np.ndarray, lengths: List[int]
    ) -> List[Tuple[int, BehaviorVerdict]]:
        m = self._config.window_size
        counts = window_counts(outcomes, m, align="recent")
        return run_suffix_rounds(
            counts,
            lengths,
            window_size=m,
            distance_name=self._config.distance,
            calibrator=self._calibrator,
            collect_all=self._collect_all,
        )
