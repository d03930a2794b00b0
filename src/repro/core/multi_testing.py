"""Multi-testing of server behavior — Scheme 2 (Sec. 3.3 and Sec. 5.5).

A long history dilutes recent misbehavior, so the single test is prone to
hibernating attacks.  Multi-testing re-runs the distribution test on
progressively shorter *recent* suffixes: the full ``l`` transactions,
then the most recent ``l - k``, ``l - 2k``, ... until too few windows
remain.  An honest player's behavior follows the binomial model on every
suffix, so any failing round flags the server.

``strategy="naive"`` re-windows and re-estimates every suffix from
scratch: O(n^2 / k) work, the paper's unoptimized baseline that Fig. 9
times.  ``strategy="optimized"`` is the paper's O(n) refinement and the
one optimized walk: windows are anchored at the newest transaction, so
every suffix's windows are a *suffix of the full window-count
sequence*.  One numpy pass computes every round's histogram, ``p_hat``,
expected pmf and distance; a plain loop then consults the thresholds
from the shortest suffix to the longest and stops at the first failure.
Both strategies give identical verdicts (asserted by the test suite).

The same walk judges one history (``MultiBehaviorTest.test``) or many
at once (:func:`fold_cold_batch`, the serving cold path): every
history's windows back to back, one running histogram down all their
rounds, and each later history's rounds less the running row just
before its first.  Its reports build their round verdicts only when
``rounds`` is read (:meth:`MultiTestReport.of_rows`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .verdict import BehaviorVerdict, MultiTestReport, ReorderTrace, SuffixRows

__all__ = [
    "MultiBehaviorTest",
    "fold_cold_batch",
    "insufficient_report",
    "run_suffix_rounds",
    "suffix_report",
    "supports_vectorized",
]

_STRATEGIES = ("optimized", "naive")

#: Cap on windows :func:`fold_cold_batch` folds in one pass; bounds the
#: walk's per-window arrays.
_CHUNK_WINDOWS = 1 << 16

Rounds = List[Tuple[int, BehaviorVerdict]]


def suffix_report(
    rounds: Sequence[Tuple[int, BehaviorVerdict]],
    reorder: Optional[ReorderTrace] = None,
) -> MultiTestReport:
    """The report over judged suffix rounds, given longest suffix first
    (the order the paper describes); it fails iff any round failed."""
    return MultiTestReport.of_rounds(rounds, reorder)


def insufficient_report(
    config: BehaviorTestConfig, n: int, reorder: Optional[ReorderTrace] = None
) -> MultiTestReport:
    """The one-round report for a history too short for any suffix round."""
    verdict = BehaviorVerdict.insufficient_history(
        passed=(config.on_insufficient == "pass"),
        window_size=config.window_size,
        n_considered=n,
    )
    return MultiTestReport(passed=verdict.passed, rounds=((n, verdict),), reorder=reorder)


def _walk(
    counts: np.ndarray,
    ends: np.ndarray,
    bounds: Sequence[int],
    lengths: List[int],
    threshold: Callable[[int, float], float],
    *,
    window_size: int,
    distance_name: str,
    collect_all: bool,
) -> Tuple[List[list], List[Tuple[int, int, int]]]:
    """The paper's O(n) suffix walk over one or more histories.

    ``counts`` holds every history's window counts, newest first, back
    to back.  History ``h``'s rounds are rows ``bounds[h]`` up to
    ``bounds[h + 1]``, shortest suffix first: round ``r`` judges the
    most recent ``lengths[r]`` transactions, whose windows run up to
    ``ends[r]`` in ``counts``.  A longest suffix spans its whole
    history, so the next history's windows start where its last round
    ends.

    One ``searchsorted`` puts each window in the first round it enters,
    one ``bincount`` counts the windows each round adds, and one running
    sum down the rounds gives every round's histogram from the first
    window on; each later history's rounds then drop the running row
    just before its first round, and ``ends - base`` are the rounds'
    window counts.  ``p_hat``, the expected pmfs (one
    :func:`binomial_pmf_many` call) and L1 distances are whole-array
    expressions.  Other distances and ``threshold(k, p_hat)`` are
    consulted lazily: only when the window count changes (an unchanged
    window set shares the previous verdict), and never after a
    history's first failing round unless ``collect_all``, so no walk
    pays for a threshold its verdict does not use.

    Returns the rounds' columns (see :class:`SuffixRows`) and, per
    history, its judged rows ``lo`` up to ``stop`` and its decisive row.
    """
    m = window_size
    n_rounds = ends.size
    entered = ends.searchsorted(np.arange(counts.size), side="right")
    added = np.bincount(entered * (m + 1) + counts, minlength=n_rounds * (m + 1))
    hist = np.add.accumulate(added.reshape(n_rounds, m + 1), axis=0)  # running sum
    wants = ends
    if len(bounds) > 2:
        # each later round's base: the running row before its history
        before = np.repeat(np.array(bounds[1:-1]) - 1, np.diff(bounds[1:]))
        hist[bounds[1] :] -= hist[before]
        wants = ends.copy()
        wants[bounds[1] :] -= ends[before]
    p_hat = (hist @ np.arange(m + 1)) / (wants * m)
    observed = hist / wants[:, None]
    expected = binomial_pmf_many(m, p_hat)
    if distance_name == "l1":
        fn, dist = None, np.abs(observed - expected).sum(axis=1).tolist()
    else:
        fn, dist = get_distance(distance_name), [0.0] * n_rounds
    wants_l, p_l, thr = wants.tolist(), p_hat.tolist(), [0.0] * n_rounds
    judged: List[Tuple[int, int, int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        last_want, failed = -1, None
        for r in range(lo, hi):
            w = wants_l[r]
            if w != last_want:
                last_want, first = w, r
                if fn is not None:
                    dist[r] = float(fn(observed[r], expected[r]))
                t = thr[r] = float(threshold(w, p_l[r]))
                passed = dist[r] <= t
            if not passed:
                failed = first  # the longest failure is the decisive one
                if not collect_all:
                    break
        judged.append((lo, r + 1, first if failed is None else failed))
    return [lengths, wants_l, dist, thr, p_l], judged


def _suffix_rows(
    counts: np.ndarray,
    lengths: List[int],
    m: int,
    distance_name: str,
    calibrator: ThresholdCalibrator,
    collect_all: bool,
    obs_prefix: str = "core.multi_testing",
) -> Tuple[SuffixRows, int]:
    """One history's walk (see :func:`run_suffix_rounds`): its judged
    rows and its decisive row."""
    suffixes = lengths[::-1]  # shortest suffix first
    ends = np.array([length // m for length in suffixes])
    k_max = suffixes[-1] // m
    columns, ((_, walked, decisive),) = _walk(
        counts[counts.size - k_max :][::-1],
        ends,
        (0, ends.size),
        suffixes,
        partial(calibrator.threshold, m),
        window_size=m,
        distance_name=distance_name,
        collect_all=collect_all,
    )
    if _obs.enabled:
        # each judged round carries over the previous round's windows
        # and ingests only the ones that entered
        reused, ingested = int(ends[: walked - 1].sum()), int(ends[walked - 1])
        _obs.registry.inc(f"{obs_prefix}.suffix_reuse", reused, strategy="optimized")
        _obs.registry.inc(
            f"{obs_prefix}.suffix_recomputed", ingested, strategy="optimized"
        )
    if walked < ends.size:
        columns = [column[:walked] for column in columns]
    return SuffixRows(columns, m), decisive


def run_suffix_rounds(
    counts: np.ndarray,
    lengths: List[int],
    *,
    window_size: int,
    distance_name: str,
    calibrator: ThresholdCalibrator,
    collect_all: bool = False,
    obs_prefix: str = "core.multi_testing",
) -> Rounds:
    """The suffix walk over one history's precomputed window counts.

    ``counts`` is the recent-aligned window-count array of the full
    history and ``lengths`` the suffix lengths, longest first.  Returns
    the judged rounds shortest suffix first.
    """
    rows, _ = _suffix_rows(
        counts, lengths, window_size, distance_name, calibrator, collect_all, obs_prefix
    )
    return rows.verdicts()


def supports_vectorized(tester) -> bool:
    """Whether ``tester`` is the optimized walk that :func:`fold_cold_batch`
    reproduces."""
    return isinstance(tester, MultiBehaviorTest) and tester.strategy == "optimized"


def fold_cold_batch(
    histories: Sequence[HistoryInput], tester: "MultiBehaviorTest"
) -> List[MultiTestReport]:
    """Phase-1 multi-test reports for many histories in one pass.

    ``histories`` holds :class:`~repro.feedback.history.TransactionHistory`
    objects or 1-D 0/1 outcome arrays (oldest first; validated like
    ``tester.test``'s).  Returns, in order, reports equal to
    ``tester.test(history)`` bit-for-bit: every history's rounds run
    through one suffix walk, and the batch asks the calibrator for
    exactly the thresholds the one-history walks would.
    """
    if not supports_vectorized(tester):
        raise ValueError(
            "fold_cold_batch requires an optimized MultiBehaviorTest; "
            "use the scalar path for other testers"
        )
    cfg = tester.config
    m = cfg.window_size
    reports: List[Optional[MultiTestReport]] = [None] * len(histories)
    # the judged histories, in chunks of at most _CHUNK_WINDOWS windows
    # (a longer history gets a chunk of its own)
    chunks: List[Tuple[List[int], List[np.ndarray]]] = []
    windows = 0
    for i, history in enumerate(histories):
        arr = _extract_outcomes(history)
        if arr.size < cfg.min_transactions:
            reports[i] = insufficient_report(cfg, int(arr.size))
            continue
        k = arr.size // m
        if not chunks or windows + k > _CHUNK_WINDOWS:
            chunks.append(([], []))
            windows = 0
        chunks[-1][0].append(i)
        chunks[-1][1].append(arr)
        windows += k
    # One threshold memo across the batch: the calibrator is consulted
    # once per (k, p_key) shape, since a threshold depends on nothing
    # else.  Only other histories can repeat a shape: within one, every
    # consulted k is new.
    shapes: Dict[Tuple[int, float], float] = {}
    quantize, consult = tester.calibrator.quantize_p, tester.calibrator.threshold

    def threshold(k: int, p_hat: float) -> float:
        key = (k, quantize(p_hat))
        thr = shapes.get(key)
        if thr is None:
            thr = shapes[key] = consult(m, k, p_hat)
        return thr

    with _obs.timer("core.vectorized.seconds"):
        for chunk, arrays in chunks:
            # every history's windows, newest first, back to back (a
            # window read backwards holds the same count), and its
            # rounds, shortest suffix first
            counts = (
                np.concatenate([arr[arr.size % m :][::-1] for arr in arrays])
                .reshape(-1, m)
                .sum(axis=1, dtype=np.int64)
            )
            lengths: List[int] = []
            ends: List[int] = []
            bounds = [0]
            for arr in arrays:
                first = ends[-1] if ends else 0
                schedule = cfg.suffix_lengths(arr.size)[::-1]
                lengths += schedule
                ends += [first + length // m for length in schedule]
                bounds.append(len(lengths))
            columns, judged = _walk(
                counts,
                np.array(ends),
                bounds,
                lengths,
                threshold,
                window_size=m,
                distance_name=cfg.distance,
                collect_all=tester.collect_all,
            )
            for i, (lo, stop, decisive) in zip(chunk, judged):
                rows = SuffixRows([column[lo:stop] for column in columns], m)
                reports[i] = MultiTestReport.of_rows(rows, decisive - lo)
            if _obs.enabled:
                _obs.registry.inc("core.vectorized.rounds", len(lengths))
    if _obs.enabled and chunks:
        _obs.registry.inc("core.vectorized.batches")
        _obs.registry.inc("core.vectorized.servers", sum(len(c) for c, _ in chunks))
    return reports  # type: ignore[return-value]


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
        lengths = self._config.suffix_lengths(int(outcomes.size))
        if not lengths:
            return insufficient_report(self._config, int(outcomes.size))
        m = self._config.window_size
        with _obs.timer("core.multi_testing.seconds", strategy=self._strategy):
            if self._strategy == "naive":
                rounds = self._run_naive(outcomes, lengths)
                report = suffix_report(rounds)
            else:
                rounds, decisive = _suffix_rows(
                    window_counts(outcomes, m, align="recent"),
                    lengths,
                    m,
                    self._config.distance,
                    self._calibrator,
                    self._collect_all,
                )
                report = MultiTestReport.of_rows(rounds, decisive)
        if _obs.enabled:
            _obs.registry.inc("core.multi_testing.runs", strategy=self._strategy)
            _obs.registry.inc(
                "core.multi_testing.rounds", len(rounds), strategy=self._strategy
            )
            if not report.passed and not self._collect_all and len(rounds) < len(lengths):
                _obs.registry.inc(
                    "core.multi_testing.early_stops", strategy=self._strategy
                )
        return report

    # naive O(n^2 / k): re-test every suffix from scratch
    def _run_naive(self, outcomes: np.ndarray, lengths: List[int]) -> Rounds:
        m = self._config.window_size
        rounds: Rounds = []
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
