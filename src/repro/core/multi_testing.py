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

:func:`fold_cold_batch` runs the optimized walk over many histories at
once (the serving cold path): every history's windows back to back, one
running histogram over all of them, and each round's histogram as the
difference of two of its rows.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .verdict import BehaviorVerdict, MultiTestReport, ReorderTrace

__all__ = [
    "MultiBehaviorTest",
    "fold_cold_batch",
    "insufficient_report",
    "judge_rounds",
    "run_suffix_rounds",
    "suffix_report",
    "supports_vectorized",
]

_STRATEGIES = ("optimized", "naive")

#: Cap on windows :func:`fold_cold_batch` folds in one pass; bounds its
#: running histogram, ``(windows + 1) x (m + 1)`` int64 (6 MB at m = 10).
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


def judge_rounds(
    hist: np.ndarray,
    wants: np.ndarray,
    lengths: Sequence[int],
    walks: Iterable[range],
    threshold: Callable[[int, float], float],
    *,
    window_size: int,
    distance_name: str,
    collect_all: bool,
) -> List[Rounds]:
    """Verdicts for suffix rounds, from their window-count histograms.

    Row ``r`` of ``hist`` is the integer ``(m + 1)``-bin histogram of the
    ``wants[r]`` windows of a round over ``lengths[r]`` transactions; each
    of ``walks`` is one history's rounds, as row indices in
    ascending-suffix order.  ``p_hat``, the expected pmfs (one
    :func:`binomial_pmf_many` call) and L1 distances are whole-array
    expressions.  Other distances and ``threshold(k, p_hat)`` are
    consulted lazily: only when the window count changes (an unchanged
    window set reuses the previous verdict), and never after a walk's
    first failing round unless ``collect_all``, so no walk pays for a
    threshold its verdict does not use.  Returns one list of
    ``(length, verdict)`` per walk, shortest suffix first.
    """
    m = window_size
    p_hat = (hist @ np.arange(m + 1)) / (wants * m)
    observed = hist / wants[:, None]
    expected = binomial_pmf_many(m, p_hat)
    if distance_name == "l1":
        distance = np.abs(observed - expected).sum(axis=1).tolist().__getitem__
    else:
        fn = get_distance(distance_name)

        def distance(r: int) -> float:
            return float(fn(observed[r], expected[r]))

    wants_l, p_l = wants.tolist(), p_hat.tolist()
    judged: List[Rounds] = []
    for walk in walks:
        rounds: Rounds = []
        verdict: Optional[BehaviorVerdict] = None
        last_want = -1
        for r in walk:
            w = wants_l[r]
            if w != last_want:
                d = distance(r)
                thr = float(threshold(w, p_l[r]))
                verdict = BehaviorVerdict.judged(d <= thr, d, thr, p_l[r], w, m)
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
) -> Rounds:
    """The paper's O(n) suffix walk over precomputed window counts.

    ``counts`` is the recent-aligned window-count array of the full
    history and ``lengths`` the suffix lengths, longest first.  Each
    suffix's windows are the most recent ``length // m`` counts, so one
    ``bincount`` of the windows each round adds, summed down the rounds,
    yields every round's histogram for :func:`judge_rounds`.  Returns the
    judged rounds shortest suffix first.  Both :class:`MultiBehaviorTest`
    and the incremental serving engine call this, so their verdicts are
    bit-identical.
    """
    m = window_size
    suffixes = lengths[::-1]  # shortest suffix first
    wants = np.array([length // m for length in suffixes])
    n_rounds = wants.size
    k_max = suffixes[-1] // m
    newest_first = counts[counts.size - k_max :][::-1]
    # window j (0 = newest) first enters the round whose count exceeds j
    entered = wants.searchsorted(np.arange(k_max), side="right")
    added = np.bincount(entered * (m + 1) + newest_first, minlength=n_rounds * (m + 1))
    hist = np.add.accumulate(added.reshape(n_rounds, m + 1), axis=0)  # running sum
    (judged,) = judge_rounds(
        hist,
        wants,
        suffixes,
        [range(n_rounds)],
        partial(calibrator.threshold, m),
        window_size=m,
        distance_name=distance_name,
        collect_all=collect_all,
    )
    if _obs.enabled:
        # each judged round carries over the previous round's windows
        # and ingests only the ones that entered
        walked = len(judged)
        reused, ingested = int(wants[: walked - 1].sum()), int(wants[walked - 1])
        _obs.registry.inc(f"{obs_prefix}.suffix_reuse", reused, strategy="optimized")
        _obs.registry.inc(
            f"{obs_prefix}.suffix_recomputed", ingested, strategy="optimized"
        )
    return judged


def supports_vectorized(tester) -> bool:
    """Whether ``tester`` is the optimized walk that :func:`fold_cold_batch`
    and the incremental serving state reproduce."""
    return isinstance(tester, MultiBehaviorTest) and tester.strategy == "optimized"


def fold_cold_batch(
    histories: Sequence[HistoryInput], tester: "MultiBehaviorTest"
) -> List[MultiTestReport]:
    """Phase-1 multi-test reports for many histories in one pass.

    ``histories`` holds :class:`~repro.feedback.history.TransactionHistory`
    objects or 1-D 0/1 outcome arrays (oldest first; validated like the
    scalar path's).  Returns, in order, reports equal to
    ``tester.test(history)`` bit-for-bit: every history's rounds run back
    to back through the suffix walk's arithmetic, and the batch asks the
    calibrator for exactly the thresholds the scalar walks would.
    """
    if not supports_vectorized(tester):
        raise ValueError(
            "fold_cold_batch requires an optimized MultiBehaviorTest; "
            "use the scalar path for other testers"
        )
    cfg = tester.config
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
        k = arr.size // cfg.window_size
        if not chunks or windows + k > _CHUNK_WINDOWS:
            chunks.append(([], []))
            windows = 0
        chunks[-1][0].append(i)
        chunks[-1][1].append(arr)
        windows += k
    # One threshold memo across chunks: the calibrator is consulted once
    # per (k, p_key) shape, since a threshold depends on nothing else.
    shapes: Dict[Tuple[int, float], float] = {}
    with _obs.timer("core.vectorized.seconds"):
        for chunk, arrays in chunks:
            for i, report in zip(chunk, _fold_chunk(arrays, tester, shapes)):
                reports[i] = report
    if _obs.enabled and chunks:
        _obs.registry.inc("core.vectorized.batches")
        _obs.registry.inc("core.vectorized.servers", sum(len(c) for c, _ in chunks))
    return reports  # type: ignore[return-value]


def _fold_chunk(
    outcomes: List[np.ndarray],
    tester: "MultiBehaviorTest",
    shapes: Dict[Tuple[int, float], float],
) -> List[MultiTestReport]:
    cfg = tester.config
    m = cfg.window_size
    # every history's windows, newest first, back to back (a window read
    # backwards holds the same count)
    counts = (
        np.concatenate([arr[arr.size % m :][::-1] for arr in outcomes])
        .reshape(-1, m)
        .sum(axis=1, dtype=np.int64)
    )
    # cum[j] is the histogram of the first j of those windows, so a
    # round's histogram is the difference of two of its rows
    cum = np.zeros((counts.size + 1, m + 1), dtype=np.int64)
    cum[np.arange(1, counts.size + 1), counts] = 1
    np.cumsum(cum, axis=0, out=cum)
    # every history's rounds, shortest suffix first, back to back
    lengths: List[int] = []
    ends: List[int] = []
    starts: List[int] = []
    bounds = [0]
    first = 0  # the history's first window
    for arr in outcomes:
        schedule = cfg.suffix_lengths(arr.size)[::-1]
        lengths += schedule
        ends += [first + length // m for length in schedule]
        starts += [first] * len(schedule)
        bounds.append(len(lengths))
        first += arr.size // m
    end_rows, start_rows = np.array(ends), np.array(starts)
    hist = cum[end_rows] - cum[start_rows]

    quantize, consult = tester.calibrator.quantize_p, tester.calibrator.threshold

    def threshold(k: int, p_hat: float) -> float:
        key = (k, quantize(p_hat))
        thr = shapes.get(key)
        if thr is None:
            thr = shapes[key] = consult(m, k, p_hat)
        return thr

    judged = judge_rounds(
        hist,
        end_rows - start_rows,
        lengths,
        map(range, bounds[:-1], bounds[1:]),
        threshold,
        window_size=m,
        distance_name=cfg.distance,
        collect_all=tester.collect_all,
    )
    if _obs.enabled:
        _obs.registry.inc("core.vectorized.rounds", len(lengths))
    return [suffix_report(rounds[::-1]) for rounds in judged]


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
            else:
                rounds = run_suffix_rounds(
                    window_counts(outcomes, m, align="recent"),
                    lengths,
                    window_size=m,
                    distance_name=self._config.distance,
                    calibrator=self._calibrator,
                    collect_all=self._collect_all,
                )[::-1]
        report = suffix_report(rounds)
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
