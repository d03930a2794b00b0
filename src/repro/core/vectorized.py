"""Batched vectorized phase-1 folds — the cold-path engine.

The incremental engine makes *warm* re-assessment cheap; the first
assessment of a server (or a whole cold fleet after a restart) would
still pay one :func:`~repro.core.multi_testing.run_suffix_rounds` pass
per server.  :func:`fold_cold_batch` replaces that with whole-shard
numpy passes over the columnar layout: every history's window counts in
one :func:`~repro.feedback.windows.batched_window_counts` call, every
suffix round's histogram/distance as one row of a cumulative matrix, and
the calibrator consulted once per *unique* ``(k, p_key)`` round shape
instead of once per server.

Verdicts are bit-identical to the scalar path — the same integer sums,
the same float64 division order, the same
:func:`~repro.stats.binomial.binomial_pmf_many` rows, and the same
threshold walk (:func:`~repro.core.multi_testing.judge_rounds`) — which
the equivalence suites assert verdict-for-verdict.  The kernel only
supports the configuration the fast path serves (``optimized``
:class:`~repro.core.multi_testing.MultiBehaviorTest` with the L1
distance); anything else raises so callers fall back to the scalar
path explicitly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..feedback.windows import batched_window_counts
from ..obs import runtime as _obs
from ..stats.binomial import binomial_pmf_many
from .multi_testing import MultiBehaviorTest, judge_rounds
from .verdict import BehaviorVerdict, MultiTestReport

__all__ = ["fold_cold_batch", "supports_vectorized"]

#: Cap on windows held in the cumulative one-hot matrix at once; bounds
#: peak memory at roughly ``chunk * (m + 2) * 16`` bytes.
_CHUNK_WINDOWS = 1_000_000


def supports_vectorized(tester) -> bool:
    """Whether ``tester`` is a configuration the kernel reproduces."""
    return (
        isinstance(tester, MultiBehaviorTest)
        and tester.strategy == "optimized"
        and tester.config.distance == "l1"
    )


def fold_cold_batch(
    histories: Sequence[np.ndarray], tester: MultiBehaviorTest
) -> List[Tuple[MultiTestReport, Optional[np.ndarray]]]:
    """Phase-1 multi-test verdicts for many histories in one pass.

    ``histories`` is a sequence of 1-D 0/1 outcome arrays (oldest
    first).  Returns, per history and in order, ``(report, counts)``
    where ``report`` equals ``tester.test(history)`` bit-for-bit and
    ``counts`` is the recent-aligned window-count array the verdict was
    computed from (``None`` for insufficient histories) — ready to seed
    an :class:`~repro.core.incremental.IncrementalBehaviorState`.
    """
    if not supports_vectorized(tester):
        raise ValueError(
            "fold_cold_batch requires an optimized MultiBehaviorTest with "
            "the l1 distance; use the scalar path for other testers"
        )
    cfg = tester.config
    m = cfg.window_size
    floor = cfg.min_transactions
    insufficient_passed = cfg.on_insufficient == "pass"

    results: List[Optional[Tuple[MultiTestReport, Optional[np.ndarray]]]] = [
        None
    ] * len(histories)
    lengths = np.array([int(np.asarray(h).size) for h in histories], dtype=np.int64)

    # short histories never enter the vectorized pass
    for i in np.nonzero(lengths < floor)[0]:
        verdict = BehaviorVerdict.insufficient_history(
            passed=insufficient_passed,
            window_size=m,
            n_considered=int(lengths[i]),
        )
        results[i] = (
            MultiTestReport(
                passed=verdict.passed, rounds=((int(lengths[i]), verdict),)
            ),
            None,
        )

    eligible = np.nonzero(lengths >= floor)[0]
    if eligible.size:
        with _obs.timer("core.vectorized.seconds"):
            _fold_eligible(
                histories, lengths, eligible, tester, results
            )
        if _obs.enabled:
            _obs.registry.inc("core.vectorized.batches")
            _obs.registry.inc("core.vectorized.servers", int(eligible.size))
    return results  # type: ignore[return-value]


def _fold_eligible(
    histories: Sequence[np.ndarray],
    lengths: np.ndarray,
    eligible: np.ndarray,
    tester: MultiBehaviorTest,
    results: List,
) -> None:
    cfg = tester.config
    m = cfg.window_size
    ks = lengths[eligible] // m
    # One threshold memo across chunks: the calibrator consults one
    # shared rng stream, so repeat (k, p_key) shapes must not re-enter it.
    thr_memo: dict = {}
    # chunk eligible servers so the cumulative matrices stay bounded
    start = 0
    while start < eligible.size:
        end = start + 1
        windows = int(ks[start])
        while end < eligible.size and windows + int(ks[end]) <= _CHUNK_WINDOWS:
            windows += int(ks[end])
            end += 1
        _fold_chunk(
            histories, lengths, eligible[start:end], tester, results, thr_memo
        )
        start = end


def _fold_chunk(
    histories: Sequence[np.ndarray],
    lengths: np.ndarray,
    chunk: np.ndarray,
    tester: MultiBehaviorTest,
    results: List,
    thr_memo: dict,
) -> None:
    cfg = tester.config
    m = cfg.window_size
    floor = cfg.min_transactions
    step = cfg.multi_step
    calibrator = tester.calibrator
    collect_all = tester.collect_all
    n_srv = int(chunk.size)

    # ---- window counts for the whole chunk in one vectorized pass ----
    n = lengths[chunk]
    offsets = np.zeros(n_srv + 1, dtype=np.int64)
    np.cumsum(n, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    for i, idx in enumerate(chunk):
        flat[offsets[i] : offsets[i + 1]] = np.asarray(histories[idx])
    counts_flat = batched_window_counts(flat, offsets, m)
    ks = n // m
    co = np.zeros(n_srv + 1, dtype=np.int64)  # per-server window offsets
    np.cumsum(ks, out=co[1:])
    total_k = int(co[-1])

    # ---- cumulative per-value one-hot and cumulative good counts ----
    # CS[b] - CS[a] = histogram of counts_flat[a:b]; CG likewise for the
    # total good transactions.  Integer cumsums keep every value exact
    # (int32 suffices: a chunk holds at most _CHUNK_WINDOWS windows).
    onehot = np.zeros((total_k + 1, m + 1), dtype=np.int32)
    onehot[np.arange(1, total_k + 1), counts_flat] = 1
    cs = np.cumsum(onehot, axis=0)
    cg = np.zeros(total_k + 1, dtype=np.int64)
    np.cumsum(counts_flat, out=cg[1:])

    # ---- flat round enumeration: (server, ascending suffix index) ----
    rounds_per_srv = (n - floor) // step + 1
    total_rounds = int(rounds_per_srv.sum())
    srv = np.repeat(np.arange(n_srv), rounds_per_srv)
    round_starts = np.zeros(n_srv, dtype=np.int64)
    np.cumsum(rounds_per_srv[:-1], out=round_starts[1:])
    j = np.arange(total_rounds, dtype=np.int64) - np.repeat(round_starts, rounds_per_srv)
    suffix_len = n[srv] - (rounds_per_srv[srv] - 1 - j) * step
    wants = suffix_len // m

    # ---- per-round histogram rows, p_hat, distances ----
    ends = co[srv + 1]
    hist = (cs[ends] - cs[ends - wants]).astype(np.float64)
    good = cg[ends] - cg[ends - wants]
    observed = hist / wants[:, None].astype(np.float64)
    p_hat = good.astype(np.float64) / (wants * m).astype(np.float64)
    uniq_p, inv_p = np.unique(p_hat, return_inverse=True)
    expected = binomial_pmf_many(m, uniq_p)
    distances = np.abs(observed - expected[inv_p]).sum(axis=1)

    # ---- per-server threshold walk: the one run_suffix_rounds uses ----
    # judge_rounds consults thresholds lazily, in exactly the order the
    # scalar path does (ascending suffixes, stopping at the first
    # failure): the calibrator draws its Monte-Carlo sets from one shared
    # rng stream, so the sequence of calibration cache misses — not just
    # the set of keys — is part of the bit-parity contract.  ``thr_memo``
    # only short-circuits repeat (k, p_key) shapes; the first
    # consultation per shape still goes through the calibrator, exactly
    # as the scalar walk's first miss would.  Plain-python lists
    # throughout: the walk touches every round once and numpy scalar
    # indexing would dominate it.
    pk_uniq = [calibrator.quantize_p(float(p)) for p in uniq_p.tolist()]
    inv_l = inv_p.tolist()
    wants_l = wants.tolist()
    p_l = p_hat.tolist()
    memo_before = len(thr_memo)

    def threshold(r: int) -> float:
        key = (wants_l[r], pk_uniq[inv_l[r]])
        thr = thr_memo.get(key)
        if thr is None:
            thr = thr_memo[key] = calibrator.threshold(m, wants_l[r], p_l[r])
        return thr

    walks = map(range, round_starts.tolist(), (round_starts + rounds_per_srv).tolist())
    judged = judge_rounds(
        walks,
        suffix_len.tolist(),
        wants_l,
        p_l,
        distances.tolist().__getitem__,
        threshold,
        window_size=m,
        collect_all=collect_all,
    )
    co_l = co.tolist()
    for s, (idx, rounds) in enumerate(zip(chunk.tolist(), judged)):
        rounds.reverse()  # ascending walk -> longest-suffix-first report
        # the decisive round: the first failure in report order, else
        # the full-history round
        for _, decisive in rounds:
            if not decisive.passed:
                break
        else:
            decisive = rounds[0][1]
        report = MultiTestReport(
            decisive.passed,
            decisive.distance,
            decisive.threshold,
            decisive.p_hat,
            decisive.n_windows,
            m,
            decisive.n_considered,
            False,
            tuple(rounds),
            None,
        )
        results[idx] = (report, counts_flat[co_l[s] : co_l[s + 1]].copy())
    if _obs.enabled:
        _obs.registry.inc("core.vectorized.rounds", total_rounds)
        _obs.registry.inc(
            "core.vectorized.threshold_calls", len(thr_memo) - memo_before
        )
