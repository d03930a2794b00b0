"""Empirical calibration of the distribution-distance threshold ε.

Sec. 3.2: deriving the exact distribution of the L1 distance between an
empirical window-count distribution and its generating binomial is
complex, so the paper takes an empirical approach — generate many sample
sets under ``B(m, p_hat)``, measure their distances, and pick ε as the
value under which the configured fraction (95%) of null distances fall.

The calibrator is the hot path of every experiment: the strategic
attacker consults the behavior test before *each* transaction, and every
consultation needs a threshold for the current ``(m, k, p_hat)``.  Every
threshold is a pure function of ``(seed, m, k, p_key, n_sets,
confidence, distance)``, so it does not matter which keys were asked
before it, and a miss is cheap:

* thresholds are cached keyed on ``(m, k, quantized p_hat)`` — ``p_hat``
  moves slowly during an attack, so the hit rate is high.  A hit is one
  dict lookup: the raw ``(m, k, p_hat)`` of every answered call maps to
  its threshold in a second memo, and ``quantize_p`` memoizes its grid
  point, both cleared when they reach ``_MAX_RAW`` entries, so
  ``p_quantum=0`` cannot grow them without bound;
* each ``(m, p_key)`` has its own stream of null window counts, drawn
  window-major in blocks of ``_BLOCK_ROWS`` rows of ``n_sets`` counts
  from ``B(m, p_key)``.  Block ``i`` is seeded from ``(seed, m, bits of
  p_key, i)`` alone, so a stream extended in any order, or after a
  failed attempt, holds the same counts.  Set ``s`` of ``k`` windows is
  column ``s`` of the first ``k`` rows: the thresholds of one key at
  different ``k`` share nested prefixes of the same draws; and
* a miss only extends its key's stream to ``k`` rows, then takes one
  ``bincount`` of those rows for every set's histogram, the distances to
  ``B(m, p_key)`` and their percentile.

That miss costs ``O(k * n_sets)``, so the streams only serve
``k <= _STREAM_ROWS``, where it beats a multinomial draw.  A larger
``k`` (long histories: Fig. 9 reaches k = 80,000) draws its sets'
histograms at once with one ``multinomial(k, B(m, p_key))``, seeded from
``(seed, m, bits of p_key, k)`` alone — ``O(n_sets * m)`` whatever ``k``
is, still a pure function of the key, and nothing is kept but the
threshold.  At most ``_MAX_STREAMS`` streams are kept (the oldest is
dropped and redrawn if asked for again), so ``p_quantum=0``, which keys
every distinct rate, cannot grow them without bound.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs import runtime as _obs
from ..resilience import runtime as _res
from ..resilience.retry import RetryExhausted, RetryPolicy
from ..stats.binomial import binomial_pmf
from ..stats.bootstrap import batch_histograms, percentile_threshold
from ..stats.distances import get_distance
from ..stats.rng import SeedLike, derive_seed

__all__ = ["ThresholdCalibrator"]

_log = logging.getLogger(__name__)

_CacheKey = Tuple[int, int, float]

#: window-count rows per drawn block of a key's null stream
_BLOCK_ROWS = 16
#: the most rows a stream holds; a larger k draws a multinomial instead.
#: It is about where the two cost the same per miss (m = 10, n_sets = 400).
_STREAM_ROWS = 256
#: the most (m, p_key) streams kept at once
_MAX_STREAMS = 128
#: the most raw (m, k, p_hat) keys, and raw rates, memoized at once
_MAX_RAW = 1 << 14


def _root_seed(seed: SeedLike) -> int:
    """The integer every block seed derives from: an int seed itself,
    else one 63-bit draw (fresh entropy for ``None``)."""
    if seed is None or isinstance(seed, np.random.Generator):
        return derive_seed(np.random.default_rng(seed))
    root = int(seed)
    if root < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return root


def _remember(memo: dict, key, value):
    """``memo[key] = value``, emptying ``memo`` first when it is full."""
    if len(memo) >= _MAX_RAW:
        memo.clear()
    memo[key] = value
    return value


def _key_rng(root: int, m: int, p: float, index: int) -> np.random.Generator:
    """The generator of draw ``index`` of the ``(m, p)`` key: a block
    number below ``_STREAM_ROWS // _BLOCK_ROWS``, or a ``k`` above
    ``_STREAM_ROWS`` for a multinomial, so the two never share a seed."""
    bits = int(np.float64(p).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([root, m, bits, index]))


def _window_rows(root: int, m: int, p: float, blocks: range, n_sets: int) -> np.ndarray:
    """Blocks ``blocks`` of the ``(m, p)`` null stream, stacked: rows of
    ``n_sets`` window counts drawn from ``B(m, p)``."""
    dtype = np.min_scalar_type(m)
    return np.concatenate(
        [
            _key_rng(root, m, p, i).binomial(m, p, size=(_BLOCK_ROWS, n_sets)).astype(dtype)
            for i in blocks
        ]
    )


class ThresholdCalibrator:
    """Monte-Carlo estimator of the ε threshold with memoization."""

    def __init__(
        self,
        confidence: float = 0.95,
        n_sets: int = 400,
        distance: str = "l1",
        p_quantum: float = 0.01,
        seed: SeedLike = 12345,
        retry_policy: Optional[RetryPolicy] = None,
        stale_fallback: bool = True,
    ):
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
        if n_sets <= 0:
            raise ValueError(f"n_sets must be positive, got {n_sets}")
        if p_quantum < 0:
            raise ValueError(f"p_quantum must be non-negative, got {p_quantum}")
        self._confidence = confidence
        self._n_sets = n_sets
        self._distance_name = distance
        self._distance = get_distance(distance)
        self._p_quantum = p_quantum
        self._root = _root_seed(seed)
        #: (m, p_key) -> (pmf of B(m, p_key), the stream's rows drawn so far)
        self._streams: Dict[Tuple[int, float], Tuple[np.ndarray, np.ndarray]] = {}
        self._cache: Dict[_CacheKey, float] = {}
        #: raw (m, k, p_hat) -> the threshold its cache key holds
        self._raw: Dict[Tuple[int, int, float], float] = {}
        #: raw p_hat -> quantize_p(p_hat)
        self._p_keys: Dict[float, float] = {}
        self._hits = 0
        self._misses = 0
        self._store = None
        # Recovery path for a failing Monte-Carlo pass: bounded retry
        # (every draw is seeded from its key alone, so the retry
        # reproduces the fault-free threshold bit-for-bit), then —
        # retries exhausted — the nearest already-calibrated threshold
        # for the same (m, k) as a *stale* answer,
        # counted in ``degraded_calibrations`` so callers can flag the
        # verdict instead of raising mid-assessment.
        self._retry = retry_policy or RetryPolicy(
            max_attempts=2, base_delay=0.0, name="core.calibration"
        )
        self._stale_fallback = stale_fallback
        self.degraded_calibrations = 0

    # ------------------------------------------------------------------ #

    @property
    def confidence(self) -> float:
        return self._confidence

    @property
    def distance_name(self) -> str:
        return self._distance_name

    @property
    def cache_stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the threshold cache."""
        return (self._hits, self._misses)

    def attach_store(self, store) -> None:
        """Back the in-process memo with a shared threshold store.

        ``store`` needs ``get(key) -> Optional[float]`` and
        ``put(key, value)``; keys are the *full* calibration identity
        ``(m, k, p_key, confidence, n_sets, distance, seed)``, so one
        store (e.g. :class:`repro.serve.CalibrationCache`) can safely
        serve calibrators with different settings or seeds.  Pass
        ``None`` to detach.
        """
        self._store = store

    def _store_key(self, m: int, k: int, p_key: float) -> Tuple:
        return (m, k, p_key, self._confidence, self._n_sets, self._distance_name, self._root)

    def quantize_p(self, p: float) -> float:
        """``p`` snapped to the caching grid.

        The grid never rounds a *non-degenerate* rate onto 0 or 1: the
        null at p in {0, 1} is a point mass with ε = 0, which any history
        that is merely *close* to all-good (p_hat = 0.996, say) would fail
        forever — and an attacker or honest player adding good
        transactions only gets closer to 1 without reaching it, a
        permanent false flag.  Such rates snap to the innermost grid
        point instead; exact 0/1 rates still calibrate degenerately.
        """
        if self._p_quantum == 0:
            return float(p)
        p_key = self._p_keys.get(p)
        if p_key is None:
            p_key = _remember(self._p_keys, p, self._snap(p))
        return p_key

    def _snap(self, p: float) -> float:
        snapped = round(round(p / self._p_quantum) * self._p_quantum, 12)
        if snapped >= 1.0 and p < 1.0:
            return round(1.0 - self._p_quantum, 12)
        if snapped <= 0.0 and p > 0.0:
            return round(self._p_quantum, 12)
        return snapped

    def threshold(self, m: int, k: int, p_hat: float) -> float:
        """ε for a test of ``k`` windows of size ``m`` at rate ``p_hat``."""
        raw = (m, k, p_hat)
        cached = self._raw.get(raw)
        if cached is not None:
            self._hits += 1
            if _obs.enabled:
                _obs.registry.inc("core.calibration.cache_hits")
            return cached
        if m <= 0:
            raise ValueError(f"window size m must be positive, got {m}")
        if k <= 0:
            raise ValueError(f"number of windows k must be positive, got {k}")
        if not 0.0 <= p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
        p_key = self.quantize_p(p_hat)
        key = (m, k, p_key)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            if _obs.enabled:
                _obs.registry.inc("core.calibration.cache_hits")
            return _remember(self._raw, raw, cached)
        if self._store is not None:
            stored = self._store.get(self._store_key(m, k, p_key))
            if stored is not None:
                self._hits += 1
                self._cache[key] = stored
                if _obs.enabled:
                    _obs.registry.inc("core.calibration.store_hits")
                return _remember(self._raw, raw, stored)
        self._misses += 1
        if _obs.enabled:
            _obs.registry.inc("core.calibration.cache_misses")
        try:
            with _obs.timer("core.calibration.seconds"):
                value = self._retry.call(self._calibrate_once, m, k, p_key)
        except RetryExhausted as exc:
            stale = self._stale_threshold(m, k, p_key) if self._stale_fallback else None
            if stale is None:
                raise exc.last_error
            stale_p, value = stale
            self.degraded_calibrations += 1
            _log.warning(
                "calibration failed for (m=%d, k=%d, p=%.4f); serving stale "
                "threshold from p=%.4f (%s)", m, k, p_key, stale_p, exc.last_error,
            )
            _res.emit(
                "calibration_degraded",
                site="core.calibration",
                m=m,
                k=k,
                p_key=p_key,
                stale_p=stale_p,
                error=repr(exc.last_error),
            )
            if _obs.enabled:
                _obs.registry.inc("core.calibration.degraded")
            # deliberately NOT cached: the next consultation re-attempts
            # a fresh calibration rather than pinning the stale value
            return value
        self._cache[key] = value
        if self._store is not None:
            self._store.put(self._store_key(m, k, p_key), value)
        return _remember(self._raw, raw, value)

    def _calibrate_once(self, m: int, k: int, p_key: float) -> float:
        """One (possibly fault-injected) calibration attempt."""
        if _res.armed:
            _res.inject("core.calibration")
        return self._calibrate(m, k, p_key)

    def _stale_threshold(
        self, m: int, k: int, p_key: float
    ) -> Optional[Tuple[float, float]]:
        """The cached threshold for the nearest rate at the same (m, k).

        Returns ``(stale_p, threshold)`` or ``None`` when nothing under
        this (m, k) was ever calibrated — then there is no safe answer
        and the failure must propagate.
        """
        candidates = [
            (abs(cached_p - p_key), cached_p, value)
            for (cm, ck, cached_p), value in self._cache.items()
            if cm == m and ck == k
        ]
        if not candidates:
            return None
        _, stale_p, value = min(candidates)
        return (stale_p, value)

    def null_distances(
        self, m: int, k: int, p: float, *, seed: Optional[SeedLike] = None
    ) -> np.ndarray:
        """The ``n_sets`` Monte-Carlo null distances of ``(m, k, p)``.

        With ``seed=None`` these are the distances the calibrator itself
        draws, so their :func:`percentile_threshold` is
        ``threshold(m, k, p)`` for any ``p`` on the caching grid; another
        ``seed`` gives the distances a calibrator of that seed would use
        (for diagnostics and plots).
        """
        root = self._root if seed is None else _root_seed(seed)
        if k > _STREAM_ROWS:
            pmf = binomial_pmf(m, p)
            hist = _key_rng(root, m, p, k).multinomial(k, pmf, size=self._n_sets)
        else:
            if seed is None:
                pmf, rows = self._stream(m, p, k)
            else:
                pmf = binomial_pmf(m, p)
                blocks = range(-(-k // _BLOCK_ROWS))
                rows = _window_rows(root, m, p, blocks, self._n_sets)
            # set s is column s of the first k rows
            hist = batch_histograms(rows[:k].T, m + 1)
        empirical = hist / k
        if self._distance_name != "l1":
            return np.array([self._distance(row, pmf) for row in empirical])
        empirical -= pmf
        return np.abs(empirical, out=empirical).sum(axis=1)

    def _stream(self, m: int, p: float, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(pmf, rows)`` of the ``(m, p)`` stream, drawn to >= ``k`` rows."""
        entry = self._streams.get((m, p))
        if entry is not None and len(entry[1]) >= k:
            return entry
        if entry is None:
            if len(self._streams) >= _MAX_STREAMS:
                del self._streams[next(iter(self._streams))]
            pmf, drawn = binomial_pmf(m, p), 0
        else:
            pmf, drawn = entry[0], len(entry[1]) // _BLOCK_ROWS
        blocks = range(drawn, -(-k // _BLOCK_ROWS))
        rows = _window_rows(self._root, m, p, blocks, self._n_sets)
        if entry is not None:
            rows = np.concatenate([entry[1], rows])
        self._streams[(m, p)] = (pmf, rows)
        return pmf, rows

    # ------------------------------------------------------------------ #

    def _calibrate(self, m: int, k: int, p: float) -> float:
        return percentile_threshold(self.null_distances(m, k, p), self._confidence)
