"""Binomial distribution utilities.

The honest-player model of the paper states that the number of good
transactions inside a window of ``m`` transactions conducted by an honest
server with trustworthiness ``p`` follows a binomial distribution
``B(m, p)``.  This module provides the pmf/cdf machinery, sampling and
maximum-likelihood estimation used throughout the behavior tests.

All pmf computations are done in plain numpy (stable for the small ``m``
used by the paper, m <= a few hundred) with a scipy fallback for large
``m``; sampling uses :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
from scipy import stats as _sps

from .rng import SeedLike, make_rng

__all__ = [
    "BinomialDistribution",
    "binomial_pmf",
    "binomial_pmf_many",
    "binomial_cdf",
    "sample_window_counts",
    "estimate_p",
]

# Above this number of trials the explicit log-factorial accumulation is
# no longer worth it and we defer to scipy's implementation.
_SCIPY_THRESHOLD = 512


@lru_cache(maxsize=None)  # one entry per m <= _SCIPY_THRESHOLD at most
def _log_terms(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(support, log C(m, support), m - support)`` for ``B(m, .)``.

    Built once per ``m`` from cumulative log-factorials and shared,
    read-only, by every pmf of that ``m``.  The support vectors are
    float64; their integers are exact, so the products are unchanged.
    """
    support = np.arange(m + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + 1)))))
    log_comb = log_fact[m] - log_fact[support] - log_fact[m - support]
    terms = (support.astype(np.float64), log_comb, (m - support).astype(np.float64))
    for arr in terms:
        arr.flags.writeable = False
    return terms


def binomial_pmf(m: int, p: float) -> np.ndarray:
    """Return the full pmf vector of ``B(m, p)`` over support ``0..m``.

    The vector has length ``m + 1`` and sums to 1 (up to floating point).
    Degenerate probabilities ``p in {0, 1}`` yield point masses.  The
    result is a fresh array the caller may modify.
    """
    _validate_m(m)
    _validate_p(p)
    if p == 0.0 or p == 1.0:
        pmf = np.zeros(m + 1)
        pmf[0 if p == 0.0 else m] = 1.0
        return pmf
    if m > _SCIPY_THRESHOLD:
        return _sps.binom.pmf(np.arange(m + 1), m, p)
    # log C(m, g) + g log p + (m - g) log(1 - p): one vectorized
    # expression over the support
    support, log_comb, rest = _log_terms(m)
    pmf = np.exp(log_comb + support * np.log(p) + rest * np.log1p(-p))
    return pmf / pmf.sum()


def binomial_pmf_many(m: int, ps: np.ndarray) -> np.ndarray:
    """Pmf vectors of ``B(m, p)`` for many ``p`` at once; shape ``(len(ps), m+1)``.

    Row ``i`` is bit-identical to ``binomial_pmf(m, ps[i])`` — the same
    elementwise log-space expression evaluated in the same order, just
    broadcast over a batch — so vectorized callers agree with scalar
    callers to the last ulp.  Every row is computed in one pass; the
    point masses at ``p in {0, 1}`` are patched in afterwards.  For ``m``
    beyond the scipy threshold it defers to per-``p`` scalar calls.
    """
    _validate_m(m)
    ps = np.asarray(ps, dtype=np.float64)
    # the common case, every rate strictly inside (0, 1), in two reductions
    # (a NaN fails both comparisons)
    patch = ps.size > 0 and not (ps.min() > 0.0 and ps.max() < 1.0)
    if patch:
        interior = (ps > 0.0) & (ps < 1.0)
        for p in ps[~interior].tolist():
            _validate_p(p)  # raises on the first rate outside [0, 1]
    if m > _SCIPY_THRESHOLD:
        return np.stack([binomial_pmf(m, p) for p in ps.tolist()])
    support, log_comb, rest = _log_terms(m)
    # a placeholder rate keeps log(0) out of the point-mass rows
    p_col = (np.where(interior, ps, 0.5) if patch else ps)[:, None]
    pmf = np.exp(log_comb + support * np.log(p_col) + rest * np.log1p(-p_col))
    pmf /= pmf.sum(axis=1, keepdims=True)
    if patch:
        pmf[~interior] = 0.0
        pmf[ps == 0.0, 0] = 1.0
        pmf[ps == 1.0, m] = 1.0
    return pmf


def binomial_cdf(m: int, p: float) -> np.ndarray:
    """Return the cdf vector of ``B(m, p)`` over support ``0..m``."""
    cdf = np.cumsum(binomial_pmf(m, p))
    cdf[-1] = 1.0
    return cdf


def sample_window_counts(
    m: int, p: float, k: int, *, seed: SeedLike = None
) -> np.ndarray:
    """Draw ``k`` window counts from ``B(m, p)``.

    This simulates the per-window good-transaction counts of an honest
    player with trust value ``p`` across ``k`` windows of size ``m``.
    """
    _validate_m(m)
    _validate_p(p)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    rng = make_rng(seed)
    return rng.binomial(m, p, size=k)


def estimate_p(counts: np.ndarray, m: int) -> float:
    """Maximum-likelihood estimate of ``p`` from window counts.

    For iid ``B(m, p)`` samples the MLE is the total number of successes
    divided by the total number of trials — exactly the paper's
    ``p_hat = sum(G_i) / n``.
    """
    _validate_m(m)
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("cannot estimate p from an empty sample")
    if counts.min() < 0 or counts.max() > m:
        raise ValueError(f"window counts must lie in [0, {m}]")
    return float(counts.sum()) / (m * counts.size)


@dataclass(frozen=True)
class BinomialDistribution:
    """An immutable ``B(m, p)`` with cached pmf access.

    A lightweight value object passed between the model, the calibrator
    and the tests; hashable so it can key caches.
    """

    m: int
    p: float

    def __post_init__(self) -> None:
        _validate_m(self.m)
        _validate_p(self.p)

    @property
    def mean(self) -> float:
        return self.m * self.p

    @property
    def variance(self) -> float:
        return self.m * self.p * (1.0 - self.p)

    def pmf(self) -> np.ndarray:
        """Full pmf vector over ``0..m`` (computed on demand)."""
        return binomial_pmf(self.m, self.p)

    def cdf(self) -> np.ndarray:
        """Full cdf vector over ``0..m``."""
        return binomial_cdf(self.m, self.p)

    def sample(self, k: int, *, seed: SeedLike = None) -> np.ndarray:
        """Draw ``k`` window counts from this distribution."""
        return sample_window_counts(self.m, self.p, k, seed=seed)


def _validate_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m <= 0:
        raise ValueError(f"window size m must be a positive integer, got {m!r}")


def _validate_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p must lie in [0, 1], got {p!r}")
