"""Empirical distributions over a finite integer support.

The behavior tests compare the *empirical* distribution of per-window
good-transaction counts ``{G_1, ..., G_k}`` against the theoretical
binomial ``B(m, p_hat)``.  This module provides the histogram /
normalization plumbing, including an incremental variant that absorbs
window counts one block at a time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["empirical_pmf", "counts_histogram", "IncrementalHistogram"]


def counts_histogram(samples: Sequence[int], support_size: int) -> np.ndarray:
    """Histogram of integer ``samples`` over support ``0..support_size-1``.

    Raises if any sample falls outside the support — a window can never
    contain more good transactions than its size.
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= support_size):
        raise ValueError(
            f"samples must lie in [0, {support_size - 1}], "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return np.bincount(arr, minlength=support_size).astype(np.float64)


def empirical_pmf(samples: Sequence[int], support_size: int) -> np.ndarray:
    """Normalized empirical pmf of ``samples`` over ``0..support_size-1``."""
    hist = counts_histogram(samples, support_size)
    total = hist.sum()
    if total == 0:
        raise ValueError("cannot form an empirical pmf from zero samples")
    return hist / total


class IncrementalHistogram:
    """A histogram over ``0..support_size-1`` supporting O(1) updates.

    Suited to walks that grow a sample a few windows at a time (e.g. from
    the most recent suffix of a history toward the full history, as in
    Sec. 5.5): each addition is constant-time per window, and the
    normalized pmf and total-successes count stay available throughout.
    """

    def __init__(self, support_size: int):
        if support_size <= 0:
            raise ValueError(f"support_size must be positive, got {support_size}")
        self._support_size = support_size
        self._counts = np.zeros(support_size, dtype=np.float64)
        self._n_samples = 0
        self._total_value = 0

    @property
    def support_size(self) -> int:
        return self._support_size

    @property
    def n_samples(self) -> int:
        """Number of window counts accumulated so far."""
        return self._n_samples

    @property
    def total_value(self) -> int:
        """Sum of all accumulated window counts (= total good transactions)."""
        return self._total_value

    def add(self, value: int) -> None:
        """Add a single window count."""
        if not 0 <= value < self._support_size:
            raise ValueError(
                f"value {value} outside support [0, {self._support_size - 1}]"
            )
        self._counts[value] += 1.0
        self._n_samples += 1
        self._total_value += int(value)

    def add_many(self, values: Iterable[int]) -> None:
        """Add window counts one by one (see ``add_block`` for the fast path)."""
        for value in values:
            self.add(int(value))

    def add_block(self, values: np.ndarray) -> None:
        """Vectorized bulk add (one ``bincount`` per block)."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size == 0:
            return
        if arr.min() < 0 or arr.max() >= self._support_size:
            raise ValueError(
                f"values must lie in [0, {self._support_size - 1}], "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        self._counts += np.bincount(arr, minlength=self._support_size)
        self._n_samples += int(arr.size)
        self._total_value += int(arr.sum())

    def histogram(self) -> np.ndarray:
        """A *copy* of the raw count vector."""
        return self._counts.copy()

    def pmf(self) -> np.ndarray:
        """Normalized empirical pmf of everything accumulated so far."""
        if self._n_samples == 0:
            raise ValueError("cannot form a pmf from zero samples")
        return self._counts / self._n_samples

    def mean_rate(self, window_size: int) -> float:
        """``p_hat`` implied by the accumulated windows of ``window_size``."""
        if self._n_samples == 0:
            raise ValueError("no samples accumulated")
        return self._total_value / (self._n_samples * window_size)
