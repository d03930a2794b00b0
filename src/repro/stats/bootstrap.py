"""Monte-Carlo / bootstrap helpers for null-distribution estimation.

The paper calibrates the distribution-distance threshold empirically
(Sec. 3.2): generate many sample sets under the null binomial model,
measure each set's L1 distance, and take the 95th percentile.  This
module holds the generic, fully vectorized machinery; the behavior-test
layer (``repro.core.calibration``) adds caching and policy.
"""

from __future__ import annotations

import numpy as np

from .rng import SeedLike, make_rng

__all__ = ["null_l1_distances", "percentile_threshold", "batch_histograms"]


def batch_histograms(samples: np.ndarray, support_size: int) -> np.ndarray:
    """Row-wise histograms of an integer matrix.

    ``samples`` has shape ``(n_sets, k)`` with entries in
    ``[0, support_size)``; the result has shape ``(n_sets, support_size)``
    (int64 counts).  Implemented with a single flat ``bincount`` (no
    Python loop) because calibration dominates the cost of the
    strategic-attacker experiments.  ``bincount`` does not care about
    element order, so a transposed view — the calibrator's window-major
    ``(k, n_sets)`` rows as ``rows.T`` — is counted without a copy.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be 2-D (sets x draws)")
    n_sets, k = samples.shape
    if k == 0:
        raise ValueError("each sample set must contain at least one draw")
    if samples.min() < 0 or samples.max() >= support_size:
        raise ValueError(f"sample values must lie in [0, {support_size - 1}]")
    offsets = np.arange(0, n_sets * support_size, support_size)
    flat = samples + offsets[:, None]
    hist = np.bincount(flat.ravel(order="K"), minlength=n_sets * support_size)
    return hist.reshape(n_sets, support_size)


def null_l1_distances(
    pmf: np.ndarray,
    k: int,
    n_sets: int,
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample the null distribution of the L1 test statistic.

    Draws ``n_sets`` independent sets of ``k`` window counts from the
    categorical distribution ``pmf`` (support ``0..m``), and returns each
    set's L1 distance between its empirical pmf and ``pmf`` itself.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size < 2:
        raise ValueError("pmf must be a 1-D vector over a support of size >= 2")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n_sets <= 0:
        raise ValueError(f"n_sets must be positive, got {n_sets}")
    rng = make_rng(seed)
    # Multinomial sampling of the whole set at once is equivalent to (and
    # much faster than) drawing k categorical values and histogramming.
    counts = rng.multinomial(k, pmf, size=n_sets).astype(np.float64)
    empirical = counts / k
    return np.abs(empirical - pmf[None, :]).sum(axis=1)


def percentile_threshold(distances: np.ndarray, confidence: float) -> float:
    """Threshold below which ``confidence`` of null distances fall.

    ``confidence`` is expressed as a fraction (the paper uses 0.95).  The
    value is ``np.quantile(distances, confidence)`` (linear
    interpolation, the same arithmetic to the last bit), found with one
    two-index partition instead of ``np.quantile``'s general machinery.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    distances = np.asarray(distances, dtype=np.float64).ravel()
    n = distances.size
    if n == 0:
        raise ValueError("need at least one null distance")
    index = (n - 1) * confidence
    lo = int(index)
    if lo >= n - 1:
        return float(distances.max())
    below, above = np.partition(distances, (lo, lo + 1))[lo : lo + 2].tolist()
    gamma = index - lo
    diff = above - below
    # numpy's lerp: interpolate from the nearer neighbour
    return below + diff * gamma if gamma < 0.5 else above - diff * (1 - gamma)
