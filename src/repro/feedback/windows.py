"""Windowing of outcome sequences.

The behavior tests break a transaction history into ``k = floor(n / m)``
consecutive windows of ``m`` transactions and count the good transactions
``G_i`` in each (Sec. 3.2).  When ``n`` is not a multiple of ``m`` a
remainder must be dropped from one end; which end matters:

* ``align="recent"`` (library default) drops the *oldest* remainder, so
  window boundaries are anchored at the most recent transaction.  This is
  what multi-testing requires — every suffix considered shares window
  boundaries with longer suffixes, enabling the paper's O(n) reuse of
  intermediate statistics.
* ``align="oldest"`` drops the newest remainder (a literal reading of
  "break H sequentially"), kept for comparison.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_counts", "n_windows", "usable_length"]

_ALIGNMENTS = ("recent", "oldest")


def n_windows(n: int, m: int) -> int:
    """Number of complete windows of size ``m`` in ``n`` transactions."""
    _validate(m)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n // m


def usable_length(n: int, m: int) -> int:
    """Number of transactions actually covered by complete windows."""
    return n_windows(n, m) * m


def window_counts(
    outcomes: np.ndarray, m: int, *, align: str = "recent"
) -> np.ndarray:
    """Per-window good-transaction counts ``G_1..G_k``.

    ``outcomes`` is a 1-D 0/1 array in time order (oldest first); the
    result is in time order as well, regardless of alignment.
    """
    _validate(m, align)
    arr = np.asarray(outcomes)
    if arr.ndim != 1:
        raise ValueError("outcomes must be a 1-D sequence")
    k = arr.size // m
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if align == "recent":
        trimmed = arr[arr.size - k * m :]
    else:
        trimmed = arr[: k * m]
    return trimmed.reshape(k, m).sum(axis=1).astype(np.int64)


def _validate(m: int, align: str = "recent") -> None:
    if m <= 0:
        raise ValueError(f"window size m must be positive, got {m}")
    if align not in _ALIGNMENTS:
        raise ValueError(f"align must be one of {_ALIGNMENTS}, got {align!r}")
