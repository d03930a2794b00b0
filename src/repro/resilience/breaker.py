"""A per-dependency circuit breaker.

Classic three-state breaker (closed → open → half-open) guarding a
flaky dependency — here, one cluster peer: once RPCs to it fail
``failure_threshold`` times in a row, the breaker opens and the
coordinator stops sending to it (hinting writes, reading from the
other replicas) instead of paying retries just to watch them fail.  After
``reset_after_s`` the breaker half-opens and lets one probe through;
success re-closes it, failure re-opens it.

The clock is injectable so tests (and replayed chaos runs) control time
explicitly instead of sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

from . import runtime as _res

__all__ = ["CircuitBreaker"]

_STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """Failure-counting breaker with monotonic-clock reset."""

    def __init__(
        self,
        name: str = "breaker",
        *,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_s <= 0:
            raise ValueError(f"reset_after_s must be positive, got {reset_after_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.n_failures = 0
        self.n_successes = 0
        self.n_rejections = 0
        self.n_opens = 0

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half_open`` (clock-refreshed)."""
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.reset_after_s
        ):
            self._state = "half_open"
            _res.emit("breaker_half_open", breaker=self.name)
        return self._state

    def allow(self) -> bool:
        """May a call go through right now?

        ``closed`` and ``half_open`` admit the call (half-open admits it
        as the probe); ``open`` rejects and counts the rejection.
        """
        if self.state == "open":
            self.n_rejections += 1
            return False
        return True

    def record_success(self) -> None:
        """Report a successful call; closes a half-open breaker."""
        self.n_successes += 1
        self._consecutive_failures = 0
        if self._state == "half_open":
            _res.emit("breaker_closed", breaker=self.name)
        self._state = "closed"

    def record_failure(self) -> None:
        """Report a failed call; may trip the breaker open."""
        self.n_failures += 1
        self._consecutive_failures += 1
        if (
            self._state == "half_open"
            or self._consecutive_failures >= self.failure_threshold
        ):
            if self._state != "open":
                self.n_opens += 1
                _res.emit(
                    "breaker_open",
                    breaker=self.name,
                    consecutive_failures=self._consecutive_failures,
                )
            self._state = "open"
            self._opened_at = self._clock()

    def reset(self) -> None:
        """Force-close the breaker and clear the failure streak."""
        self._state = "closed"
        self._consecutive_failures = 0

    def stats(self) -> dict:
        """State and counters, for tests and ad-hoc inspection."""
        return {
            "name": self.name,
            "state": self.state,
            "failure_threshold": self.failure_threshold,
            "consecutive_failures": self._consecutive_failures,
            "failures": self.n_failures,
            "successes": self.n_successes,
            "rejections": self.n_rejections,
            "opens": self.n_opens,
        }
