"""Bounded retry with exponential backoff and deterministic jitter.

A :class:`RetryPolicy` is a frozen description of *how* to retry — the
attempt budget and the backoff curve — plus a :meth:`~RetryPolicy.call` runner that applies it to any callable.
Jitter is drawn from a generator seeded through the standard
:mod:`repro.stats.rng` plumbing, so two runs of the same seeded chaos
scenario sleep the same schedule and replay identically.

Each policy counts its own calls, attempts, retries and exhaustions
(:meth:`~RetryPolicy.stats`); across a run, every retry and exhaustion
is also a ``retry`` / ``retry_exhausted`` event in the run's event log,
which ``repro obs report`` counts.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, Type

from ..stats.rng import SeedLike, make_rng
from . import runtime as _res

__all__ = ["RetryPolicy", "RetryExhausted"]


class RetryExhausted(RuntimeError):
    """Every attempt of a retried call failed; carries the last error."""

    def __init__(self, name: str, attempts: int, last_error: BaseException):
        super().__init__(
            f"{name}: all {attempts} attempt(s) failed "
            f"(last: {last_error!r})"
        )
        self.name = name
        self.attempts = attempts
        self.last_error = last_error


class RetryPolicy:
    """Exponential backoff with deterministic jitter and attempt budget.

    Parameters
    ----------
    max_attempts:
        Total tries, including the first (1 = no retrying).
    base_delay:
        Sleep before the first retry; subsequent retries multiply it by
        ``multiplier`` up to ``max_delay``.  The default of 0 keeps unit
        tests and the synchronous simulators fast.
    jitter:
        Fractional jitter: each sleep is scaled by ``1 + jitter * u``
        with ``u`` drawn from the policy's seeded generator — spreading
        herd retries without sacrificing replayability.
    retry_on:
        Exception classes that trigger a retry; anything else
        propagates immediately.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        base_delay: float = 0.0,
        multiplier: float = 2.0,
        max_delay: float = 30.0,
        jitter: float = 0.0,
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        seed: SeedLike = 0,
        name: str = "retry",
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must lie in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.retry_on = retry_on
        self.name = name
        self._rng = make_rng(seed)
        self.n_calls = 0
        self.n_attempts = 0
        self.n_retries = 0
        self.n_exhausted = 0

    def delay_for(self, retry_index: int) -> float:
        """The sleep before retry ``retry_index`` (0 = first retry)."""
        delay = min(self.base_delay * (self.multiplier**retry_index), self.max_delay)
        if delay > 0 and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(self._rng.random())
        return delay

    def call(
        self,
        fn: Callable,
        *args,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        """Run ``fn`` under this policy; raises :class:`RetryExhausted`
        (from the last error) when the attempt budget runs out."""
        self.n_calls += 1
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            self.n_attempts += 1
            try:
                return fn(*args, **kwargs)
            except self.retry_on as exc:
                last_error = exc
                if attempt + 1 >= self.max_attempts:
                    break
                self.n_retries += 1
                _res.emit(
                    "retry",
                    policy=self.name,
                    attempt=attempt + 1,
                    error=repr(exc),
                )
                delay = self.delay_for(attempt)
                if delay > 0:
                    sleep(delay)
        self.n_exhausted += 1
        _res.emit("retry_exhausted", policy=self.name, error=repr(last_error))
        raise RetryExhausted(self.name, self.max_attempts, last_error) from last_error

    def stats(self) -> dict:
        """Counters, for tests and ad-hoc inspection."""
        return {
            "name": self.name,
            "max_attempts": self.max_attempts,
            "calls": self.n_calls,
            "attempts": self.n_attempts,
            "retries": self.n_retries,
            "exhausted": self.n_exhausted,
        }
