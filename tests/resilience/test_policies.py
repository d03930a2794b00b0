"""Unit tests for the recovery policies: retry, breaker, quarantine."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CircuitBreaker,
    Quarantine,
    RetryExhausted,
    RetryPolicy,
)


class _Flaky:
    """Fails the first ``n_failures`` calls, then succeeds."""

    def __init__(self, n_failures, error=OSError("boom")):
        self.n_failures = n_failures
        self.calls = 0
        self.error = error

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.error
        return "ok"


class TestRetryPolicy:
    def test_success_first_try(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.call(lambda: 42) == 42
        assert policy.stats()["retries"] == 0

    def test_retries_until_success(self):
        policy = RetryPolicy(max_attempts=3)
        flaky = _Flaky(2)
        assert policy.call(flaky) == "ok"
        assert flaky.calls == 3
        assert policy.n_retries == 2

    def test_exhaustion_raises_with_last_error(self):
        policy = RetryPolicy(max_attempts=2, name="unit")
        flaky = _Flaky(10)
        with pytest.raises(RetryExhausted) as excinfo:
            policy.call(flaky)
        assert excinfo.value.last_error is flaky.error
        assert excinfo.value.attempts == 2
        assert flaky.calls == 2
        assert policy.n_exhausted == 1

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, retry_on=(OSError,))
        flaky = _Flaky(10, error=KeyError("caller bug"))
        with pytest.raises(KeyError):
            policy.call(flaky)
        assert flaky.calls == 1

    def test_backoff_curve_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=2.0, max_delay=5.0
        )
        assert [policy.delay_for(i) for i in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_deterministic_per_seed(self):
        delays_a = [
            RetryPolicy(base_delay=1.0, jitter=0.5, seed=7).delay_for(i)
            for i in range(4)
        ]
        delays_b = [
            RetryPolicy(base_delay=1.0, jitter=0.5, seed=7).delay_for(i)
            for i in range(4)
        ]
        assert delays_a == delays_b
        for index, delay in enumerate(delays_a):
            base = 2.0**index
            assert base <= delay <= base * 1.5

    def test_sleep_callable_receives_backoff(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.5)
        policy.call(_Flaky(2), sleep=slept.append)
        assert slept == [0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_after_s", 10.0)
        return CircuitBreaker("unit", clock=lambda: self.now, **kwargs)

    def test_opens_after_consecutive_failures(self):
        breaker = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.n_rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.now = 11.0
        assert breaker.state == "half_open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        self.now = 11.0
        assert breaker.allow()
        breaker.record_failure()  # one failed probe re-opens immediately
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_reset_forces_closed(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0.0)


class TestQuarantine:
    def test_bounded_drop_oldest(self):
        quarantine = Quarantine(capacity=3, name="unit")
        for i in range(5):
            quarantine.add(i, site="feedback.ledger.fold", reason=f"r{i}")
        assert quarantine.depth == 3
        assert [q.item for q in quarantine.items()] == [2, 3, 4]
        assert quarantine.n_quarantined == 5
        assert quarantine.n_dropped == 2

    def test_items_carry_provenance(self):
        quarantine = Quarantine()
        record = quarantine.add(
            "bad", site="feedback.io.row", reason="unparseable"
        )
        assert record.site == "feedback.io.row"
        assert record.reason == "unparseable"
        assert record.index == 0

    def test_drain_empties(self):
        quarantine = Quarantine()
        quarantine.add(1, site="feedback.io.row", reason="x")
        assert [q.item for q in quarantine.drain()] == [1]
        assert quarantine.depth == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Quarantine(capacity=0)
