"""RetryPolicy / DeadlineBudget / retry_call semantics."""

from __future__ import annotations

import pytest

from repro.service.resilience import (
    DeadlineBudget,
    ResiliencePolicy,
    RetryPolicy,
    retry_call,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay_s=-1)

    def test_backoff_schedule_is_bounded_exponential(self):
        policy = RetryPolicy(base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05)
        delays = [policy.delay_for(attempt) for attempt in range(1, 6)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])

    def test_delay_for_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


class TestDeadlineBudget:
    def test_unlimited_budget(self):
        budget = DeadlineBudget(None)
        assert budget.remaining == float("inf")
        assert not budget.expired

    def test_budget_expires_with_the_clock(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        assert budget.remaining == pytest.approx(1.0)
        clock.now = 0.6
        assert budget.remaining == pytest.approx(0.4)
        assert not budget.expired
        clock.now = 1.2
        assert budget.expired
        assert budget.remaining == 0.0

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)


class TestResiliencePolicy:
    def test_defaults_are_unlimited(self):
        policy = ResiliencePolicy()
        assert policy.request_deadline_s is None
        assert policy.budget().remaining == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(request_deadline_s=0)

    def test_budget_uses_policy_deadline(self):
        clock = FakeClock()
        budget = ResiliencePolicy(request_deadline_s=2.0).budget(clock=clock)
        clock.now = 3.0
        assert budget.expired


class TestRetryCall:
    def test_succeeds_first_try_without_sleeping(self):
        sleeps = []
        result = retry_call(lambda: 42, RetryPolicy(), sleep=sleeps.append)
        assert result == 42
        assert sleeps == []

    def test_retries_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, multiplier=2.0)
        result = retry_call(flaky, policy, sleep=sleeps.append)
        assert result == "ok"
        assert len(attempts) == 3
        assert sleeps == pytest.approx([0.01, 0.02])

    def test_exhausted_attempts_reraise_last_error(self):
        def always_fails():
            raise OSError("down")

        with pytest.raises(OSError, match="down"):
            retry_call(always_fails, RetryPolicy(max_attempts=2), sleep=lambda _: None)

    def test_non_retryable_errors_propagate_immediately(self):
        attempts = []

        def fails():
            attempts.append(1)
            raise KeyError("fatal")

        with pytest.raises(KeyError):
            retry_call(
                fails,
                RetryPolicy(max_attempts=5),
                retryable=(OSError,),
                sleep=lambda _: None,
            )
        assert len(attempts) == 1

    def test_expired_deadline_stops_retrying(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        clock.now = 2.0
        attempts = []

        def fails():
            attempts.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            retry_call(
                fails, RetryPolicy(max_attempts=5), deadline=budget, sleep=lambda _: None
            )
        assert len(attempts) == 1

    def test_backoff_clamped_to_remaining_budget(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        clock.now = 0.95  # 0.05s left, backoff would be 0.25
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise OSError("transient")
            return "ok"

        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.25)
        assert retry_call(flaky, policy, deadline=budget, sleep=sleeps.append) == "ok"
        assert sleeps == pytest.approx([0.05])

    def test_on_retry_callback_sees_attempt_and_error(self):
        seen = []

        def flaky():
            if not seen:
                raise OSError("once")
            return "ok"

        retry_call(
            flaky,
            RetryPolicy(),
            sleep=lambda _: None,
            on_retry=lambda attempt, error: seen.append((attempt, str(error))),
        )
        assert seen == [(1, "once")]
