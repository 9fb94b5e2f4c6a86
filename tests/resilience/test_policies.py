"""Unit tests for the resilience policy objects.

The policies are the supervisor's contract layer, so their guarantees are
pinned hard: deadlines are exact under an injectable clock; the circuit
breaker walks the classic state machine deterministically.
"""

import pytest

from repro.resilience import BreakerState, CircuitBreaker, Deadline


class TestDeadline:
    def test_fake_clock_lifecycle(self):
        now = [100.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        assert deadline.elapsed() == 0.0
        assert not deadline.expired()
        now[0] = 106.0
        assert deadline.elapsed() == 6.0
        assert not deadline.expired()
        now[0] = 110.0
        assert deadline.elapsed() == 10.0
        assert deadline.expired()
        now[0] = 150.0
        assert deadline.expired()

    def test_after_alias(self):
        assert Deadline.after(3.0).budget_s == 3.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCircuitBreaker:
    def test_closed_always_allows(self):
        breaker = CircuitBreaker()
        assert all(breaker.allow() for _ in range(5))
        assert breaker.state == BreakerState.CLOSED

    def test_trips_at_threshold_then_probes_by_count(self):
        breaker = CircuitBreaker(failure_threshold=2, probe_after=3)
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 1
        # Two denials, then the third grants a probe.
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.probes == 1

    def test_half_open_denies_until_outcome(self):
        breaker = CircuitBreaker(probe_after=1)
        breaker.record_failure()
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # probe in flight: denied
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=5, probe_after=1)
        for _ in range(5):
            breaker.record_failure()
        assert breaker.allow()  # probe granted
        breaker.record_failure()  # the probe failed
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 2

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED

    def test_stats_json_safe(self):
        breaker = CircuitBreaker()
        breaker.record_failure()
        import json

        assert json.loads(json.dumps(breaker.stats())) == {
            "state": "open",
            "failures": 1,
            "opens": 1,
            "probes": 0,
        }

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_after=0)

