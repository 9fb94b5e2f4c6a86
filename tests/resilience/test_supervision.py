"""Engine-level supervision: the deadline stop, and failures that raise.

The supervisor contract at the GA layer: a wall-clock deadline ends the
campaign with the best-so-far design, a degradation record and (when
checkpointing) a resumable snapshot — never a traceback — while an
uninterrupted run stays bit-for-bit identical to one that never saw a
supervisor.  The engine does not retry scoring: the pool re-issues lost
work, and a failure it did not absorb propagates.
"""

import pytest

from repro.checkpoint import CheckpointManager
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet
from repro.resilience import Deadline
from repro.telemetry import MetricsRegistry


class ScriptedProvider(ScoreProvider):
    """Deterministic scores, with failures injected on scheduled calls.

    ``fail_calls`` holds 1-based ``scores()`` call numbers that raise;
    ``fail_from`` makes every call from that number on raise.
    """

    def __init__(self, fail_calls=(), fail_from=None, exc=RuntimeError):
        self.calls = 0
        self.fail_calls = set(fail_calls)
        self.fail_from = fail_from
        self.exc = exc

    def scores(self, sequences):
        self.calls += 1
        if self.calls in self.fail_calls or (
            self.fail_from is not None and self.calls >= self.fail_from
        ):
            raise self.exc(f"injected failure on call {self.calls}")
        return [ScoreSet(0.5, (0.1,)) for _ in sequences]


def _engine(provider, seed=17, telemetry=None):
    return InSiPSEngine(
        provider,
        GAParams(),
        population_size=6,
        candidate_length=12,
        seed=seed,
        telemetry=telemetry,
    )


class TestDeadline:
    def test_expiry_returns_partial_result(self):
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])

        def on_generation(population, stats):
            if stats.generation >= 1:
                now[0] = 100.0  # blow the budget after generation 1

        telemetry = MetricsRegistry()
        result = _engine(ScriptedProvider(), telemetry=telemetry).run(
            50, on_generation=on_generation, deadline=deadline
        )
        assert not result.completed
        assert result.stop_reason == "deadline"
        assert result.generations == 2  # generations 0 and 1 finished
        assert result.best is not None
        [record] = result.history.degradations
        assert record["kind"] == "deadline"
        assert record["budget_s"] == 10.0
        assert record["elapsed_s"] >= 10.0
        # The deadline is the one supervised stop the counter counts.
        assert telemetry.counter("ga.supervised_stops").value == 1
        [stop] = [
            e for e in telemetry.events if e["event"] == "ga.supervised_stop"
        ]
        assert stop["reason"] == "deadline"

    def test_plain_seconds_accepted_and_generous_budget_completes(self):
        result = _engine(ScriptedProvider()).run(3, deadline=3600.0)
        assert result.completed
        assert result.stop_reason is None
        assert result.generations == 3
        assert result.history.degradations == []

    def test_deadline_stop_snapshots_and_resumes_bit_exact(self, tmp_path):
        generations = 5
        reference = _engine(ScriptedProvider()).run(generations)

        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])

        def on_generation(population, stats):
            if stats.generation >= 2:
                now[0] = 100.0

        manager = CheckpointManager(tmp_path, every=100, fsync=False)
        partial = _engine(ScriptedProvider()).run(
            generations,
            on_generation=on_generation,
            checkpoint=manager,
            deadline=deadline,
        )
        assert not partial.completed
        # The forced barrier snapshot makes the interrupted run resumable
        # even though the periodic policy (every=100) never fired.
        resumed_engine = _engine(ScriptedProvider())
        assert resumed_engine.resume(tmp_path) == 2
        resumed = resumed_engine.run(generations)
        assert resumed.completed
        assert resumed.best.sequence == reference.best.sequence
        # The resumed history carries the deadline degradation record the
        # reference never had; the stats must still match exactly.
        payload = resumed.history.to_payload()
        assert payload["stats"] == reference.history.to_payload()["stats"]
        assert payload["degradations"][0]["kind"] == "deadline"


class TestEvalRetry:
    def test_no_retry_policy_keeps_historical_raise(self):
        provider = ScriptedProvider(fail_calls={2})
        with pytest.raises(RuntimeError, match="injected failure"):
            _engine(provider).run(3)
