"""Bit-exact resume: interrupt-at-g + resume == uninterrupted same-seed run."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, CheckpointManager, find_latest
from repro.ga.adaptive import AdaptiveInSiPSEngine
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet


class CountingProvider(ScoreProvider):
    """Deterministic synthetic landscape (fraction of residue 0)."""

    def __init__(self):
        self.calls = 0

    def scores(self, sequences):
        self.calls += len(sequences)
        return [
            ScoreSet(float((np.asarray(seq) == 0).mean()), (0.1,))
            for seq in sequences
        ]


class FailingProvider(CountingProvider):
    """Raises on the Nth batch — simulates the parallel runtime dying
    mid-evaluation (after its retry budget)."""

    def __init__(self, fail_on_batch):
        super().__init__()
        self.fail_on_batch = fail_on_batch
        self.batches = 0

    def scores(self, sequences):
        self.batches += 1
        if self.batches == self.fail_on_batch:
            raise RuntimeError("simulated worker failure")
        return super().scores(sequences)


ENGINES = [InSiPSEngine, AdaptiveInSiPSEngine]


def _make(cls, provider=None, seed=7, pop=12, length=24):
    return cls(
        provider if provider is not None else CountingProvider(),
        GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
    )


def _interrupt_after(n):
    """on_generation callback that raises once n generations completed."""

    class _Stop(Exception):
        pass

    def callback(population, stats):
        if len(callback.seen) >= n - 1:
            raise _Stop()
        callback.seen.append(stats.generation)

    callback.seen = []
    callback.exc = _Stop
    return callback


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestBitExactResume:
    def test_interrupt_and_resume_matches_uninterrupted(
        self, engine_cls, tmp_path
    ):
        generations = 9
        reference = _make(engine_cls).run(generations)

        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        interrupted = _make(engine_cls)
        stop = _interrupt_after(4)
        with pytest.raises(stop.exc):
            interrupted.run(generations, on_generation=stop, checkpoint=manager)

        resumed_engine = _make(engine_cls)
        at = resumed_engine.resume(tmp_path)
        assert at >= 1
        resumed = resumed_engine.run(generations)

        assert resumed.best.sequence == reference.best.sequence
        assert resumed.best.fitness == reference.best.fitness
        assert resumed.generations == reference.generations
        assert resumed.evaluations == reference.evaluations
        assert resumed.history.to_payload() == reference.history.to_payload()

    def test_resume_does_not_reevaluate_barrier_generation(
        self, engine_cls, tmp_path
    ):
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        first = _make(engine_cls)
        first.run(3, checkpoint=manager)

        provider = CountingProvider()
        resumed = _make(engine_cls, provider=provider)
        resumed.resume(tmp_path)
        result = resumed.run(3)
        # The snapshot was taken at the final barrier: nothing left to do,
        # so the provider must never be called.
        assert provider.calls == 0
        assert result.generations == 3

    def test_emergency_snapshot_resumes_bit_exactly(self, engine_cls, tmp_path):
        generations = 7
        reference = _make(engine_cls).run(generations)

        # Die mid-evaluation at generation 3 (batch 4), with NO periodic
        # snapshots: only the emergency pre-eval snapshot survives.
        manager = CheckpointManager(tmp_path, every=None, fsync=False)
        dying = _make(engine_cls, provider=FailingProvider(fail_on_batch=4))
        with pytest.raises(RuntimeError, match="simulated"):
            dying.run(generations, checkpoint=manager)
        latest = find_latest(manager.directory)
        assert latest is not None and "emergency" in latest.name

        resumed_engine = _make(engine_cls)
        resumed_engine.resume(tmp_path)
        resumed = resumed_engine.run(generations)

        assert resumed.best.sequence == reference.best.sequence
        assert resumed.evaluations == reference.evaluations
        assert resumed.history.to_payload() == reference.history.to_payload()

    def test_adaptive_state_round_trips(self, engine_cls, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        first = _make(engine_cls)
        first.run(5, checkpoint=manager)

        resumed = _make(engine_cls)
        resumed.resume(tmp_path)
        assert resumed.params == first.params
        if engine_cls is AdaptiveInSiPSEngine:
            assert [p.to_payload() for p in resumed.params_history] == [
                p.to_payload() for p in first.params_history
            ]
            assert (
                resumed.controller.success_rates()
                == first.controller.success_rates()
            )


class TestFingerprintGuard:
    def test_different_geometry_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        _make(InSiPSEngine, pop=12).run(2, checkpoint=manager)
        other = _make(InSiPSEngine, pop=14)
        with pytest.raises(CheckpointError, match="fingerprint"):
            other.resume(tmp_path)

    def test_different_engine_kind_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        _make(InSiPSEngine).run(2, checkpoint=manager)
        other = _make(AdaptiveInSiPSEngine)
        with pytest.raises(CheckpointError, match="fingerprint"):
            other.resume(tmp_path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no snapshot"):
            _make(InSiPSEngine).resume(tmp_path)


class TestMultiprocessResume:
    def test_resume_matches_uninterrupted_mp_run(
        self, tmp_path, tiny_engine, tiny_problem
    ):
        """Bit-exactness holds across the real parallel runtime too: the
        provider affects scores, not the GA's RNG stream."""
        from repro.parallel.mp_backend import MultiprocessScoreProvider

        target, non_targets = tiny_problem
        generations = 4

        def run(resume_from=None, checkpoint=None):
            with MultiprocessScoreProvider(
                tiny_engine, target, non_targets, num_workers=2
            ) as provider:
                engine = InSiPSEngine(
                    provider,
                    GAParams(),
                    population_size=8,
                    candidate_length=16,
                    seed=13,
                )
                if resume_from is not None:
                    engine.resume(resume_from)
                return engine.run(generations, checkpoint=checkpoint)

        reference = run()

        manager = CheckpointManager(tmp_path, every=2, fsync=False)
        run(checkpoint=manager)  # leaves snapshots behind
        resumed = run(resume_from=tmp_path)

        assert resumed.best.sequence == reference.best.sequence
        assert resumed.history.to_payload() == reference.history.to_payload()
