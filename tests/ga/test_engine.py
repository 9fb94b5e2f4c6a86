"""Tests for the InSiPS GA engine."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet
from repro.ga.termination import MaxGenerations
from repro.service import history_digest


class CountingProvider(ScoreProvider):
    """Deterministic synthetic provider: target score is the fraction of
    residue 0 in the sequence — an easily optimisable landscape."""

    def __init__(self):
        self.calls = 0

    def scores(self, sequences):
        self.calls += len(sequences)
        out = []
        for seq in sequences:
            frac = float((np.asarray(seq) == 0).mean())
            out.append(ScoreSet(frac, (0.1,)))
        return out


def _engine(provider=None, seed=7, pop=10, length=20, params=None):
    return InSiPSEngine(
        provider or CountingProvider(),
        params or GAParams(),
        population_size=pop,
        candidate_length=length,
        seed=seed,
    )


class TestInitialPopulation:
    def test_size_and_lengths(self):
        pop = _engine().initial_population()
        assert len(pop) == 10
        assert all(len(m) == 20 for m in pop)
        assert pop.generation == 0

    def test_seeded_reproducibility(self):
        a = _engine(seed=3).initial_population()
        b = _engine(seed=3).initial_population()
        assert all(
            np.array_equal(x.encoded, y.encoded) for x, y in zip(a, b)
        )

    def test_distinct_members(self):
        pop = _engine().initial_population()
        keys = {m.key for m in pop}
        assert len(keys) > 1


class TestNextGeneration:
    def test_size_preserved(self):
        engine = _engine()
        pop = engine.initial_population()
        engine.evaluate_population(pop)
        nxt = engine.next_generation(pop)
        assert len(nxt) == len(pop)
        assert nxt.generation == 1

    def test_copy_preserves_scores(self):
        engine = _engine(params=GAParams(p_copy=1.0, p_mutate=0.0, p_crossover=0.0))
        pop = engine.initial_population()
        engine.evaluate_population(pop)
        nxt = engine.next_generation(pop)
        # Every member of the next generation is a copy and keeps scores.
        assert all(m.evaluated for m in nxt)
        parent_keys = {m.key for m in pop}
        assert all(m.key in parent_keys for m in nxt)

    def test_mutate_only_generation_unevaluated(self):
        engine = _engine(params=GAParams(p_copy=0.0, p_mutate=1.0, p_crossover=0.0))
        pop = engine.initial_population()
        engine.evaluate_population(pop)
        nxt = engine.next_generation(pop)
        assert all(not m.evaluated for m in nxt)

    def test_crossover_only_generation(self):
        engine = _engine(params=GAParams(p_copy=0.0, p_mutate=0.0, p_crossover=1.0))
        pop = engine.initial_population()
        engine.evaluate_population(pop)
        nxt = engine.next_generation(pop)
        assert len(nxt) == len(pop)
        assert all(len(m) == 20 for m in nxt)


class TestRun:
    def test_improves_on_trivial_landscape(self):
        provider = CountingProvider()
        engine = _engine(provider, pop=30)
        result = engine.run(25)
        first = result.history.stats[0].best_fitness
        assert result.best_fitness > first
        assert result.best_fitness > 0.3

    def test_generation_count_and_evaluations(self):
        provider = CountingProvider()
        engine = _engine(provider)
        result = engine.run(MaxGenerations(5))
        assert result.generations == 5
        assert result.evaluations == engine.evaluations
        assert result.evaluations <= 5 * 10
        assert provider.calls == result.evaluations

    def test_int_termination_shorthand(self):
        result = _engine().run(3)
        assert result.generations == 3

    def test_best_tracked_across_generations(self):
        result = _engine(pop=20).run(10)
        curve = result.history.best_fitness_curve()
        assert result.best_fitness == pytest.approx(curve.max())

    def test_on_generation_callback(self):
        seen = []
        _engine().run(4, on_generation=lambda pop, stats: seen.append(stats.generation))
        assert seen == [0, 1, 2, 3]

    def test_seeded_runs_identical(self):
        r1 = _engine(seed=11).run(5)
        r2 = _engine(seed=11).run(5)
        assert np.array_equal(r1.best.encoded, r2.best.encoded)
        assert r1.history.best_fitness_curve().tolist() == r2.history.best_fitness_curve().tolist()

    def test_different_seeds_diverge(self):
        r1 = _engine(seed=1).run(5)
        r2 = _engine(seed=2).run(5)
        assert not np.array_equal(r1.best.encoded, r2.best.encoded)


class TestValidation:
    def test_population_size(self):
        with pytest.raises(ValueError):
            _engine(pop=1)

    def test_candidate_length(self):
        with pytest.raises(ValueError):
            _engine(length=1)


def drive_steps(engine, provider, termination, **kwargs):
    """A hand-driven ``steps()`` loop: score each yielded batch on
    ``provider`` and send the scores back; a scoring failure is thrown
    into the generator."""
    steps = engine.steps(termination, **kwargs)
    try:
        batch = next(steps)
        while True:
            arrays, _ = batch
            try:
                score_sets = provider.scores(arrays) if arrays else []
            except Exception as exc:  # noqa: BLE001 - handed to the engine
                batch = steps.throw(exc)
            else:
                batch = steps.send(score_sets)
    except StopIteration as stop:
        return stop.value


def _witness(engine, result):
    return (
        history_digest(result.history),
        result.evaluations,
        engine.evaluations,
        engine._rng.bit_generator.state,
        engine._init_rng.bit_generator.state,
    )


class FailingProvider(CountingProvider):
    """Fails on its ``fail_on``-th call (1-based)."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on
        self.batches = 0

    def scores(self, sequences):
        self.batches += 1
        if self.batches == self.fail_on:
            raise RuntimeError(f"injected failure on call {self.batches}")
        return super().scores(sequences)


class TestSteps:
    def test_hand_driven_steps_match_run(self):
        ran_provider, stepped_provider = CountingProvider(), CountingProvider()
        ran = _engine(ran_provider, seed=5)
        stepped = _engine(stepped_provider, seed=5)
        reference = ran.run(6)
        result = drive_steps(stepped, stepped_provider, 6)
        assert _witness(stepped, result) == _witness(ran, reference)
        assert stepped_provider.calls == ran_provider.calls

    def test_stop_resume_and_step_to_end_match_run(self, tmp_path):
        reference_engine = _engine(seed=9)
        reference = reference_engine.run(7)
        first = _engine(seed=9)
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        partial = drive_steps(
            first, CountingProvider(), MaxGenerations(3), checkpoint=manager
        )
        assert partial.generations == 3
        resumed = _engine(seed=9)
        assert resumed.resume(tmp_path) == 2
        result = drive_steps(resumed, CountingProvider(), 7)
        assert _witness(resumed, result) == _witness(reference_engine, reference)

    def test_thrown_failure_writes_the_snapshot_run_writes(self, tmp_path):
        snapshots = {}
        for route in ("run", "steps"):
            directory = tmp_path / route
            manager = CheckpointManager(directory, every=100, fsync=False)
            provider = FailingProvider(fail_on=3)
            engine = _engine(provider, seed=4)
            with pytest.raises(RuntimeError, match="injected failure"):
                if route == "run":
                    engine.run(6, checkpoint=manager)
                else:
                    drive_steps(engine, provider, 6, checkpoint=manager)
            [snapshot] = directory.glob("*-emergency.json")
            snapshots[route] = (snapshot.name, snapshot.read_bytes())
        assert snapshots["steps"] == snapshots["run"]
