"""Tests for adaptive operator control."""

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager
from repro.ga import engine as engine_module
from repro.ga.adaptive import AdaptiveInSiPSEngine, AdaptiveOperatorController
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import ScoreProvider, ScoreSet
from repro.ga.termination import MaxGenerations
from repro.providers import make_score_provider
from repro.service import history_digest


class TrivialProvider(ScoreProvider):
    def scores(self, sequences):
        return [
            ScoreSet(float((np.asarray(s) == 0).mean()), (0.1,))
            for s in sequences
        ]


class TestController:
    def test_probabilities_remain_valid(self):
        ctrl = AdaptiveOperatorController(GAParams())
        for improved in (10, 0, 5):
            params = ctrl.observe(
                {"mutate": (improved, 10), "crossover": (10 - improved, 10)}
            )
            total = params.p_copy + params.p_mutate + params.p_crossover
            assert total == pytest.approx(1.0)
            assert params.p_copy == GAParams().p_copy  # copy share fixed

    def test_successful_operator_gains_share(self):
        ctrl = AdaptiveOperatorController(GAParams())
        for _ in range(10):
            params = ctrl.observe({"mutate": (9, 10), "crossover": (0, 10)})
        assert params.p_mutate > params.p_crossover

    def test_min_share_floor(self, monkeypatch):
        monkeypatch.setattr(AdaptiveOperatorController, "MIN_SHARE", 0.2)
        ctrl = AdaptiveOperatorController(GAParams())
        for _ in range(30):
            params = ctrl.observe({"mutate": (10, 10), "crossover": (0, 10)})
        adaptive_mass = 1.0 - GAParams().p_copy
        assert params.p_crossover >= 0.2 * adaptive_mass / (0.2 + 0.8) - 1e-9
        assert params.p_crossover > 0.1

    def test_no_observations_keeps_params(self):
        ctrl = AdaptiveOperatorController(GAParams())
        before = ctrl.params
        after = ctrl.observe({"mutate": (0, 0), "crossover": (0, 0)})
        assert after.p_mutate == pytest.approx(before.p_mutate, abs=0.15)


class TestAdaptiveEngine:
    def _engine(self, seed=3):
        return AdaptiveInSiPSEngine(
            TrivialProvider(),
            GAParams(),
            population_size=16,
            candidate_length=24,
            seed=seed,
        )

    def test_runs_and_improves(self):
        result = self._engine().run(12)
        assert result.best_fitness > result.history.stats[0].best_fitness

    def test_params_adapt_over_time(self):
        engine = self._engine()
        engine.run(10)
        assert len(engine.params_history) > 1
        mutate_shares = [p.p_mutate for p in engine.params_history]
        assert len(set(round(m, 6) for m in mutate_shares)) > 1

    def test_probabilities_always_simplex(self):
        engine = self._engine()
        engine.run(8)
        for p in engine.params_history:
            assert p.p_copy + p.p_mutate + p.p_crossover == pytest.approx(1.0)
            assert p.p_mutate > 0 and p.p_crossover > 0

    def test_population_size_invariant(self):
        engine = self._engine()
        pop = engine.initial_population()
        engine.evaluate_population(pop)
        nxt = engine.next_generation(pop)
        assert len(nxt) == 16

    def test_deterministic_given_seed(self):
        a = self._engine(seed=9).run(6)
        b = self._engine(seed=9).run(6)
        assert a.best_fitness == b.best_fitness

    def test_competitive_with_static(self):
        """Adaptation must not hurt on the trivial landscape."""
        static = InSiPSEngine(
            TrivialProvider(),
            GAParams(),
            population_size=16,
            candidate_length=24,
            seed=11,
        ).run(15)
        adaptive = AdaptiveInSiPSEngine(
            TrivialProvider(),
            GAParams(),
            population_size=16,
            candidate_length=24,
            seed=11,
        ).run(15)
        assert adaptive.best_fitness >= 0.5 * static.best_fitness


def _drive_steps(engine, termination, **kwargs):
    """A hand-driven ``steps()`` loop scoring on ``engine.provider``."""
    steps = engine.steps(termination, **kwargs)
    try:
        batch = next(steps)
        while True:
            arrays, _ = batch
            batch = steps.send(engine.provider.scores(arrays) if arrays else [])
    except StopIteration as stop:
        return stop.value


def _witness(engine, result):
    return (
        history_digest(result.history),
        result.evaluations,
        engine._rng.bit_generator.state,
        engine.params_history,
        engine.controller.success_rates(),
    )


class TestAdaptiveSteps:
    def _engine(self):
        return AdaptiveInSiPSEngine(
            TrivialProvider(),
            GAParams(),
            population_size=16,
            candidate_length=24,
            seed=21,
        )

    def test_hand_driven_steps_match_run(self):
        ran, stepped = self._engine(), self._engine()
        reference = ran.run(8)
        result = _drive_steps(stepped, 8)
        assert len(stepped.params_history) > 1
        assert _witness(stepped, result) == _witness(ran, reference)

    def test_stop_resume_and_step_to_end_match_run(self, tmp_path):
        ran = self._engine()
        reference = ran.run(8)
        manager = CheckpointManager(tmp_path, every=1, fsync=False)
        _drive_steps(self._engine(), MaxGenerations(4), checkpoint=manager)
        resumed = self._engine()
        assert resumed.resume(tmp_path) == 3
        result = _drive_steps(resumed, 8)
        assert _witness(resumed, result) == _witness(ran, reference)


class TestOneWheelPerGeneration:
    """A generation's fitness is fixed while it breeds, so both engines
    build its roulette wheel once, and drawing every parent from that one
    wheel leaves the RNG stream — and so every campaign — unchanged."""

    @pytest.mark.parametrize("engine_cls", [InSiPSEngine, AdaptiveInSiPSEngine])
    def test_one_selection_probabilities_call_per_bred_generation(
        self, monkeypatch, engine_cls
    ):
        # Both engines breed through InSiPSEngine.next_generation.
        wheels, bred = [], []
        real = engine_module.selection_probabilities
        monkeypatch.setattr(
            engine_module,
            "selection_probabilities",
            lambda fitness: wheels.append(1) or real(fitness),
        )
        engine = engine_cls(
            TrivialProvider(),
            GAParams(),
            population_size=16,
            candidate_length=24,
            seed=4,
        )
        breed = engine.next_generation
        monkeypatch.setattr(
            engine, "next_generation", lambda pop: bred.append(1) or breed(pop)
        )
        engine.run(7)
        assert len(bred) == 6
        assert len(wheels) == len(bred)

    def test_seeded_tiny_campaign_digest_is_pinned(self, tiny_world):
        """A seeded adaptive campaign on real PIPE scores through the
        serial provider (full sweeps, delta children, score cache); the
        digest was recorded before the wheel was hoisted out of the
        per-parent draw."""
        target = "YBL051C"
        non_targets = tiny_world.non_targets_for(target, limit=8)
        with make_score_provider(tiny_world, target, non_targets) as provider:
            engine = AdaptiveInSiPSEngine(
                provider,
                GAParams(),
                population_size=16,
                candidate_length=20,
                seed=5,
            )
            result = engine.run(6)
        assert result.evaluations == 90
        assert history_digest(result.history) == (
            "e5665595fcc2b87eb54dcab047eebc8469332f06912c627415ea2b7f9c315da0"
        )
