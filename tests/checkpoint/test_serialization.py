"""Round-trip serialization tests for the checkpoint payload types."""

import json

import numpy as np
import pytest

from repro.ga.config import GAParams, PAPER_PARAMETER_SETS
from repro.ga.population import Individual, Population
from repro.ga.stats import GenerationStats, RunHistory
from repro.ppi.delta import copy_provenance


def _json_round_trip(payload):
    """Snapshots live as JSON on disk; round-trip through it."""
    return json.loads(json.dumps(payload))


def _scored_individual(rng, length=16):
    ind = Individual(rng.integers(0, 20, size=length).astype(np.uint8))
    ind.fitness = float(rng.random())
    ind.target_score = float(rng.random())
    ind.max_non_target = float(rng.random())
    ind.avg_non_target = float(rng.random())
    return ind


class TestIndividualPayload:
    def test_round_trip_preserves_sequence_and_scores(self, rng):
        ind = _scored_individual(rng)
        back = Individual.from_payload(_json_round_trip(ind.to_payload()))
        assert np.array_equal(back.encoded, ind.encoded)
        assert back.fitness == ind.fitness
        assert back.target_score == ind.target_score
        assert back.max_non_target == ind.max_non_target
        assert back.avg_non_target == ind.avg_non_target

    def test_unevaluated_round_trip(self, rng):
        ind = Individual(rng.integers(0, 20, size=8).astype(np.uint8))
        back = Individual.from_payload(_json_round_trip(ind.to_payload()))
        assert not back.evaluated
        assert back.fitness is None

    def test_provenance_is_dropped(self, rng):
        parent = rng.integers(0, 20, size=8).astype(np.uint8)
        ind = Individual(parent, provenance=copy_provenance(parent))
        back = Individual.from_payload(_json_round_trip(ind.to_payload()))
        assert back.provenance is None

    def test_restored_encoding_is_frozen(self, rng):
        ind = _scored_individual(rng)
        back = Individual.from_payload(ind.to_payload())
        with pytest.raises(ValueError):
            back.encoded[0] = 1


class TestPopulationPayload:
    def test_round_trip_preserves_generation_order_and_scores(self, rng):
        pop = Population(
            [_scored_individual(rng) for _ in range(7)], generation=42
        )
        back = Population.from_payload(_json_round_trip(pop.to_payload()))
        assert back.generation == 42
        assert len(back) == 7
        for got, want in zip(back, pop):
            assert np.array_equal(got.encoded, want.encoded)
            assert got.fitness == want.fitness
        assert back.best().fitness == pop.best().fitness

    def test_mixed_evaluated_round_trip(self, rng):
        """Emergency (pre-eval) snapshots hold part-evaluated populations."""
        scored = _scored_individual(rng)
        fresh = Individual(rng.integers(0, 20, size=16).astype(np.uint8))
        pop = Population([scored, fresh], generation=3)
        back = Population.from_payload(_json_round_trip(pop.to_payload()))
        assert back[0].evaluated
        assert not back[1].evaluated
        assert back.unevaluated_members() == [back[1]]


class TestHistoryPayload:
    def _stats(self, gen, rng):
        return GenerationStats(
            generation=gen,
            best_fitness=float(rng.random()),
            mean_fitness=float(rng.random()),
            best_target_score=float(rng.random()),
            best_max_non_target=float(rng.random()),
            best_avg_non_target=float(rng.random()),
            evaluations=int(rng.integers(1, 100)),
        )

    def test_generation_stats_round_trip_is_exact(self, rng):
        stats = self._stats(5, rng)
        back = GenerationStats.from_payload(_json_round_trip(stats.to_payload()))
        # Floats must survive bit-exactly (JSON repr round-trips doubles).
        assert back == stats

    def test_run_history_round_trip(self, rng):
        history = RunHistory()
        for gen in range(6):
            history.append(self._stats(gen, rng))
        back = RunHistory.from_payload(_json_round_trip(history.to_payload()))
        assert len(back) == 6
        assert list(back) == list(history)
        assert np.array_equal(
            back.best_fitness_curve(), history.best_fitness_curve()
        )


class TestGAParamsPayload:
    @pytest.mark.parametrize("name", sorted(PAPER_PARAMETER_SETS))
    def test_paper_sets_round_trip(self, name):
        params = PAPER_PARAMETER_SETS[name]
        back = GAParams.from_payload(_json_round_trip(params.to_payload()))
        assert back == params

    def test_round_trip_revalidates(self):
        payload = GAParams().to_payload()
        payload["p_copy"] = 0.9  # breaks the simplex
        with pytest.raises(ValueError):
            GAParams.from_payload(payload)

    def test_params_history_round_trip(self):
        """The adaptive engine's operator-mix trajectory survives
        save -> load unchanged."""
        history = [
            GAParams(p_copy=0.1, p_mutate=0.4, p_crossover=0.5),
            GAParams(p_copy=0.1, p_mutate=0.35, p_crossover=0.55),
        ]
        payload = _json_round_trip([p.to_payload() for p in history])
        back = [GAParams.from_payload(p) for p in payload]
        assert back == history
