"""Tests for the fitness function and score providers."""

import numpy as np
import pytest

from repro.ga.fitness import (
    CachingScoreProvider,
    FitnessFunction,
    ScoreProvider,
    ScoreSet,
    SerialScoreProvider,
    combine_scores,
    score_batch,
)
from repro.ga.population import Individual
from repro.telemetry import MetricsRegistry


class TestScoreSet:
    def test_max_and_avg(self):
        s = ScoreSet(0.8, (0.1, 0.4, 0.2))
        assert s.max_non_target == 0.4
        assert s.avg_non_target == pytest.approx(0.7 / 3)

    def test_no_non_targets(self):
        s = ScoreSet(0.8, ())
        assert s.max_non_target == 0.0
        assert s.avg_non_target == 0.0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ScoreSet(1.5, ())
        with pytest.raises(ValueError):
            ScoreSet(0.5, (0.2, -0.1))


class TestCombine:
    def test_formula(self):
        # The exact Sec. 2.2 formula.
        s = ScoreSet(0.6309, (0.3978, 0.05))
        assert combine_scores(s) == pytest.approx((1 - 0.3978) * 0.6309)

    def test_paper_examples(self):
        # anti-YBL051C: fitness 0.379912 from target 0.6309, max nt 0.3978.
        assert combine_scores(ScoreSet(0.6309, (0.3978,))) == pytest.approx(
            0.3799, abs=1e-3
        )
        # anti-YAL017W: fitness 0.4652 from target 0.7183, max nt 0.3524.
        assert combine_scores(ScoreSet(0.7183, (0.3524,))) == pytest.approx(
            0.4652, abs=1e-3
        )

    def test_perfect_design(self):
        assert combine_scores(ScoreSet(1.0, (0.0,))) == 1.0

    def test_sticky_design_penalised(self):
        # Binding everything is worthless.
        assert combine_scores(ScoreSet(1.0, (1.0,))) == 0.0


class TestSerialProvider:
    def test_scores_are_well_formed(self, tiny_provider, rng):
        seqs = [rng.integers(0, 20, size=30).astype(np.uint8) for _ in range(3)]
        out = tiny_provider.scores(seqs)
        assert len(out) == 3
        for s in out:
            assert 0.0 <= s.target_score <= 1.0
            assert len(s.non_target_scores) == len(tiny_provider.non_targets)

    def test_cache_hit_on_repeat(self, tiny_provider, rng):
        seq = rng.integers(0, 20, size=30).astype(np.uint8)
        first = tiny_provider.scores([seq])[0]
        again = tiny_provider.scores([seq.copy()])[0]
        assert first is again
        assert tiny_provider.cache_stats["hits"] == 1

    def test_matches_engine_directly(self, tiny_provider, tiny_engine, rng):
        seq = rng.integers(0, 20, size=30).astype(np.uint8)
        out = tiny_provider.scores([seq])[0]
        assert out.target_score == pytest.approx(
            tiny_engine.score(seq, tiny_provider.target)
        )
        for nt, score in zip(tiny_provider.non_targets, out.non_target_scores):
            assert score == pytest.approx(tiny_engine.score(seq, nt))

    def test_target_in_non_targets_rejected(self, tiny_engine, tiny_problem):
        target, nts = tiny_problem
        with pytest.raises(ValueError, match="non-target"):
            SerialScoreProvider(tiny_engine, target, [target, *nts])

    def test_unknown_names_fail_fast(self, tiny_engine):
        with pytest.raises(KeyError):
            SerialScoreProvider(tiny_engine, "NOPE", [])
        with pytest.raises(KeyError):
            SerialScoreProvider(tiny_engine, "YBL051C", ["NOPE"])

    def test_cache_eviction(self, tiny_engine, tiny_problem, rng, monkeypatch):
        target, nts = tiny_problem
        monkeypatch.setattr(SerialScoreProvider, "CACHE_SIZE", 2)
        provider = SerialScoreProvider(tiny_engine, target, nts[:2])
        for _ in range(4):
            provider.scores([rng.integers(0, 20, size=20).astype(np.uint8)])
        assert provider.cache_len <= 2
        assert provider.cache_stats["evictions"] >= 2

    def test_lru_keeps_hot_entries(self, tiny_engine, tiny_problem, rng, monkeypatch):
        """A full cache evicts the *least recently used* entry, not the
        whole cache (the old epoch eviction threw away every hot entry)."""
        target, nts = tiny_problem
        monkeypatch.setattr(SerialScoreProvider, "CACHE_SIZE", 2)
        provider = SerialScoreProvider(tiny_engine, target, nts[:2])
        hot = rng.integers(0, 20, size=20).astype(np.uint8)
        cold = rng.integers(0, 20, size=20).astype(np.uint8)
        provider.scores([hot])
        provider.scores([cold])
        provider.scores([hot])  # touch: hot is now most recently used
        new = rng.integers(0, 20, size=20).astype(np.uint8)
        provider.scores([new])  # evicts cold, not hot
        misses_before = provider.cache_stats["misses"]
        provider.scores([hot])
        assert provider.cache_stats["misses"] == misses_before  # still cached
        provider.scores([cold])
        assert provider.cache_stats["misses"] == misses_before + 1  # evicted

    def test_duplicates_within_batch_scored_once(self, tiny_engine, tiny_problem, rng):
        target, nts = tiny_problem
        provider = SerialScoreProvider(tiny_engine, target, nts[:2])
        seq = rng.integers(0, 20, size=20).astype(np.uint8)
        out = provider.scores([seq, seq.copy(), seq.copy()])
        assert out[0] == out[1] == out[2]
        assert provider.cache_stats["misses"] == 1
        assert provider.cache_stats["hits"] == 2

    def test_small_cache_fills_duplicates_in_batch(
        self, tiny_engine, tiny_problem, rng, monkeypatch
    ):
        """Regression: with a cache smaller than the batch's fresh
        entries, the duplicate fill read the cache after the fresh entry
        had already been LRU-evicted and raised KeyError."""
        target, nts = tiny_problem
        monkeypatch.setattr(SerialScoreProvider, "CACHE_SIZE", 1)
        provider = SerialScoreProvider(tiny_engine, target, nts[:2])
        a = rng.integers(0, 20, size=20).astype(np.uint8)
        b = rng.integers(0, 20, size=20).astype(np.uint8)
        out = provider.scores([a, b, a.copy(), b.copy()])
        assert out[0] == out[2]
        assert out[1] == out[3]
        reference = SerialScoreProvider(tiny_engine, target, nts[:2])
        want_a, want_b = reference.scores([a, b])
        assert out[0] == want_a
        assert out[1] == want_b

    def test_context_manager(self, tiny_engine, tiny_problem):
        target, nts = tiny_problem
        with SerialScoreProvider(tiny_engine, target, nts[:1]) as p:
            assert isinstance(p, ScoreProvider)
            assert not p.closed
        assert p.closed

    def test_deprecated_cache_attributes(self, tiny_engine, tiny_problem, rng):
        target, nts = tiny_problem
        provider = SerialScoreProvider(tiny_engine, target, nts[:1])
        seq = rng.integers(0, 20, size=20).astype(np.uint8)
        provider.scores([seq])
        # The pre-telemetry cache_hits / cache_misses shims are gone;
        # cache_stats is the one read-out.
        assert not hasattr(provider, "cache_hits")
        assert not hasattr(provider, "cache_misses")
        assert provider.cache_stats == {
            "hits": 0, "misses": 1, "evictions": 0, "size": 1,
        }
        provider.scores([seq.copy()])
        assert provider.cache_stats["hits"] == 1

    def test_cache_telemetry_counters(self, tiny_engine, tiny_problem, rng):
        target, nts = tiny_problem
        registry = MetricsRegistry()
        provider = SerialScoreProvider(
            tiny_engine, target, nts[:1], telemetry=registry
        )
        seq = rng.integers(0, 20, size=20).astype(np.uint8)
        provider.scores([seq])
        provider.scores([seq.copy()])
        assert registry.counter("provider.cache.misses").value == 1
        assert registry.counter("provider.cache.hits").value == 1
        assert provider.cache_hit_rate == pytest.approx(0.5)

    def test_is_caching_provider(self, tiny_provider):
        assert isinstance(tiny_provider, CachingScoreProvider)


class TestFitnessFunction:
    def test_evaluates_pending_only(self, tiny_provider, rng):
        fn = FitnessFunction(tiny_provider)
        done = Individual(rng.integers(0, 20, size=20).astype(np.uint8))
        done.fitness = 0.42
        done.target_score = 0.5
        done.max_non_target = 0.1
        done.avg_non_target = 0.05
        fresh = Individual(rng.integers(0, 20, size=20).astype(np.uint8))
        fn.evaluate([done, fresh])
        assert done.fitness == 0.42  # untouched
        assert fresh.evaluated

    def test_fills_all_statistics(self, tiny_provider, rng):
        fn = FitnessFunction(tiny_provider)
        ind = Individual(rng.integers(0, 20, size=20).astype(np.uint8))
        fn([ind])
        assert ind.fitness == pytest.approx(
            (1 - ind.max_non_target) * ind.target_score
        )
        assert ind.avg_non_target <= ind.max_non_target

    def test_empty_batch_noop(self, tiny_provider):
        FitnessFunction(tiny_provider).evaluate([])

    def test_provider_length_mismatch_detected(self):
        class Broken(ScoreProvider):
            def scores(self, sequences):
                return []

        fn = FitnessFunction(Broken())
        ind = Individual(np.array([1, 2], dtype=np.uint8))
        with pytest.raises(RuntimeError, match="returned 0"):
            fn.evaluate([ind])


class TestSerialDelta:
    """The serial provider's provenance-based delta scoring."""

    def test_delta_scores_match_full_sweep(self, tiny_engine, tiny_problem, rng):
        from repro.ppi.delta import mutation_provenance
        from repro.telemetry import MetricsRegistry

        target, non_targets = tiny_problem
        tel = MetricsRegistry()
        delta = SerialScoreProvider(
            tiny_engine, target, non_targets, telemetry=tel
        )
        parent = rng.integers(0, 20, size=30).astype(np.uint8)
        child = parent.copy()
        child[12] = (child[12] + 7) % 20
        prov = mutation_provenance(parent, [12])
        # Parent scored first so its similarity structure is cached.
        d = delta.scores_with_provenance([parent, child], [None, prov])
        f, _ = score_batch(tiny_engine, [parent, child], [delta.problem] * 2)
        for a, b in zip(d, f):
            assert a.target_score == b.target_score
            assert a.non_target_scores == b.non_target_scores
        counters = tel.snapshot()
        assert counters["pipe.delta.hits"]["value"] > 0

    def test_fallback_counted_when_parent_unknown(
        self, tiny_engine, tiny_problem, rng
    ):
        from repro.ga.operators import mutate_with_provenance
        from repro.telemetry import MetricsRegistry

        target, non_targets = tiny_problem
        tel = MetricsRegistry()
        provider = SerialScoreProvider(
            tiny_engine, target, non_targets, telemetry=tel
        )
        parent = rng.integers(0, 20, size=30).astype(np.uint8)
        child, prov = mutate_with_provenance(parent, 0.1, rng)
        provider.scores_with_provenance([child], [prov])  # parent never scored
        counters = tel.snapshot()
        assert counters["pipe.delta.fallbacks"]["value"] == 1

    def test_plain_scores_unaffected_by_delta_machinery(
        self, tiny_engine, tiny_problem, rng
    ):
        target, non_targets = tiny_problem
        a = SerialScoreProvider(tiny_engine, target, non_targets)
        seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(4)]
        full, _ = score_batch(tiny_engine, seqs, [a.problem] * len(seqs))
        for x, y in zip(a.scores(seqs), full):
            assert x.target_score == y.target_score
            assert x.non_target_scores == y.non_target_scores
