"""Tests for the multiprocessing score provider (spawns real processes)."""

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider, score_batch
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.telemetry import MetricsRegistry


@pytest.fixture()
def mp_provider(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2
    )
    yield provider
    provider.close()


def test_matches_serial_provider(mp_provider, tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(6)]
    parallel_scores = mp_provider.scores(seqs)
    serial_scores = serial.scores(seqs)
    for p, s in zip(parallel_scores, serial_scores):
        assert p.target_score == pytest.approx(s.target_score)
        assert p.non_target_scores == pytest.approx(s.non_target_scores)


def test_results_in_input_order(mp_provider, rng):
    seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(8)]
    first = mp_provider.scores(seqs)
    again = mp_provider.scores(seqs)  # all cached now
    for a, b in zip(first, again):
        assert a.target_score == b.target_score
    assert mp_provider.cache_stats["hits"] == len(seqs)


def test_duplicate_sequences_in_batch(mp_provider, rng):
    seq = rng.integers(0, 20, size=25).astype(np.uint8)
    out = mp_provider.scores([seq, seq.copy(), seq.copy()])
    assert out[0].target_score == out[1].target_score == out[2].target_score


def test_close_idempotent(mp_provider, rng):
    mp_provider.scores([rng.integers(0, 20, size=10).astype(np.uint8)])
    mp_provider.close()
    mp_provider.close()


def test_workers_lazy(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(tiny_engine, target, non_targets, num_workers=1)
    assert not provider.pool._workers  # nothing spawned before first use
    provider.close()


def test_validation(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    with pytest.raises(ValueError):
        MultiprocessScoreProvider(tiny_engine, target, non_targets, num_workers=0)


def test_context_manager_reaps_workers(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    ) as provider:
        provider.scores([rng.integers(0, 20, size=25).astype(np.uint8)])
        assert provider.pool._workers
    assert not provider.pool._workers
    assert provider.closed


def test_context_manager_reaps_on_exception(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    )
    with pytest.raises(RuntimeError, match="boom"):
        with provider:
            provider.scores([rng.integers(0, 20, size=25).astype(np.uint8)])
            raise RuntimeError("boom")
    assert not provider.pool._workers
    assert provider.closed


def test_worker_stats_recorded(mp_provider, rng):
    seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(6)]
    mp_provider.scores(seqs)
    stats = mp_provider.pool.stats()["workers"]
    assert stats  # at least one worker reported
    assert sum(int(w["items"]) for w in stats.values()) == 6
    assert all(w["busy_s"] >= 0.0 for w in stats.values())
    runtime = mp_provider.runtime_stats()
    assert runtime["dispatched"] == 6
    assert runtime["batches"] == 1
    assert runtime["cache"]["misses"] == 6


class TestDeltaAndSticky:
    """Provenance through real worker processes: it is advisory, workers
    full-sweep every candidate, and the pool keeps no delta accounting
    (the class name predates the removal of sticky dispatch and of the
    pool's delta route)."""

    def test_unknown_parent_falls_back_never_wrong(
        self, tiny_engine, tiny_problem, rng
    ):
        from repro.ppi.delta import mutation_provenance

        target, non_targets = tiny_problem
        registry = MetricsRegistry()
        with MultiprocessScoreProvider(
            tiny_engine, target, non_targets, num_workers=2,
            telemetry=registry,
        ) as provider:
            parent = rng.integers(0, 20, size=28).astype(np.uint8)
            child = parent.copy()
            child[5] = (child[5] + 1) % 20
            prov = mutation_provenance(parent, [5])
            # Parent never scored: the worker's full sweep is the answer.
            (scored,) = provider.scores_with_provenance([child], [prov])
            stats = provider.pool.stats()
        ((expected,), _) = score_batch(tiny_engine, [child], [provider.problem])
        assert scored == expected
        assert stats["dispatched"] == 1
        assert not [n for n in registry.snapshot() if n.startswith("pipe.delta.")]

    def test_runtime_stats_include_delta(self, mp_provider, rng):
        mp_provider.scores([rng.integers(0, 20, size=20).astype(np.uint8)])
        stats = mp_provider.runtime_stats()
        # Only the key the benchmark ladder reads is left.
        assert stats["delta"] == {"sticky_routed": 0}
