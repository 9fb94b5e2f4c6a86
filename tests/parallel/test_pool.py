"""The ``WorkerPool`` alone, and its two fronts against each other.

``WorkerPool`` is the whole runtime under both the dedicated
``MultiprocessScoreProvider`` and the shared ``ScoringFabric``; neither
front owns a second route to a worker.  These tests drive the pool with
nothing in front of it (multi-problem batches are in
``test_fused_problems.py``), pin its one stats tree and one delta
accounting, and run the same seeded campaign through both fronts to show
they drive one path.
"""

import numpy as np
import pytest

from repro.fabric import ScoringFabric
from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel import MultiprocessScoreProvider, WorkerPool
from repro.parallel.worker import FaultPlan
from repro.providers import make_score_provider
from repro.service import history_digest
from repro.telemetry import MetricsRegistry

DELTA_COUNTERS = ("hits", "fallbacks", "rows_rescored", "rows_total")


def _campaign(provider, generations=4, seed=19):
    return InSiPSEngine(
        provider, GAParams(), population_size=16, candidate_length=20, seed=seed
    ).run(generations)


def _candidates(rng, n, length=20):
    return [rng.integers(0, 20, size=length).astype(np.uint8) for _ in range(n)]


def test_pool_scores_without_a_front_and_restarts_after_close(
    tiny_engine, tiny_problem, rng
):
    target, non_targets = tiny_problem
    arrays = _candidates(rng, 5)
    expected = SerialScoreProvider(tiny_engine, target, non_targets).scores(
        [a.copy() for a in arrays]
    )
    pool = WorkerPool(tiny_engine, num_workers=2, timeout=120.0)
    problem = pool.warm(target, non_targets)
    assert not pool._workers and pool.stats()["shm"] is None  # lazy
    with pool:
        assert pool.score(arrays, None, [problem] * 5) == expected
        assert len(pool._workers) == 2 and pool.stats()["shm"] is not None
        # No score cache down here: the same bytes are dispatched again.
        assert pool.score(arrays, None, [problem] * 5) == expected
        assert pool.stats()["dispatched"] == 10
    assert not pool._workers and pool.stats()["shm"] is None
    pool.close()  # idempotent
    # A closed pool starts again on the next batch, problems still warm.
    with pool:
        assert pool.score(arrays[:2], None, [problem] * 2) == expected[:2]
        assert pool.stats()["shm"]["similarities"] == len(non_targets) + 1
    assert pool.score([], None, []) == []


def test_one_stats_tree_under_the_provider(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1, timeout=120.0
    ) as provider:
        provider.scores(_candidates(rng, 3))
        tree = provider.pool.stats()
        runtime = provider.runtime_stats()
    assert set(tree) == {
        "num_workers", "dispatched", "slices", "batches", "batch_wall_s",
        "workers", "fault_tolerance", "delta", "shm",
    }
    # The provider adds its own cache counters and nothing else.
    assert set(runtime) == set(tree) | {"cache"}
    assert runtime["cache"] == provider.cache_stats
    assert runtime["dispatched"] == tree["dispatched"] == 3
    # The pool owns the runtime; the provider only its problem and cache.
    assert provider.problem == (target, tuple(non_targets))
    assert not hasattr(provider, "worker_deaths")
    for gone in ("worker_stats", "delta_stats", "fault_stats", "elastic_stats",
                 "shm_stats", "register_problem", "score_fused"):
        assert not hasattr(provider, gone) and not hasattr(provider.pool, gone)


def test_worker_cpu_and_faults_are_summed_per_worker(tiny_engine, tiny_problem, rng):
    """Each reply carries the worker's own getrusage deltas for its
    slice; the pool sums them next to ``busy_s``."""
    target, non_targets = tiny_problem
    pool = WorkerPool(tiny_engine, num_workers=1, timeout=120.0)
    problem = pool.warm(target, non_targets)
    with pool:
        pool.score(_candidates(rng, 4), None, [problem] * 4)
        (worker,) = pool.stats()["workers"].values()
    assert worker["items"] == 4
    assert worker["cpu_s"] > 0
    assert worker["minor_faults"] > 0  # the first slice builds the problem


def test_deleted_pool_knobs_are_rejected_by_name(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    for knob in ("latency_target_s", "scale_cooldown_s", "similarity_cache_size",
                 "poll_interval", "scaling", "min_workers", "max_workers"):
        with pytest.raises(TypeError, match=knob):
            WorkerPool(tiny_engine, **{knob: 1})
        with pytest.raises(ValueError, match=knob):
            make_score_provider(
                tiny_engine, target, non_targets, backend="process", **{knob: 1}
            )
    # The serial provider keeps its own similarity LRU size.
    make_score_provider(tiny_engine, target, non_targets, similarity_cache_size=8)


def test_queue_depth_gauge_tracks_and_decays(tiny_engine, tiny_problem, rng):
    # Regression: the gauge used to be set once to len(arrays) at
    # dispatch and never touched again — it must now decay to 0 as the
    # batch drains.
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        timeout=120.0,
        telemetry=registry,
    ) as provider:
        provider.scores(_candidates(rng, 6, length=25))
    gauge = registry.gauge("parallel.queue_depth")
    assert gauge.value == 0.0  # drained
    assert gauge.max == 6.0  # peaked at the batch size
    assert gauge.updates > 2  # actually tracked, not set-and-forget


@pytest.mark.faults
def test_degraded_items_stay_in_the_delta_accounting(tiny_engine, tiny_problem):
    """Regression: degraded items were folded into the ``pipe.delta.*``
    telemetry but not into the counters behind ``stats()["delta"]``, so
    after a degraded campaign the two disagreed (the stats read all
    zero).  One ``_record_delta`` now serves replies and degraded items."""
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        max_retries=0,
        timeout=120.0,
        faults=FaultPlan(crash_on_item=0),
        telemetry=registry,
    ) as provider:
        degraded = _campaign(provider, generations=3)
        stats = provider.pool.stats()
    serial = _campaign(
        SerialScoreProvider(tiny_engine, target, non_targets), generations=3
    )
    assert history_digest(degraded.history) == history_digest(serial.history)
    assert stats["fault_tolerance"]["degraded_items"] > 0
    assert stats["delta"]["hits"] > 0 and stats["delta"]["rows_total"] > 0
    for name in DELTA_COUNTERS:
        assert stats["delta"][name] == registry.counter(f"pipe.delta.{name}").value


def test_both_fronts_drive_one_path(tiny_engine, tiny_problem):
    """The same seeded campaign, with provenance, through the dedicated
    front and through a one-client fabric: same history, same number of
    items dispatched, same rows re-swept."""
    target, non_targets = tiny_problem
    with make_score_provider(
        tiny_engine, target, non_targets, backend="process", workers=2,
        timeout=120.0,
    ) as provider:
        dedicated = _campaign(provider)
        dedicated_stats = provider.runtime_stats()
    with ScoringFabric(tiny_engine, num_workers=2, timeout=120.0) as fabric:
        client = fabric.client(target, non_targets)
        shared = _campaign(client)
        shared_stats = fabric.pool.stats()
        assert client.cache_stats == dedicated_stats["cache"]
    assert history_digest(shared.history) == history_digest(dedicated.history)
    assert shared_stats["dispatched"] == dedicated_stats["dispatched"] > 0
    assert shared_stats["dispatched"] == dedicated_stats["cache"]["misses"]
    for name in ("rows_rescored", "rows_total", "fallbacks"):
        assert shared_stats["delta"][name] == dedicated_stats["delta"][name]
    assert dedicated_stats["delta"]["hits"] > 0
    assert dedicated_stats["delta"]["rows_rescored"] < dedicated_stats["delta"]["rows_total"]
