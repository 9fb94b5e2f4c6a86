"""Tests for the elastic pool control loop.

Policy and controller tests are pure (no processes); the integration
tests at the bottom drive a real :class:`MultiprocessScoreProvider` and
include the regression tests for the dispatch/telemetry bugfix sweep:
the ``parallel.queue_depth`` gauge must track the *live* backlog (not be
set once to the batch size).
"""

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider
from repro.parallel.elastic import (
    SCALING_POLICIES,
    ElasticController,
    FixedScaling,
    LatencyTargetScaling,
    PoolSnapshot,
    QueueDepthScaling,
    make_scaling_policy,
)
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.telemetry import MetricsRegistry


def snap(
    live=2,
    backlog=0,
    outstanding=0,
    ewma=0.0,
    batch=10,
) -> PoolSnapshot:
    return PoolSnapshot(
        live_workers=live,
        backlog=backlog,
        outstanding=outstanding,
        latency_ewma_s=ewma,
        batch_size=batch,
    )


class FakeClock:
    """Steppable monotonic clock for cooldown tests (no real sleeps)."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, s: float) -> None:
        self.t += s


class TestPolicies:
    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            FixedScaling(0, 4)
        with pytest.raises(ValueError, match="max_workers"):
            FixedScaling(4, 2)
        with pytest.raises(ValueError, match="items_per_worker"):
            QueueDepthScaling(1, 4, items_per_worker=0)
        with pytest.raises(ValueError, match="target_s"):
            LatencyTargetScaling(1, 4, target_s=0.0)

    def test_clamp(self):
        policy = FixedScaling(2, 5)
        assert policy.clamp(0) == 2
        assert policy.clamp(3) == 3
        assert policy.clamp(99) == 5

    def test_fixed_never_resizes_never_chunks(self):
        policy = FixedScaling(1, 8)
        assert policy.desired_workers(snap(live=3, backlog=100)) == 3
        # How much is in flight is the provider's window, not a policy
        # decision.
        assert not hasattr(policy, "chunk_limit")

    def test_queue_depth_sizes_to_backlog(self):
        policy = QueueDepthScaling(1, 8, items_per_worker=4)
        assert policy.desired_workers(snap(live=2, backlog=16)) == 4
        assert policy.desired_workers(snap(live=4, backlog=2)) == 1
        assert policy.desired_workers(snap(live=2, backlog=100)) == 8  # clamped

    def test_latency_target_holds_until_first_ewma(self):
        policy = LatencyTargetScaling(1, 8, target_s=0.25)
        assert policy.desired_workers(snap(live=3, backlog=50, ewma=0.0)) == 3

    def test_latency_target_sizes_pool_to_drain_time(self):
        policy = LatencyTargetScaling(1, 8, target_s=0.5)
        # 20 items x 0.1s = 2s of work; 4 workers drain it in 0.5s.
        assert policy.desired_workers(snap(live=2, backlog=20, ewma=0.1)) == 4
        # 2 items x 0.01s: one worker is plenty.
        assert policy.desired_workers(snap(live=4, backlog=2, ewma=0.01)) == 1

    def test_make_scaling_policy_names_and_passthrough(self):
        for name in SCALING_POLICIES:
            policy = make_scaling_policy(name, min_workers=1, max_workers=4)
            assert policy.name == name
        instance = FixedScaling(2, 3)
        assert (
            make_scaling_policy(instance, min_workers=1, max_workers=9)
            is instance
        )
        with pytest.raises(ValueError, match="unknown scaling policy"):
            make_scaling_policy("bogus", min_workers=1, max_workers=4)


class TestController:
    def test_ewma_seeds_then_smooths(self):
        ctl = ElasticController(FixedScaling(1, 4), ewma_alpha=0.5)
        assert ctl.observe_latency(1.0) == 1.0  # first value seeds
        assert ctl.observe_latency(2.0) == pytest.approx(1.5)
        assert ctl.latency_ewma_s == pytest.approx(1.5)

    def test_decide_clamps_policy(self):
        ctl = ElasticController(QueueDepthScaling(2, 3, items_per_worker=1))
        assert ctl.decide(snap(live=2, backlog=100)) == 3
        assert ctl.decide(snap(live=3, backlog=0)) == 2

    def test_cooldown_suppresses_thrash(self):
        clock = FakeClock()
        ctl = ElasticController(
            QueueDepthScaling(1, 8, items_per_worker=1),
            cooldown_s=10.0,
            clock=clock,
        )
        assert ctl.decide(snap(live=1, backlog=4)) == 4  # resize starts cooldown
        assert ctl.decide(snap(live=4, backlog=1)) == 4  # suppressed: hold
        assert ctl.suppressed == 1
        clock.advance(11.0)
        assert ctl.decide(snap(live=4, backlog=1)) == 1  # cooldown expired
        # A no-op decision never burns the cooldown window.
        assert ctl.decide(snap(live=1, backlog=1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="cooldown_s"):
            ElasticController(FixedScaling(1, 2), cooldown_s=-1.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            ElasticController(FixedScaling(1, 2), ewma_alpha=0.0)

    def test_stats_shape(self):
        ctl = ElasticController(LatencyTargetScaling(1, 4))
        ctl.decide(snap())
        stats = ctl.stats()
        assert stats["policy"] == "latency-target"
        assert stats["min_workers"] == 1
        assert stats["max_workers"] == 4
        assert stats["decisions"] == 1


class TestProviderIntegration:
    """Real worker processes under elastic policies."""

    def test_queue_depth_gauge_tracks_and_decays(
        self, tiny_engine, tiny_problem, rng
    ):
        # Regression: the gauge used to be set once to len(arrays) at
        # dispatch and never touched again — it must now decay to 0 as
        # the batch drains.
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
            seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(6)]
            provider.scores(seqs)
        gauge = registry.gauge("parallel.queue_depth")
        assert gauge.value == 0.0  # drained
        assert gauge.max == 6.0  # peaked at the batch size
        assert gauge.updates > 2  # actually tracked, not set-and-forget

    def test_elastic_matches_serial(self, tiny_engine, tiny_problem, rng):
        target, non_targets = tiny_problem
        serial = SerialScoreProvider(tiny_engine, target, non_targets)
        seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(8)]
        with MultiprocessScoreProvider(
            tiny_engine,
            target,
            non_targets,
            num_workers=2,
            min_workers=1,
            max_workers=3,
            scaling="queue-depth",
            timeout=120.0,
        ) as provider:
            elastic_scores = provider.scores(seqs)
            stats = provider.pool.stats()["elastic"]
            assert stats["policy"] == "queue-depth"
            assert stats["decisions"] > 0
        for e, s in zip(elastic_scores, serial.scores(seqs)):
            assert e.target_score == s.target_score
            assert e.non_target_scores == s.non_target_scores

    def test_runtime_stats_include_elastic(self, tiny_engine, tiny_problem, rng):
        target, non_targets = tiny_problem
        with MultiprocessScoreProvider(
            tiny_engine, target, non_targets, num_workers=1, timeout=120.0
        ) as provider:
            provider.scores([rng.integers(0, 20, size=20).astype(np.uint8)])
            stats = provider.runtime_stats()["elastic"]
            assert stats["policy"] == "fixed"
            assert stats["live_workers"] == 1
            assert stats["scale_ups"] == 0
            assert stats["scale_downs"] == 0

    def test_scaling_bounds_validation(self, tiny_engine, tiny_problem):
        target, non_targets = tiny_problem
        with pytest.raises(ValueError, match="unknown scaling policy"):
            MultiprocessScoreProvider(
                tiny_engine, target, non_targets, num_workers=1, scaling="bogus"
            )
        with pytest.raises(ValueError, match="max_workers"):
            MultiprocessScoreProvider(
                tiny_engine,
                target,
                non_targets,
                num_workers=1,
                min_workers=4,
                max_workers=2,
            )
