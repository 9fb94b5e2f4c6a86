"""Elastic pool resizes under chaos: correctness must survive scaling.

The elastic contract extends the supervisor contract: whatever the
scaling policy does — growing the pool mid-batch, retiring workers that
still hold items in their inbox window, losing a worker in the middle of
a scale-down — scores stay bit-exact with the fixed-pool/serial
reference and no item is ever lost.  The invariant behind the
scale-down scenarios: a retiring worker finishes what its inbox holds;
nothing is drained back, re-dispatched or trapped, and no delta state
leaves with it because similarity structures live in the master.  Every
scenario here pins exactness alongside the scaling accounting
(``scale_ups``, ``scale_downs``, ``retired``, ``worker_deaths``).
"""

import time

import numpy as np
import pytest

from repro.ga.config import GAParams
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.elastic import LatencyTargetScaling, QueueDepthScaling
from repro.parallel.mp_backend import IN_FLIGHT_WINDOW, MultiprocessScoreProvider
from repro.parallel.worker import FaultPlan
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.faults


def _seqs(rng, n, size=25):
    return [rng.integers(0, 20, size=size).astype(np.uint8) for _ in range(n)]


def _same_scores(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.target_score == w.target_score
        assert g.non_target_scores == w.non_target_scores
    return True


def test_scale_up_mid_batch_bit_exact(tiny_engine, tiny_problem, rng):
    """A deep backlog on a small pool scales up mid-batch; the late
    spawned workers attach to the existing shared proteome segment and
    their answers are bit-exact with the serial reference."""
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seqs = _seqs(rng, 12)
    telemetry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        scaling=QueueDepthScaling(1, 3, items_per_worker=2),
        timeout=120.0,
        telemetry=telemetry,
    ) as provider:
        out = provider.scores(seqs)
        assert provider.pool.scale_ups > 0
        # The gauge proves the pool really grew mid-batch (it may have
        # already shrunk back by the time the batch drained).
        assert telemetry.gauge("parallel.pool_size").max > 1
    assert _same_scores(out, serial.scores(seqs))


def test_scale_down_with_sticky_backlog_loses_nothing(
    tiny_engine, tiny_problem, rng
):
    """Workers retired mid-batch finish the items already in their inbox
    window: every item is handed out exactly once (nothing drained back,
    nothing re-dispatched, no stale reply), and children of parents a
    retired worker scored still take the delta route, bit-exact — the
    structures never lived in the worker.  (The scenario keeps its
    historical name; the backlog once parked on a sticky queue is now
    the retiring worker's window.)"""
    from repro.ppi.delta import mutation_provenance

    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    telemetry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=3,
        scaling=QueueDepthScaling(1, 3, items_per_worker=4),
        timeout=120.0,
        # Slow items: a worker is still busy in its window when the
        # draining backlog tells the policy to retire it.
        faults=FaultPlan(delay=0.02),
        telemetry=telemetry,
    ) as provider:
        # Deep batch: 3 workers at the start, one by the time it drains.
        parents = _seqs(rng, 12)
        assert _same_scores(provider.scores(parents), serial.scores(parents))
        assert provider.pool.scale_downs > 0
        assert len(provider.pool._workers) < 3
        children, provs = [], []
        for parent in parents[:4]:
            child = parent.copy()
            child[7] = (child[7] + 1) % 20
            children.append(child)
            provs.append(mutation_provenance(parent, [7]))
        out = provider.scores_with_provenance(children, provs)
        assert _same_scores(out, serial.scores(children))
        assert provider.pool.dispatched == len(parents) + len(children)
        assert provider.pool.retries == 0
        assert provider.pool.stale_dropped == 0
        delta = provider.pool.stats()["delta"]
        assert delta["hits"] == len(children)
        assert delta["fallbacks"] == 0
        # Clean retirements are eventually reaped as retired, not deaths:
        # give the retiring workers a bounded window to exit.
        deadline = time.monotonic() + 15.0
        while (
            provider.pool.retired < provider.pool.scale_downs
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
            provider.pool._reap_dead_workers()
        assert provider.pool.retired == provider.pool.scale_downs
        assert provider.pool.worker_deaths == 0
        assert telemetry.counter("parallel.retired").value == provider.pool.retired


def test_worker_death_during_scale_down_recovers(
    tiny_engine, tiny_problem, rng
):
    """A worker crashing while the pool is shrinking exercises death
    recovery and retirement in the same run: the crash is counted as a
    death and costs at most the dead worker's window in retries, the
    retiring workers' items are left alone (no duplicate reply), and
    every score stays bit-exact."""
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=3,
        scaling=QueueDepthScaling(1, 3, items_per_worker=4),
        timeout=120.0,
        max_retries=3,
        # Both items of worker 1's first window are in its inbox before
        # any retire signal can be, so the crash is certain.
        faults=FaultPlan(crash_on_item=1, only_worker=1),
        telemetry=MetricsRegistry(),
    ) as provider:
        # Deep batch: worker 1 dies on its second item while the draining
        # backlog retires its siblings.
        big = _seqs(rng, 12)
        assert _same_scores(provider.scores(big), serial.scores(big))
        assert provider.pool.worker_deaths >= 1
        assert provider.pool.retries <= IN_FLIGHT_WINDOW * provider.pool.worker_deaths
        assert provider.pool.stale_dropped == 0
        # Tiny batch: the policy shrinks the pool to one worker.
        small = _seqs(rng, 2)
        assert _same_scores(provider.scores(small), serial.scores(small))
        assert provider.pool.scale_downs >= 1
        assert len(provider.pool._workers) == 1


def test_elastic_ga_campaign_bit_exact_with_fixed(tiny_engine, tiny_problem):
    """The acceptance scenario: a whole GA campaign under the
    latency-target policy (latencies inflated so the controller provably
    resizes in both directions) produces the identical design as the
    fixed-pool run on the same seed."""
    target, non_targets = tiny_problem
    generations = 2

    def engine_for(provider):
        return InSiPSEngine(
            provider,
            GAParams(),
            population_size=10,
            candidate_length=16,
            seed=7,
        )

    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2, timeout=120.0
    ) as fixed_provider:
        fixed = engine_for(fixed_provider).run(generations)

    telemetry = MetricsRegistry()
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=1,
        scaling=LatencyTargetScaling(1, 3, target_s=0.08),
        timeout=120.0,
        faults=FaultPlan(delay=0.03),  # ~30 ms/item: EWMA forces scale-up
        telemetry=telemetry,
    ) as elastic_provider:
        elastic = engine_for(elastic_provider).run(generations)
        stats = elastic_provider.pool.stats()["elastic"]
        assert stats["scale_ups"] > 0, stats
        assert stats["scale_downs"] > 0, stats
        assert telemetry.counter("parallel.scale_up").value == stats["scale_ups"]
        assert (
            telemetry.counter("parallel.scale_down").value
            == stats["scale_downs"]
        )
        assert telemetry.gauge("parallel.item_latency_ewma").value > 0.0

    assert elastic.best.sequence == fixed.best.sequence
    assert elastic.history.to_payload() == fixed.history.to_payload()
