"""Scoring-fabric behaviour: bit-exactness, lifecycle, wiring.

The contract under test is the one API.md states: a GA campaign run
through a :class:`~repro.fabric.FabricClient` is bit-exact (scores,
history, RNG trajectory) with the same campaign on a dedicated
:class:`~repro.parallel.mp_backend.MultiprocessScoreProvider`, with GA
provenance riding every batch — however its batches were fused with
other campaigns'.
"""

import json
import threading

import numpy as np
import pytest

from repro import GAParams, InSiPSEngine
from repro.fabric import ClientClosedError, FabricClient, FabricClosedError, ScoringFabric
from repro.parallel import MultiprocessScoreProvider
from repro.providers import make_score_provider
from repro.telemetry import MetricsRegistry

POPULATION = 10
LENGTH = 20
SEED = 2015
GENERATIONS = 3


def _campaign(provider, generations=GENERATIONS):
    engine = InSiPSEngine(
        provider,
        GAParams(),
        population_size=POPULATION,
        candidate_length=LENGTH,
        seed=SEED,
    )
    return engine.run(generations)


def _payload(result):
    return json.dumps(result.history.to_payload())


@pytest.fixture(scope="module")
def problems(tiny_world, tiny_problem):
    target, non_targets = tiny_problem
    spare = [
        n for n in tiny_world.non_targets_for(target, limit=12)
        if n not in non_targets
    ]
    return [
        (target, non_targets),
        (spare[0], tiny_world.non_targets_for(spare[0], limit=8)),
        (spare[1], tiny_world.non_targets_for(spare[1], limit=8)),
    ]


@pytest.fixture(scope="module")
def dedicated_results(tiny_engine, problems):
    out = []
    for target, non_targets in problems:
        with MultiprocessScoreProvider(
            tiny_engine, target, non_targets, num_workers=1
        ) as provider:
            out.append(_campaign(provider))
    return out


def test_single_client_campaign_bit_exact(tiny_engine, problems, dedicated_results):
    target, non_targets = problems[0]
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        result = _campaign(fabric.client(target, non_targets))
    ref = dedicated_results[0]
    assert result.best.sequence == ref.best.sequence
    assert _payload(result) == _payload(ref)


def _stepped_campaigns(fabric, problems):
    """Run one campaign per problem as stepped engines, the way the design
    service does: each round, every running campaign's cache misses go to
    the pool in one ``fabric.dispatch``.  Returns (results, rounds with a
    dispatch)."""
    clients = [fabric.client(t, nts) for t, nts in problems]
    steps = [
        InSiPSEngine(
            client,
            GAParams(),
            population_size=POPULATION,
            candidate_length=LENGTH,
            seed=SEED,
        ).steps(GENERATIONS)
        for client in clients
    ]
    batches = {i: next(s) for i, s in enumerate(steps)}
    results = {}
    dispatches = 0
    while batches:
        lookups = {i: clients[i].lookup(*batch) for i, batch in batches.items()}
        fused = [i for i, lookup in lookups.items() if lookup.arrays]
        scored = fabric.dispatch(
            [(clients[i], lookups[i].arrays) for i in fused]
        )
        dispatches += bool(fused)
        fresh = dict(zip(fused, scored))
        for i, lookup in lookups.items():
            try:
                batches[i] = steps[i].send(clients[i].store(lookup, fresh.get(i, [])))
            except StopIteration as stop:
                results[i] = stop.value
                del batches[i]
    return results, dispatches


def _threaded_campaigns(fabric, problems):
    """One campaign per problem, each on its own thread and client (the
    benchmark harness's two-client run): every cache miss is a one-request
    dispatch, serialised by the fabric lock."""
    results = {}
    clients = [fabric.client(t, nts) for t, nts in problems]

    def run(i):
        results[i] = _campaign(clients[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
        assert not t.is_alive()
    return results


def test_concurrent_campaigns_bit_exact(tiny_engine, problems, dedicated_results):
    # A campaign's scores never depend on what it was fused with: three
    # campaigns stepped through one fused dispatch per round, and the
    # same three on threaded clients, each match a dedicated pool.
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        stepped, dispatches = _stepped_campaigns(fabric, problems)
        stepped_stats = fabric.fabric_stats()
    assert 0 < dispatches <= GENERATIONS
    assert stepped_stats["fused_batches"] == dispatches
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        threaded = _threaded_campaigns(fabric, problems)
        threaded_stats = fabric.fabric_stats()
    for results in (stepped, threaded):
        for i, ref in enumerate(dedicated_results):
            assert results[i].best.sequence == ref.best.sequence
            assert _payload(results[i]) == _payload(ref)
    for stats in (stepped_stats, threaded_stats):
        assert stats["fused_items"] == sum(
            stats["per_client"][c]["items"] for c in stats["per_client"]
        )
    # Same campaigns, same cache misses, however they were fused.
    assert stepped_stats["fused_items"] == threaded_stats["fused_items"]


def test_direct_scores_match_dedicated(tiny_engine, problems, rng):
    target, non_targets = problems[0]
    arrays = [rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(5)]
    with MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=1
    ) as dedicated:
        ref = dedicated.scores([a.copy() for a in arrays])
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        client = fabric.client(target, non_targets)
        got = client.scores([a.copy() for a in arrays])
        again = client.scores([a.copy() for a in arrays])  # LRU path
    assert got == ref
    assert again == ref


def test_make_score_provider_fabric_backend(tiny_engine, problems):
    """The factory has no fabric backend: a client comes from the
    fabric itself, and one campaign alone takes the process backend."""
    target, non_targets = problems[0]
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        client = fabric.client(target, non_targets)
        assert isinstance(client, FabricClient)
        assert client.target == target
        assert client.non_targets == list(non_targets)
        with pytest.raises(ValueError, match="unknown backend 'fabric'"):
            make_score_provider(fabric, target, non_targets, backend="fabric")


def test_client_close_is_final(tiny_engine, problems, rng):
    target, non_targets = problems[0]
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        client = fabric.client(target, non_targets)
        arr = rng.integers(0, 20, size=LENGTH).astype(np.uint8)
        client.scores([arr])
        client.close()
        client.close()  # idempotent
        with pytest.raises(ClientClosedError):
            client.scores([arr])
        # the fabric keeps serving other clients
        other = fabric.client(target, non_targets)
        assert other.scores([arr.copy()])


def test_fabric_close_idempotent_and_final(tiny_engine, problems, rng):
    fabric = ScoringFabric(tiny_engine, num_workers=1)
    target, non_targets = problems[0]
    client = fabric.client(target, non_targets)
    client.scores([rng.integers(0, 20, size=LENGTH).astype(np.uint8)])
    fabric.close()
    fabric.close()
    with pytest.raises(FabricClosedError):
        fabric.client(target, non_targets)
    with pytest.raises((FabricClosedError, ClientClosedError)):
        client.scores([rng.integers(0, 20, size=LENGTH).astype(np.uint8)])


def test_fabric_validation(tiny_engine):
    # The timed flush policy is gone: its settings are unknown names now.
    with pytest.raises(TypeError, match="max_items"):
        ScoringFabric(tiny_engine, max_items=8)
    with pytest.raises(TypeError, match="max_wait_ms"):
        ScoringFabric(tiny_engine, max_wait_ms=5.0)


def test_bad_pool_setting_fails_at_construction(tiny_engine):
    # Regression: the pool used to be built by the first client(), so a
    # misconfigured fabric constructed fine and then failed every
    # campaign.  The pool is now built here (its workers still spawn on
    # first use).
    with pytest.raises(ValueError, match="num_workers"):
        ScoringFabric(tiny_engine, num_workers=0)
    with pytest.raises(TypeError, match="workers"):
        ScoringFabric(tiny_engine, workers=2)  # misspelt num_workers
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        assert fabric.pool.num_workers == 1
        assert not fabric.pool._workers


def test_fabric_telemetry(tiny_engine, problems, rng):
    registry = MetricsRegistry()
    target, non_targets = problems[0]
    with ScoringFabric(tiny_engine, num_workers=1, telemetry=registry) as fabric:
        client = fabric.client(target, non_targets)
        assert registry.gauge("fabric.clients").value == 1
        arrays = [
            rng.integers(0, 20, size=LENGTH).astype(np.uint8) for _ in range(4)
        ]
        client.scores(arrays)
        stats = fabric.fabric_stats()
        client.close()
        assert registry.gauge("fabric.clients").value == 0
    assert registry.counter("fabric.fused_items").value == stats["fused_items"] == 4
    assert registry.counter("fabric.fused_batches").value == stats["fused_batches"]
    assert registry.counter("fabric.client.0.items").value == 4
    assert registry.histogram("fabric.queue_wait").count == 1  # one dispatch
    assert stats["mean_fused_size"] > 0


def test_empty_batch(tiny_engine, problems):
    target, non_targets = problems[0]
    with ScoringFabric(tiny_engine, num_workers=1) as fabric:
        client = fabric.client(target, non_targets)
        assert client.scores([]) == []
