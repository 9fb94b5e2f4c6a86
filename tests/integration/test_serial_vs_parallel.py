"""The key runtime property: the GA is *bit-identical* whether scores come
from the serial reference path or the multiprocessing master/worker
runtime (the paper's parallelisation changes performance, not results)."""

import numpy as np
import pytest

from repro.ga.config import WETLAB_PARAMS
from repro.ga.engine import InSiPSEngine
from repro.ga.fitness import SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider


@pytest.mark.slow
def test_serial_and_parallel_runs_identical(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem

    serial_provider = SerialScoreProvider(tiny_engine, target, non_targets)
    serial_engine = InSiPSEngine(
        serial_provider,
        WETLAB_PARAMS,
        population_size=10,
        candidate_length=30,
        seed=99,
    )
    serial_result = serial_engine.run(3)

    mp_provider = MultiprocessScoreProvider(
        tiny_engine, target, non_targets, num_workers=2
    )
    try:
        mp_engine = InSiPSEngine(
            mp_provider,
            WETLAB_PARAMS,
            population_size=10,
            candidate_length=30,
            seed=99,
        )
        mp_result = mp_engine.run(3)
    finally:
        mp_provider.close()

    assert np.array_equal(serial_result.best.encoded, mp_result.best.encoded)
    assert serial_result.best_fitness == pytest.approx(mp_result.best_fitness)
    assert np.allclose(
        serial_result.history.best_fitness_curve(),
        mp_result.history.best_fitness_curve(),
    )


def test_designer_with_parallel_provider_factory(tiny_world, tiny_problem):
    from repro.core.designer import InhibitorDesigner

    target, _ = tiny_problem

    created = []

    def factory(engine, target_name, non_targets):
        provider = MultiprocessScoreProvider(
            engine, target_name, non_targets, num_workers=1
        )
        created.append(provider)
        return provider

    designer = InhibitorDesigner(
        tiny_world,
        population_size=8,
        candidate_length=24,
        non_target_limit=4,
        provider_factory=factory,
    )
    result = designer.design(target, seed=5, termination=2)
    assert result.fitness >= 0.0
    assert created  # the factory was actually used
    assert not created[0].pool._workers  # closed by design()


def test_designer_registry_reaches_a_factory_built_pool(tiny_world, tiny_problem):
    """A factory that builds a process provider without ``telemetry=``
    still reports the pool's ``parallel.*`` and ``shm.*`` metrics into
    the designer's registry."""
    from repro.core.designer import InhibitorDesigner
    from repro.telemetry import MetricsRegistry

    target, _ = tiny_problem
    registry = MetricsRegistry()
    designer = InhibitorDesigner(
        tiny_world,
        population_size=8,
        candidate_length=24,
        non_target_limit=4,
        provider_factory=lambda engine, name, non_targets: MultiprocessScoreProvider(
            engine, name, non_targets, num_workers=1
        ),
        telemetry=registry,
    )
    designer.design(target, seed=5, termination=2)
    assert registry.counter("parallel.dispatched").value > 0
    assert registry.counter("parallel.slices").value > 0
    assert registry.counter("shm.unlinks").value == 1
