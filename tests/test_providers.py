"""Tests for the unified construction façade (`repro.providers`) and the
typed :class:`~repro.ppi.pipe.BatchScores` return of ``score_against``."""

import numpy as np
import pytest

from repro.ga.fitness import SerialScoreProvider
from repro.ppi.kernels import ChunkedNumpyKernel
from repro.ppi.pipe import BatchScores, PipeConfig, PipeEngine
from repro.providers import BACKENDS, make_engine, make_score_provider
from repro.telemetry import MetricsRegistry

# ---------------------------------------------------------------- make_engine


def test_make_engine_passthrough(tiny_engine):
    assert make_engine(tiny_engine) is tiny_engine


def test_make_engine_passthrough_rejects_config(tiny_engine):
    with pytest.raises(ValueError, match="existing engine"):
        make_engine(tiny_engine, PipeConfig())
    with pytest.raises(ValueError, match="existing engine"):
        make_engine(tiny_engine, kernel="chunked")


def test_make_engine_from_world(tiny_world, tiny_engine):
    assert make_engine(tiny_world) is tiny_engine


def test_make_engine_from_database(tiny_engine):
    engine = make_engine(tiny_engine.database)
    assert isinstance(engine, PipeEngine)
    assert engine.database is tiny_engine.database
    assert engine.config.window_size == tiny_engine.database.window_size


def test_make_engine_from_graph_replaces_build(tiny_world, tiny_engine):
    cfg = tiny_engine.config
    engine = make_engine(tiny_world.graph, cfg, kernel="chunked")
    assert isinstance(engine.database.kernel, ChunkedNumpyKernel)
    assert engine.database.threshold == tiny_engine.database.threshold


def test_make_engine_rejects_junk():
    with pytest.raises(TypeError, match="make_engine needs"):
        make_engine(42)


# -------------------------------------------------------- make_score_provider


def test_factory_serial_default(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    provider = make_score_provider(tiny_engine, target, non_targets)
    assert isinstance(provider, SerialScoreProvider)
    assert provider.engine is tiny_engine


def test_factory_unknown_backend(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    with pytest.raises(ValueError, match="unknown backend"):
        make_score_provider(tiny_engine, target, non_targets, backend="mpi")
    # The thread backend is deleted: its name is unknown like any other.
    with pytest.raises(ValueError, match="unknown backend 'thread'"):
        make_score_provider(tiny_engine, target, non_targets, backend="thread")
    # So is the fabric backend: a fabric hands out its clients itself.
    with pytest.raises(ValueError, match="unknown backend 'fabric'"):
        make_score_provider(tiny_engine, target, non_targets, backend="fabric")
    assert BACKENDS == ("serial", "process")


def test_factory_serial_rejects_workers(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    with pytest.raises(ValueError, match="serial"):
        make_score_provider(tiny_engine, target, non_targets, workers=4)


def test_factory_process_backend_kwargs(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    with make_score_provider(
        tiny_engine,
        target,
        non_targets,
        backend="process",
        workers=1,
    ) as provider:
        from repro.parallel.mp_backend import MultiprocessScoreProvider

        assert isinstance(provider, MultiprocessScoreProvider)
        assert provider.pool.num_workers == 1
        seq = rng.integers(0, 20, size=20).astype(np.uint8)
        serial = make_score_provider(tiny_engine, target, non_targets)
        assert (
            provider.scores([seq])[0].target_score
            == serial.scores([seq])[0].target_score
        )


@pytest.mark.parametrize(
    "backend, kwargs, case",
    [
        ("serial", {"scaling": "queue-depth"}, "scaling"),
        ("process", {"min_workers": 1}, "min_workers"),
        ("serial", {"share_memory": False}, "unknown keyword"),
        ("process", {"use_delta": False}, "unknown keyword"),
        ("process", {"max_wait_ms": 5.0}, "unknown keyword"),
        ("serial", {"max_items": 8}, "unknown keyword"),
        ("process", {"num_workers": 2}, "workers="),
        ("serial", {"definitely_not_a_kwarg": 1}, "unknown keyword"),
        ("process", {"share_memory": False}, "unknown keyword"),
        ("serial", {"use_delta": False}, "unknown keyword"),
    ],
)
def test_factory_rejects_backend_foreign_kwargs(
    tiny_engine, tiny_problem, backend, kwargs, case
):
    # Regression: kwargs meant for another backend were silently dropped
    # (timeout= with the serial backend was ignored without a word).  The
    # factory forwards no **kwargs, so every one of these — a deleted
    # pool-size, fabric flush, shared-memory or delta switch, or the
    # pool's own num_workers (spelled workers= here) — is Python's own
    # TypeError naming the keyword, on every backend.  ``case`` labels
    # the row.
    target, non_targets = tiny_problem
    (name,) = kwargs
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        make_score_provider(
            tiny_engine, target, non_targets, backend=backend, **kwargs
        )


def test_factory_still_accepts_native_kwargs(tiny_engine, tiny_problem):
    # What the factory declares reaches the pool: workers= sizes it and
    # telemetry= is the registry it reports to.
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    with make_score_provider(
        tiny_engine, target, non_targets, backend="process", workers=1,
        telemetry=registry,
    ) as pooled:
        assert pooled.pool.num_workers == 1
        assert pooled.pool.telemetry is registry


def test_factory_wires_telemetry(tiny_world, tiny_problem, rng):
    target, non_targets = tiny_problem
    registry = MetricsRegistry()
    provider = make_score_provider(
        tiny_world.graph,
        target,
        non_targets,
        config=tiny_world.engine.config,
        telemetry=registry,
    )
    provider.scores([rng.integers(0, 20, size=15).astype(np.uint8)])
    assert registry.counter("pipe.evaluations").value > 0


# ----------------------------------------------------------------- BatchScores


@pytest.fixture()
def batch_scores(tiny_engine, tiny_problem, rng):
    target, non_targets = tiny_problem
    seq = rng.integers(0, 20, size=25).astype(np.uint8)
    return tiny_engine.score_against(seq, [target, *non_targets]), (
        target,
        non_targets,
    )


def test_score_against_returns_typed_mapping(batch_scores):
    scored, (target, non_targets) = batch_scores
    assert isinstance(scored, BatchScores)
    assert set(scored) == {target, *non_targets}
    assert len(scored) == 1 + len(non_targets)
    assert 0.0 <= scored[target] < 1.0


def test_batch_scores_mapping_compat(batch_scores):
    scored, _ = batch_scores
    as_dict = dict(scored)
    assert scored == as_dict  # old dict-returning callers compare equal
    assert as_dict == dict(scored.items())
    assert scored != {**as_dict, "extra": 0.0}


def test_batch_scores_records_timing_and_delta(batch_scores):
    scored, _ = batch_scores
    assert scored.elapsed_s >= 0.0
    # Delta accounting is score_batch's (its DeltaStats), never a
    # BatchScores field.
    assert not hasattr(scored, "delta")


def test_batch_scores_score_set(batch_scores):
    scored, (target, non_targets) = batch_scores
    ss = scored.score_set(target, non_targets)
    assert ss.target_score == scored[target]
    assert ss.non_target_scores == tuple(scored[nt] for nt in non_targets)
