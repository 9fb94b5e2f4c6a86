"""End-to-end telemetry: a tiny design run exports the metrics the
scaling experiments need, and both providers report identically through
the shared caching base class."""

import numpy as np
import pytest

from repro.core.designer import InhibitorDesigner
from repro.ga.fitness import CachingScoreProvider, SerialScoreProvider
from repro.parallel.mp_backend import MultiprocessScoreProvider
from repro.telemetry import MetricsRegistry, export_jsonl, read_jsonl


@pytest.fixture()
def registry():
    return MetricsRegistry()


def test_design_run_exports_generation_metrics(
    tiny_world, registry, tmp_path, result_block_spans
):
    designer = InhibitorDesigner(
        tiny_world,
        population_size=8,
        candidate_length=24,
        non_target_limit=4,
        telemetry=registry,
    )
    try:
        generations = 3
        designer.design("YBL051C", seed=5, termination=generations)
    finally:
        tiny_world.engine.set_telemetry(None)  # session fixture: restore

    path = tmp_path / "design.jsonl"
    assert export_jsonl(registry, path) > 0
    records = read_jsonl(path)

    events = [r for r in records if r.get("event") == "ga.generation"]
    assert len(events) == generations
    for event in events:
        assert event["evaluations"] > 0
        assert 0.0 <= event["cache_hit_rate"] <= 1.0
        assert event["duration_s"] > 0.0
    assert [e["generation"] for e in events] == list(range(generations))

    metrics = {r["name"]: r for r in records if r.get("record") == "metric"}
    # PIPE kernel timings: the result blocks' spans are those of the route
    # this process takes (the compiled call, or the numpy body's product
    # and filter).
    for kernel in ("pipe.window_build", *result_block_spans):
        assert metrics[kernel]["count"] > 0
        assert metrics[kernel]["total_s"] > 0.0
    # GA loop timings and fitness distribution.
    assert metrics["ga.evaluate"]["count"] == generations
    assert metrics["ga.fitness"]["count"] > 0
    # Cache traffic.
    assert metrics["provider.cache.misses"]["value"] > 0


def test_serial_and_parallel_identical_through_base(
    tiny_engine, tiny_problem, registry, rng
):
    target, non_targets = tiny_problem
    serial = SerialScoreProvider(tiny_engine, target, non_targets)
    seqs = [rng.integers(0, 20, size=25).astype(np.uint8) for _ in range(5)]
    with MultiprocessScoreProvider(
        tiny_engine,
        target,
        non_targets,
        num_workers=2,
        timeout=120.0,
        telemetry=registry,
    ) as parallel:
        assert isinstance(serial, CachingScoreProvider)
        assert isinstance(parallel, CachingScoreProvider)
        parallel_scores = parallel.scores(seqs)
        serial_scores = serial.scores(seqs)
        for p, s in zip(parallel_scores, serial_scores):
            assert p.target_score == pytest.approx(s.target_score)
            assert p.non_target_scores == pytest.approx(s.non_target_scores)
        # Both report the same cache accounting through the shared base.
        assert parallel.cache_stats["misses"] == serial.cache_stats["misses"] == 5
        # The master recorded per-worker throughput telemetry.
        stats = parallel.runtime_stats()["workers"]
        assert sum(int(w["items"]) for w in stats.values()) == 5
        snap = registry.snapshot()
        assert snap["parallel.batch"]["count"] == 1
        assert any(name.startswith("parallel.worker.") for name in snap)


def test_null_registry_design_run_records_nothing(tiny_world):
    designer = InhibitorDesigner(
        tiny_world,
        population_size=6,
        candidate_length=20,
        non_target_limit=2,
    )
    result = designer.design("YBL051C", seed=7, termination=2)
    assert result.fitness >= 0.0
    assert tiny_world.engine.telemetry.snapshot() == {}
