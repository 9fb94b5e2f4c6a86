"""Microbenchmarks of the PIPE kernels (the workload the BGQ ran).

The batched-vs-per-sequence sweep comparison and the shared-memory RSS
probe export their numbers through ``benchmark.extra_info`` so the
``BENCH_*.json`` records the population-sweep speedup and the per-worker
memory footprint alongside the headline timings.
"""

import time
import warnings

import numpy as np
import pytest

from repro.ppi import pipe
from repro.ppi.kernels import BatchedNumpyKernel, ChunkedNumpyKernel
from repro.ppi.similarity import exact_threshold, window_similarity_scores
from repro.sequences.random_gen import RandomSequenceGenerator
from repro.substitution import PAM120

POPULATION = 32
CANDIDATE_LENGTH = 64

#: Non-gating guard: the batched kernel should sweep a population at or
#: above this multiple of the per-sequence loop; below it we *warn* (the
#: shared CI box is noisy) rather than fail.
BATCHED_SPEEDUP_GUARD = 2.0


@pytest.fixture(scope="module")
def candidate():
    return RandomSequenceGenerator(64, 64, seed=1).encoded()


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(7)
    return [
        rng.integers(0, 20, size=CANDIDATE_LENGTH).astype(np.uint8)
        for _ in range(POPULATION)
    ]


def test_bench_similarity_sweep(benchmark, small_world, candidate):
    """The worker-side 'build sequence_similarity' step: one candidate
    against the whole proteome."""
    db = small_world.engine.database
    sim = benchmark(db.sequence_similarity, candidate)
    assert sim.num_windows == 64 - db.window_size + 1


def test_bench_pipe_score_pair(benchmark, small_world, candidate):
    """One PIPE(A, B) evaluation with a warm known-protein cache."""
    engine = small_world.engine
    engine.database.precompute(["YBL051C"])
    score = benchmark(engine.score, candidate, "YBL051C")
    assert 0.0 <= score < 1.0


def test_bench_score_against_problem(benchmark, small_world, candidate):
    """The full worker work unit: candidate vs target + non-targets
    (Algorithm 2's inner loop)."""
    engine = small_world.engine
    target = "YBL051C"
    nts = small_world.non_targets_for(target, limit=16)
    engine.database.precompute([target, *nts])
    scores = benchmark(engine.score_against, candidate, [target, *nts])
    assert len(scores) == 17


def test_bench_score_against_instrumented(
    benchmark, small_world, candidate, telemetry_registry
):
    """Algorithm 2's inner loop with live telemetry: measures the
    instrumentation overhead against ``test_bench_score_against_problem``
    and exports the per-kernel breakdown into BENCH_*.json via
    ``extra_info``."""
    engine = small_world.engine
    target = "YBL051C"
    nts = small_world.non_targets_for(target, limit=16)
    engine.database.precompute([target, *nts])
    engine.set_telemetry(telemetry_registry)
    try:
        scores = benchmark(engine.score_against, candidate, [target, *nts])
    finally:
        engine.set_telemetry(None)
    assert len(scores) == 17
    breakdown = telemetry_registry.snapshot()
    # The result block's spans on the route this process takes: the
    # compiled call, or the numpy body's product and filter.
    if pipe.native_sweep().available:
        assert breakdown["pipe.result_block"]["count"] > 0
    else:
        assert breakdown["pipe.triple_product"]["count"] > 0
        assert breakdown["pipe.box_filter"]["count"] > 0
    benchmark.extra_info["telemetry"] = {
        name: payload
        for name, payload in breakdown.items()
        if name.startswith("pipe.")
    }


def test_bench_sweep_population_per_sequence(benchmark, small_world, population):
    """Baseline: one generation's dirty windows swept one candidate at a
    time through the chunked reference kernel."""
    db = small_world.engine.database
    kernel = ChunkedNumpyKernel()
    out = benchmark(lambda: [kernel.sweep(db, s) for s in population])
    assert len(out) == POPULATION
    benchmark.extra_info["population"] = POPULATION


def test_bench_sweep_population_batched(benchmark, small_world, population):
    """The same generation as one stacked batched-kernel pass."""
    db = small_world.engine.database
    kernel = BatchedNumpyKernel()
    out = benchmark(kernel.sweep_batch, db, population)
    assert len(out) == POPULATION
    benchmark.extra_info["population"] = POPULATION


def test_batched_sweep_speedup_guard(benchmark, small_world, population):
    """Batched-vs-per-sequence comparison in one place: bit-exact always;
    the >= 2x throughput bar is a *non-gating* guard (warning, recorded
    in extra_info) because wall-clock on a shared box is noisy."""
    db = small_world.engine.database
    chunked = ChunkedNumpyKernel()
    batched = BatchedNumpyKernel()

    def once():
        # Alternate the two sides and keep the min of each: a single shot
        # per side is at the mercy of scheduler noise on a shared box.
        t_serial = t_batched = float("inf")
        expected = got = None
        for _ in range(3):
            start = time.perf_counter()
            expected = [chunked.sweep(db, s) for s in population]
            t_serial = min(t_serial, time.perf_counter() - start)
            start = time.perf_counter()
            got = batched.sweep_batch(db, population)
            t_batched = min(t_batched, time.perf_counter() - start)
        return expected, got, t_serial, t_batched

    once()  # warm the caches on both paths
    expected, got, t_serial, t_batched = benchmark.pedantic(
        once, rounds=1, iterations=1
    )
    for e, g in zip(expected, got):
        assert np.array_equal(e, g)
    speedup = t_serial / t_batched
    benchmark.extra_info["population"] = POPULATION
    benchmark.extra_info["per_sequence_s"] = t_serial
    benchmark.extra_info["batched_s"] = t_batched
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["guard"] = BATCHED_SPEEDUP_GUARD
    if speedup < BATCHED_SPEEDUP_GUARD:
        warnings.warn(
            f"batched sweep speedup {speedup:.2f}x below the "
            f"{BATCHED_SPEEDUP_GUARD}x guard (per-seq {t_serial:.3f}s, "
            f"batched {t_batched:.3f}s)",
            stacklevel=1,
        )


_RSS_FIELDS = ("VmRSS", "RssAnon", "RssFile", "RssShmem")


def _rss_breakdown_kb(pid: int) -> dict[str, int] | None:
    try:
        with open(f"/proc/{pid}/status") as fh:
            out = {}
            for line in fh:
                field = line.split(":", 1)[0]
                if field in _RSS_FIELDS:
                    out[field] = int(line.split()[1])
            return out or None
    except OSError:
        return None


def test_bench_worker_rss(benchmark, small_world, population):
    """Per-worker resident memory with the proteome in shared memory.
    Workers are *spawned* (not forked) so the footprint is what each
    worker actually owns — fork's copy-on-write pages would otherwise
    hide private copies.  The VmRSS/RssAnon/RssShmem breakdown per
    worker and the pickle size of the segment handle (the bytes
    broadcast to every worker) land in extra_info."""
    import pickle

    from repro.parallel.mp_backend import MultiprocessScoreProvider

    engine = small_world.engine
    target = "YBL051C"
    non_targets = small_world.non_targets_for(target, limit=8)

    def run():
        with MultiprocessScoreProvider(
            engine,
            target,
            non_targets,
            num_workers=2,
            timeout=300.0,
            start_method="spawn",
        ) as provider:
            out = provider.scores(population)
            rss = {
                wid: _rss_breakdown_kb(proc.pid)
                for wid, proc in provider.pool._workers.items()
            }
            shipped = len(pickle.dumps(provider.pool._shm_view.handle))
        return out, rss, shipped

    out, rss, shipped = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(out) == POPULATION
    measured = [b["VmRSS"] for b in rss.values() if b and "VmRSS" in b]
    benchmark.extra_info["per_worker_rss_kb"] = rss
    benchmark.extra_info["shipped_handle_bytes"] = shipped
    if measured:
        benchmark.extra_info["mean_worker_rss_kb"] = sum(measured) / len(measured)


def test_bench_window_scores(benchmark):
    """Raw window-similarity kernel: 200x400 residue pair."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 20, size=200).astype(np.uint8)
    b = rng.integers(0, 20, size=400).astype(np.uint8)
    out = benchmark(window_similarity_scores, a, b, 6, PAM120)
    assert out.shape == (195, 395)


def test_bench_threshold_calibration(benchmark):
    """Exact PMF-based threshold calibration (database build step)."""
    thr = benchmark(exact_threshold, PAM120, 20, match_rate=1e-7)
    assert thr > 0
