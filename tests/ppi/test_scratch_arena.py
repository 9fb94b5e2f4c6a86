"""The per-thread scratch arena under the batched sweep and the fused
result groups.

The arena exists so that a process scoring slice after slice keeps its
working set mapped instead of returning each tile's and each group's
temporaries to the kernel and faulting them back in.  These tests pin
that mechanism by count (minor page faults per candidate in a forked
child), and the rules that make reuse safe: reused bytes never leak into
a result, threads never share an arena, nothing returned or cached lives
in it, an oversized request is not retained, and the library calls that
write into it behave as the code assumes.

The batched sweep only uses the arena in its numpy tile body (the
compiled loop keeps its sums in registers), so the tests about the
sweep's carves pin that body explicitly rather than pass vacuously on a
host that built the compiled loop.  The result blocks carve from it on
both routes (the numpy body's dense group, the compiled call's
per-candidate buffers), so those tests pin the route they measure.
"""

import copy
import os
import resource
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage as ndi
import scipy.sparse as sp

from repro.ga.fitness import score_batch
from repro.ppi.delta import SimilarityLRU
from repro.ppi import pipe
from repro.ppi.kernels import NativeSweep, ScratchArena, native_sweep, scratch_arena
from repro.ppi.pipe import GROUP_CELLS, PipeEngine

#: Minor faults per candidate a warm process may take on ``tiny`` slices.
#: With the arena a slice reads single digits; re-faulting each tile's
#: and group's temporaries costs ~100–400.
FAULTS_PER_CANDIDATE = 30


def _candidates(rng, n, low=20, high=100):
    return [
        rng.integers(0, 20, size=int(rng.integers(low, high))).astype(np.uint8)
        for _ in range(n)
    ]


def _in_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, so on a new, empty arena."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join()
    return out[0]


def _score(engine, problem, arrays):
    return score_batch(engine, arrays, [problem] * len(arrays))[0]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="counts minor faults with os.fork and getrusage, as Linux reports them",
)
def test_warm_slices_take_single_digit_faults(tiny_engine, tiny_problem):
    """A forked child scoring ~30 slices of 1–6 fresh candidates, after
    one warm-up slice, takes at most FAULTS_PER_CANDIDATE minor faults
    per candidate."""
    target, non_targets = tiny_problem
    problem = (target, tuple(non_targets))
    rng = np.random.default_rng(33)
    warm = _candidates(rng, 6, 64, 65)
    slices = [
        _candidates(rng, int(k), 64, 65) for k in rng.integers(1, 7, size=30)
    ]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        try:
            _score(tiny_engine, problem, warm)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for arrays in slices:
                _score(tiny_engine, problem, arrays)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            os.write(write_fd, str(faults).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        report = pipe.read()
    os.waitpid(pid, 0)
    candidates = sum(len(arrays) for arrays in slices)
    per_candidate = int(report) / candidates
    assert per_candidate <= FAULTS_PER_CANDIDATE, (
        f"{per_candidate:.1f} minor faults per candidate over {len(slices)} "
        f"warm slices ({report} for {candidates} candidates); at most "
        f"{FAULTS_PER_CANDIDATE} expected"
    )


@pytest.mark.parametrize("count_positions", [False, True])
@pytest.mark.parametrize("box_radius", [0, 2])
def test_reused_scratch_never_leaks_into_a_result(
    tiny_engine, tiny_problem, tile_kernel, count_positions, box_radius, monkeypatch
):
    """Batch B scored right after a batch with larger tiles and groups,
    right after one with smaller ones, and over an arena filled with
    garbage, equals B on a fresh engine in a fresh thread — with the
    sweep's tiles and the result groups on their numpy bodies, which
    carve them from the arena, and on the compiled loops where this host
    has them (whose result blocks carve their buffers from it too)."""
    config = replace(
        tiny_engine.config, count_positions=count_positions, box_radius=box_radius
    )
    target, non_targets = tiny_problem
    problem = (target, tuple(non_targets))
    rng = np.random.default_rng(7)
    larger = _candidates(rng, 14, 90, 140)
    smaller = _candidates(rng, 1, 8, 12)
    batch = _candidates(rng, 5)
    bodies = ["numpy"] + (["native"] if native_sweep().available else [])
    results = []
    for body in bodies:
        database = copy.copy(tiny_engine.database)
        database.kernel = tile_kernel(body)
        with monkeypatch.context() as m:
            if body == "numpy":
                pinned = NativeSweep(reason="pinned to the numpy body")
                m.setattr(pipe, "native_sweep", lambda: pinned)
            expected = _in_fresh_thread(
                lambda: _score(PipeEngine(database, config), problem, batch)
            )
            engine = PipeEngine(database, config)
            for before in (larger, smaller, larger):
                _score(engine, problem, before)
                assert _score(engine, problem, batch) == expected
            # Every retained byte set: int16 -1, float64 NaN, bool True.
            scratch_arena().buffer.fill(0xFF)
            assert _score(engine, problem, batch) == expected
        results.append(expected)
    assert results == [results[0]] * len(results)


def test_threads_sharing_one_engine_get_their_serial_results(
    tiny_engine, tiny_problem
):
    """More threads than cores, switching often, score different batches
    on one engine at once; each gets its serial results every time."""
    target, non_targets = tiny_problem
    problem = (target, tuple(non_targets))
    rng = np.random.default_rng(11)
    batches = [
        _candidates(rng, 6, 60, 120),
        _candidates(rng, 3, 20, 40),
        _candidates(rng, 1, 100, 140),
        _candidates(rng, 9, 30, 60),
    ]
    expected = [_score(tiny_engine, problem, arrays) for arrays in batches]
    start = threading.Barrier(len(batches))
    results: list[list] = [[] for _ in batches]

    def run(i):
        start.wait()
        for _ in range(10):
            results[i].append(_score(tiny_engine, problem, batches[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert got == [want] * 10


def _arrays_of(similarity):
    rows = similarity.rows
    binary = similarity.binary
    return [rows.data, rows.indices, rows.indptr,
            binary.data, binary.indices, binary.indptr]


def test_nothing_returned_or_cached_lives_in_the_arena(tiny_engine, tiny_problem):
    """LRU entries, the structures a full sweep builds and the sweep's
    results own their memory, and the next call leaves them unchanged."""
    target, non_targets = tiny_problem
    problem = (target, tuple(non_targets))
    rng = np.random.default_rng(5)
    arrays = _candidates(rng, 6, 60, 100)
    cache = SimilarityLRU(16)
    score_batch(tiny_engine, arrays, [problem] * len(arrays), None, cache)
    cached = [cache.get(a.tobytes()) for a in arrays]
    built = tiny_engine.database.sequence_similarity_batch(
        _candidates(rng, 4, 60, 100)
    )
    kernel, db = tiny_engine.database.kernel, tiny_engine.database
    sparse = kernel.sweep_batch_sparse(db, arrays)
    dense = kernel.sweep_batch(db, arrays)
    kept = [a for sim in cached for a in _arrays_of(sim)]
    kept += [a for sim in built for a in _arrays_of(sim)]
    kept += [a for m in sparse for a in (m.data, m.indices, m.indptr)]
    kept += dense
    arena = scratch_arena().buffer
    assert arena.size > 0
    assert not any(np.shares_memory(a, arena) for a in kept)
    snapshot = [a.copy() for a in kept]
    score_batch(tiny_engine, _candidates(rng, 8, 100, 140), [problem] * 8)
    assert all(np.array_equal(a, b) for a, b in zip(kept, snapshot))


def test_an_oversized_request_is_not_retained(
    tiny_engine, tiny_problem, tile_kernel, pipe_route
):
    """A single candidate whose fused group (on the numpy body) exceeds
    GROUP_CELLS, and a stacked pass (on the numpy tile body) whose tiles
    exceed fast_chunk_elements, each get a one-off buffer: the retained
    arena stays what the in-bound work needed."""
    pipe_route("numpy")
    target, non_targets = tiny_problem
    names = [target, *non_targets]
    rng = np.random.default_rng(3)
    big = rng.integers(0, 20, size=2101).astype(np.uint8)
    big_similarity = tiny_engine.database.sequence_similarity(big)
    bounds = tiny_engine._evidence(tuple(names)).bounds
    group_bytes = 8 * big_similarity.num_windows * bounds[-1]
    assert group_bytes > 8 * GROUP_CELLS
    stacked = _candidates(rng, 130, 64, 65)  # > 8 192 stacked window rows
    kernel, db = tile_kernel("numpy"), tiny_engine.database

    def retained_after_each():
        arena = scratch_arena()
        tiny_engine.score_similarities(
            [db.sequence_similarity(a) for a in _candidates(rng, 6, 60, 61)], names
        )
        in_bound = arena.buffer.nbytes
        tiny_engine.score_similarities([big_similarity], names)
        after_group = arena.buffer.nbytes
        kernel.sweep_batch_sparse(db, stacked)
        return in_bound, after_group, arena.buffer.nbytes

    in_bound, after_group, after_pass = _in_fresh_thread(retained_after_each)
    assert 0 < in_bound < group_bytes
    assert after_group == in_bound
    assert after_pass == in_bound


def test_an_oversized_candidate_is_not_retained_on_the_compiled_route(
    tiny_engine, tiny_problem, pipe_route
):
    """A single candidate whose compiled-route scratch — ``columns + 3``
    cells for each window near a match — exceeds GROUP_CELLS gets a
    one-off buffer: the retained arena stays what the in-bound batch
    needed, and the candidate still gets the oracle's scores."""
    pipe_route("compiled")
    target, non_targets = tiny_problem
    names = [target, *non_targets]
    db = tiny_engine.database
    # A stretch of the proteome: nearly every window matches its own
    # protein, so nearly every window is near a match.
    big = db.concatenated[:2101].copy()
    big_similarity = db.sequence_similarity(big)
    columns = tiny_engine._evidence(tuple(names)).bounds[-1]
    matched = np.count_nonzero(np.diff(big_similarity.counts.indptr))
    reach = 2 * tiny_engine.config.box_radius + 1
    cells = (columns + 3) * min(big_similarity.num_windows, matched * reach)
    assert cells > GROUP_CELLS
    rng = np.random.default_rng(3)

    def retained_after_each():
        arena = scratch_arena()
        tiny_engine.score_similarities(
            [db.sequence_similarity(a) for a in _candidates(rng, 6, 60, 61)], names
        )
        in_bound = arena.buffer.nbytes
        scores = tiny_engine.score_similarities([big_similarity], names)
        return in_bound, arena.buffer.nbytes, scores

    in_bound, after_big, (scores,) = _in_fresh_thread(retained_after_each)
    assert 0 < in_bound < 8 * cells
    assert after_big == in_bound
    assert scores == {name: tiny_engine.evaluate(big, name).score for name in names}


def test_arena_reservations():
    arena = ScratchArena()
    scratch = arena.reserve(
        ScratchArena.nbytes(((3, 5), np.int16), ((7,), np.float64))
    )
    a = scratch.carve((3, 5), np.int16)
    b = scratch.carve((7,), np.float64)
    assert a.flags.c_contiguous and b.flags.c_contiguous
    assert not np.shares_memory(a, b)
    assert np.shares_memory(a, arena.buffer) and np.shares_memory(b, arena.buffer)
    with pytest.raises(RuntimeError, match="scratch overrun"):
        scratch.carve((1,), np.uint8)
    # A reset hands out the same bytes again.
    scratch.reset()
    assert np.shares_memory(scratch.carve((3, 5), np.int16), a)
    # A one-off never touches the retained buffer.
    retained = arena.buffer.nbytes
    one_off = arena.reserve(10 * retained, retain=False).carve(
        (10 * retained,), np.uint8
    )
    assert arena.buffer.nbytes == retained
    assert not np.shares_memory(one_off, arena.buffer)
    # Each thread owns its arena.
    assert scratch_arena() is scratch_arena()
    assert _in_fresh_thread(scratch_arena) is not scratch_arena()


# -- library behaviour the arena relies on ----------------------------------


def test_csr_toarray_zeroes_its_out_buffer():
    matrix = sp.csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 0.0]]))
    out = np.full((2, 3), np.nan)
    assert matrix.toarray(out=out) is out
    assert np.array_equal(out, matrix.toarray())


def test_take_clip_into_out_equals_take():
    rows = np.random.default_rng(0).integers(-200, 200, size=(20, 300)).astype(np.int16)
    index = np.random.default_rng(1).integers(0, 20, size=97).astype(np.intp)
    block = rows[:, 13:140]
    out = np.full((97, 127), -1, dtype=np.int16)
    block.take(index, axis=0, out=out, mode="clip")
    assert np.array_equal(out, block.take(index, axis=0))


def test_uniform_filter1d_in_place_equals_out_of_place():
    rng = np.random.default_rng(2)
    h = rng.integers(0, 6, size=(4, 37, 50)).astype(np.float64)
    expected = ndi.uniform_filter1d(h, 3, axis=1, mode="constant")
    whole = h.copy()
    ndi.uniform_filter1d(whole, 3, axis=1, mode="constant", output=whole)
    assert np.array_equal(whole, expected)
    # Along axis 2 on one protein's column view of the block.
    block_expected = ndi.uniform_filter1d(
        expected[:, :, 11:29], 5, axis=2, mode="constant"
    )
    block = whole[:, :, 11:29]
    ndi.uniform_filter1d(block, 5, axis=2, mode="constant", output=block)
    assert np.array_equal(whole[:, :, 11:29], block_expected)
    assert np.array_equal(whole[:, :, :11], expected[:, :, :11])
