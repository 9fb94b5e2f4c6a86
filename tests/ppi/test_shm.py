"""Lifecycle and bit-exactness tests for the shared-memory proteome view.

These cover the same-process paths (share → attach → rebuild → close);
cross-process behaviour — forked/spawned workers, SIGKILL leak safety —
lives in ``tests/parallel/test_shm_runtime.py``.
"""

import pickle

import numpy as np
import pytest

from repro.ppi import shm as shm_mod
from repro.ppi.shm import SharedProteomeView
from repro.telemetry import MetricsRegistry


def _segment_exists(token: str) -> bool:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=token)
    except FileNotFoundError:
        return False
    seg.close()
    return True


@pytest.fixture()
def shared_view(tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    view = SharedProteomeView.share(
        tiny_engine.database, similarity_names=[target, *non_targets]
    )
    yield view
    view.close()


def test_share_registers_one_segment(shared_view):
    stats = shared_view.stats()
    assert stats["owner"] is True
    assert stats["open_views"] == 1
    assert stats["bytes"] > 0
    assert _segment_exists(shared_view.handle.token)


def test_handle_is_small_and_picklable(shared_view, tiny_engine):
    blob = pickle.dumps(shared_view.handle)
    # The whole point: kilobytes of handle instead of the pickled engine
    # (the gap widens with proteome size; the tiny world is ~7x).
    assert len(blob) < 64 * 1024
    assert len(blob) < len(pickle.dumps(tiny_engine))


def test_rebuilt_database_is_bit_exact(shared_view, tiny_engine, rng):
    # The database pins its backing view (build_database back-reference),
    # so not keeping the view alive explicitly is safe.
    database = SharedProteomeView.attach(shared_view.handle).build_database()
    source = tiny_engine.database
    assert database.graph.names == source.graph.names
    assert np.array_equal(database.concatenated, source.concatenated)
    assert np.array_equal(database.valid_columns, source.valid_columns)
    seq = rng.integers(0, 20, size=40).astype(np.uint8)
    a = source.sequence_similarity(seq)
    b = database.sequence_similarity(seq)
    assert a.num_windows == b.num_windows
    assert (a.counts != b.counts).nnz == 0


def test_rebuilt_graph_and_proteins_match_the_masters(shared_view, tiny_engine):
    """The worker's graph is read off the shared adjacency in bulk and
    its proteins are rebuilt unvalidated: both must equal the master's."""
    # The database pins the view its proteins' encoded arrays live in.
    database = SharedProteomeView.attach(shared_view.handle).build_database()
    graph = database.graph
    source = tiny_engine.database.graph
    assert graph.num_edges == source.num_edges
    assert graph.edges() == source.edges()
    assert (graph.adjacency_matrix() != source.adjacency_matrix()).nnz == 0
    for ours, theirs in zip(graph.proteins, source.proteins):
        assert ours == theirs
        assert np.array_equal(ours.encoded, theirs.encoded)
        assert not ours.encoded.flags.writeable


def test_attached_engine_starts_with_the_masters_evidence(
    tiny_engine, tiny_problem, rng
):
    """The segment carries each warmed problem's evidence: an engine
    built over an attached segment holds arrays identical to the
    master's (zero-copy views of the segment), and its first
    ``score_batch`` of that problem adds no evidence-cache entry."""
    from repro.ga.fitness import score_batch

    target, non_targets = tiny_problem
    names = (target, *non_targets)
    master = tiny_engine.evidence_arrays(names)
    with SharedProteomeView.share(
        tiny_engine.database, similarity_names=list(names), evidence={names: master}
    ) as owner:
        view = SharedProteomeView.attach(owner.handle)
        try:
            engine = view.build_engine(tiny_engine.config)
            assert list(engine._evidence_cache) == [names]
            entry = engine._evidence_cache[names]
            for ours, theirs in zip(entry.native, master):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)
                assert not ours.flags.writeable and not ours.flags.owndata
            assert entry.bounds == tiny_engine._evidence(names).bounds
            seqs = [rng.integers(0, 20, size=30).astype(np.uint8) for _ in range(5)]
            problems = [(target, tuple(non_targets))] * len(seqs)
            scores, _ = score_batch(engine, seqs, problems)
            assert scores == score_batch(tiny_engine, seqs, problems)[0]
            assert list(engine._evidence_cache) == [names]
            assert engine._evidence_cache[names] is entry
            del engine, entry
        finally:
            view.close()


def test_precomputed_similarities_prefilled(shared_view, tiny_engine, tiny_problem):
    target, non_targets = tiny_problem
    view = SharedProteomeView.attach(shared_view.handle)
    try:
        database = view.build_database()
        for name in (target, *non_targets):
            assert name in database._protein_similarity_cache
            theirs = database.protein_similarity(name)
            ours = tiny_engine.database.protein_similarity(name)
            assert (theirs.counts != ours.counts).nnz == 0
    finally:
        view.close()


def test_attach_counts_and_unlink_on_last_close(tiny_engine):
    view = SharedProteomeView.share(tiny_engine.database)
    token = view.handle.token
    second = SharedProteomeView.attach(view.handle)
    assert view.stats()["open_views"] == 2
    view.close()  # owner closes first: segment must survive the attacher
    assert second.stats()["open_views"] == 1
    assert _segment_exists(token)
    second.close()
    assert not _segment_exists(token)
    assert token not in shm_mod._OPEN_VIEWS


def test_close_is_idempotent(tiny_engine):
    view = SharedProteomeView.share(tiny_engine.database)
    view.close()
    view.close()
    assert not _segment_exists(view.handle.token)


def test_context_manager_unlinks(tiny_engine):
    with SharedProteomeView.share(tiny_engine.database) as view:
        token = view.handle.token
        assert _segment_exists(token)
    assert not _segment_exists(token)


def test_telemetry_counters(tiny_engine):
    registry = MetricsRegistry()
    view = SharedProteomeView.share(tiny_engine.database, telemetry=registry)
    attached = SharedProteomeView.attach(view.handle, telemetry=registry)
    attached.close()
    view.close()
    assert registry.counter("shm.attaches").value >= 1
    assert registry.counter("shm.unlinks").value == 1


def test_segment_carries_score_rows(shared_view, tiny_engine):
    """The batched kernel's gather source is broadcast, not rebuilt: the
    segment holds ``score_rows`` and an attached database maps it."""
    source = tiny_engine.database
    assert source.score_rows is not None
    spec = shared_view.handle.arrays["score_rows"]
    assert spec.shape == source.score_rows.shape == (20, source.concatenated.size)
    assert np.dtype(spec.dtype) == np.int16
    assert np.array_equal(shared_view.array("score_rows"), source.score_rows)
    view = SharedProteomeView.attach(shared_view.handle)
    try:
        database = view.build_database()
        assert np.array_equal(database.score_rows, source.score_rows)
        assert not database.score_rows.flags.owndata  # a view of the segment
        assert not database.score_rows.flags.writeable
        del database
    finally:
        view.close()


def test_close_leaves_no_segment_file_behind(tiny_engine):
    import glob

    view = SharedProteomeView.share(tiny_engine.database)
    path = f"/dev/shm/{view.handle.token}"
    attached = SharedProteomeView.attach(view.handle)
    database = attached.build_database()
    assert database.score_rows is not None
    assert glob.glob(path) == [path]
    del database
    attached.close()
    view.close()
    assert glob.glob("/dev/shm/repro-proteome-*") == []
