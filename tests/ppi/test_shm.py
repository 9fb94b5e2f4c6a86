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
