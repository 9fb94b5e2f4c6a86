"""Tests for the pluggable similarity-kernel layer.

The chunked numpy kernel is the bit-exact reference; the batched kernel
must reproduce it exactly (the seam rows between stacked sequences are
discarded, per-row float64 summation order is unchanged) while sweeping a
whole population in a handful of stacked passes — through the compiled
tile loop where this host built it, and through the numpy tile body.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import (
    DEFAULT_KERNEL,
    BatchedNumpyKernel,
    ChunkedNumpyKernel,
    CSRRows,
    SimilarityKernel,
    available_kernels,
    get_kernel,
    native_sweep,
    register_kernel,
)
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120
from repro.substitution.matrix import SubstitutionMatrix

W = 3
THRESHOLD = 15.0


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(7)
    proteins = [
        Protein(f"P{i}", decode(rng.integers(0, 20, size=int(n)).astype(np.uint8)))
        for i, n in enumerate(rng.integers(8, 30, size=8))
    ]
    proteins.append(Protein("SHORT", "AC"))  # shorter than the window
    graph = InteractionGraph(proteins, [("P0", "P1"), ("P2", "P3")])
    return PipeDatabase(graph, PAM120, W, THRESHOLD, kernel="chunked")


def _population(rng, n, lo=4, hi=40):
    return [
        rng.integers(0, 20, size=int(length)).astype(np.uint8)
        for length in rng.integers(lo, hi, size=n)
    ]


# ---------------------------------------------------------------- registry


def test_registry_lists_reference_first():
    names = available_kernels()
    assert names[0] == ChunkedNumpyKernel.name == "chunked"
    assert BatchedNumpyKernel.name in names


def test_default_kernel_is_batched():
    assert DEFAULT_KERNEL == "batched"
    assert isinstance(get_kernel(None), BatchedNumpyKernel)


def test_get_kernel_by_name_and_passthrough():
    assert isinstance(get_kernel("chunked"), ChunkedNumpyKernel)
    instance = BatchedNumpyKernel()
    assert get_kernel(instance) is instance


def test_get_kernel_unknown_name():
    with pytest.raises(ValueError, match="unknown similarity kernel"):
        get_kernel("does-not-exist")


def test_register_kernel_requires_concrete_name():
    class Nameless(ChunkedNumpyKernel):
        name = SimilarityKernel.name

    with pytest.raises(ValueError):
        register_kernel(Nameless)


def test_register_kernel_decorator_roundtrip():
    @register_kernel
    class Doubled(ChunkedNumpyKernel):
        name = "test-doubled"

    try:
        assert "test-doubled" in available_kernels()
        assert isinstance(get_kernel("test-doubled"), Doubled)
    finally:
        from repro.ppi import kernels

        kernels._REGISTRY.pop("test-doubled", None)


# ------------------------------------------------------------- bit-exact


def test_batched_sweep_matches_chunked(database):
    rng = np.random.default_rng(11)
    seqs = _population(rng, 12)
    chunked = ChunkedNumpyKernel()
    batched = BatchedNumpyKernel()
    expected = [chunked.sweep(database, s) for s in seqs]
    got = batched.sweep_batch(database, seqs)
    assert len(got) == len(expected)
    for e, g in zip(expected, got):
        assert g.dtype == e.dtype
        assert np.array_equal(e, g)


def test_batched_grouping_limits_do_not_change_results(database):
    rng = np.random.default_rng(13)
    seqs = _population(rng, 10)
    kernel = BatchedNumpyKernel()
    reference = kernel.sweep_batch(database, seqs)
    # 8 stacked residues force nearly one group per sequence; 512
    # elements cap the stack via the element bound instead.
    for limit in (("BATCH_RESIDUES", 8), ("BATCH_ELEMENTS", 512)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchedNumpyKernel, *limit)
            split = kernel.sweep_batch(database, seqs)
        for r, s in zip(reference, split):
            assert np.array_equal(r, s)


def test_batched_single_sequence_equals_sweep(database):
    rng = np.random.default_rng(17)
    seq = rng.integers(0, 20, size=23).astype(np.uint8)
    batched = BatchedNumpyKernel()
    (only,) = batched.sweep_batch(database, [seq])
    assert np.array_equal(only, batched.sweep(database, seq))


def test_sweep_batch_empty(database):
    assert BatchedNumpyKernel().sweep_batch(database, []) == []


def test_default_sweep_batch_loops(database):
    rng = np.random.default_rng(19)
    seqs = _population(rng, 4)
    chunked = ChunkedNumpyKernel()
    got = chunked.sweep_batch(database, seqs)
    for g, s in zip(got, seqs):
        assert np.array_equal(g, chunked.sweep(database, s))


# ------------------------------------------------------------ sparse API


def test_sweep_sparse_matches_dense(database):
    rng = np.random.default_rng(41)
    seqs = _population(rng, 8, lo=1, hi=30)  # includes shorter-than-window
    for kernel in (ChunkedNumpyKernel(), BatchedNumpyKernel()):
        for seq in seqs:
            dense = kernel.sweep(database, seq)
            rows = kernel.sweep_sparse(database, seq)
            assert isinstance(rows, CSRRows)
            assert rows.indptr.dtype == rows.indices.dtype == np.int32
            assert rows.data.dtype == np.int64
            sparse = rows.tocsr()
            assert sparse.dtype == np.int64
            assert sparse.shape == dense.shape
            assert (sparse != sp.csr_matrix(dense)).nnz == 0
            # Canonical CSR, array for array.
            reference = sp.csr_matrix(dense)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(rows, part), getattr(reference, part))


def test_sweep_batch_sparse_matches_dense(database):
    rng = np.random.default_rng(43)
    seqs = _population(rng, 10)
    reference = [
        sp.csr_matrix(c) for c in BatchedNumpyKernel().sweep_batch(database, seqs)
    ]
    # Grouping limits change wall time only, never results — also on the
    # sparse path.
    for kernel, batch_residues in (
        (BatchedNumpyKernel(), BatchedNumpyKernel.BATCH_RESIDUES),
        (BatchedNumpyKernel(), 8),
        (ChunkedNumpyKernel(), BatchedNumpyKernel.BATCH_RESIDUES),
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchedNumpyKernel, "BATCH_RESIDUES", batch_residues)
            got = kernel.sweep_batch_sparse(database, seqs)
        assert len(got) == len(reference)
        for r, g in zip(reference, got):
            assert (r != g.tocsr()).nnz == 0


def test_sweep_sparse_non_integer_matrix_falls_back(database):
    # A non-integer matrix disables the int16 fast path; the sparse API
    # must fall back to the dense reference and still match it exactly.
    scores = np.asarray(PAM120.scores) + 0.5
    matrix = SubstitutionMatrix("half", scores)
    db = PipeDatabase(database.graph, matrix, W, THRESHOLD, kernel="batched")
    kernel = BatchedNumpyKernel()
    assert db.score_rows is None
    seq = np.random.default_rng(47).integers(0, 20, size=20).astype(np.uint8)
    dense = kernel.sweep(db, seq)
    assert (kernel.sweep_sparse(db, seq).tocsr() != sp.csr_matrix(dense)).nnz == 0


# ---------------------------------------------------------- tile bodies


@pytest.mark.parametrize("body", ["numpy", "native", "native-vec16"])
@pytest.mark.parametrize("threshold", [THRESHOLD, -1e6, 1e6, 0.5])
def test_tile_bodies_match_chunked(database, tile_kernel, body, threshold):
    """Each tile body equals the reference, including thresholds no int16
    sum reaches (1e6) and ones every sum reaches (-1e6)."""
    db = PipeDatabase(database.graph, PAM120, W, threshold, kernel="chunked")
    seqs = _population(np.random.default_rng(53), 12, lo=1, hi=40)
    chunked = ChunkedNumpyKernel()
    for seq, got in zip(seqs, tile_kernel(body).sweep_batch(db, seqs)):
        assert np.array_equal(got, chunked.sweep(db, seq))


@pytest.mark.parametrize("body", ["native", "native-vec16"])
def test_compiled_loop_reruns_when_hits_overflow_its_buffer(
    database, tile_kernel, body
):
    """With every cell a hit the first pass finds more hits than its
    buffer holds; the exact-size second pass returns every one."""
    kernel = tile_kernel(body)
    stacked = np.random.default_rng(59).integers(0, 20, size=60).astype(np.uint8)
    n_rows = stacked.size - W + 1
    total_cols = database.valid_columns.size
    flat = native_sweep().hits(
        database.score_rows, stacked, n_rows, W, -(10**6), total_cols,
        body=kernel.body,
    )
    assert flat.size == n_rows * total_cols > n_rows + 1024
    assert np.array_equal(np.sort(flat), np.arange(n_rows * total_cols))


def test_compiled_loop_refuses_what_it_cannot_read(database):
    """Score rows that are not C-contiguous or lack the pad columns, and
    codes outside the rows, are left to the numpy body — which still
    matches the reference."""
    native = native_sweep()
    if not native.available:
        pytest.skip(f"compiled sweep not loaded: {native.reason}")
    rows, total_cols = database.score_rows, database.valid_columns.size
    codes = np.arange(20, dtype=np.uint8)
    assert native.accepts(rows, codes, total_cols, W)
    assert not native.accepts(np.asfortranarray(rows), codes, total_cols, W)
    assert not native.accepts(
        np.ascontiguousarray(rows[:, :-1]), codes, total_cols, W
    )
    assert not native.accepts(rows, np.array([0, 20], np.uint8), total_cols, W)
    fortran = PipeDatabase.from_arrays(
        database.graph,
        PAM120,
        W,
        THRESHOLD,
        concatenated=database.concatenated,
        offsets=database.offsets,
        valid_columns=database.valid_columns,
        adjacency=database.adjacency,
        score_rows=np.asfortranarray(rows),
    )
    seqs = _population(np.random.default_rng(61), 6)
    got = BatchedNumpyKernel().sweep_batch(fortran, seqs)
    for seq, g in zip(seqs, got):
        assert np.array_equal(g, ChunkedNumpyKernel().sweep(database, seq))


#: Query rows per block of the compiled loop's diagonal walk (``BLOCK_ROWS``
#: in ``_sweep.c``).
BLOCK_ROWS = 128


@pytest.mark.parametrize("body", ["native", "native-vec16"])
@pytest.mark.parametrize("width", [90, 250, 700])
@pytest.mark.parametrize("threshold", [THRESHOLD, -1e6, 1e6])
def test_compiled_loop_matches_numpy_at_row_block_edges(
    tile_kernel, body, width, threshold
):
    """Every stacked cell's verdict, compiled loop against the numpy tile
    body, at row counts just below, at and above one, two and three row
    blocks.  A 90-column proteome fits no band of either body; at 250
    columns a full block fits no AVX2 band, so every cell is an edge
    cell, while a short last block does; at 700 every block has bands
    and an edge triangle at both ends.  At -1e6 every cell hits (the
    threshold clamps to INT16_MIN), at 1e6 none does."""
    compiled, numpy_body = tile_kernel(body), tile_kernel("numpy")
    rng = np.random.default_rng(width)
    protein = Protein("P", decode(rng.integers(0, 20, size=width).astype(np.uint8)))
    db = PipeDatabase(InteractionGraph([protein], []), PAM120, W, threshold)
    total_cols = db.valid_columns.size
    ithr = int(np.ceil(threshold))
    for n_rows in [b * BLOCK_ROWS + d for b in (1, 2, 3) for d in (-1, 0, 1)]:
        stacked = rng.integers(0, 20, size=n_rows + W - 1).astype(np.uint8)
        cells = []
        for kernel in (numpy_body, compiled):
            rows, cols = kernel._tile_hits(db, stacked, n_rows, ithr)
            cells.append(np.sort(rows * total_cols + cols))
        expected, got = cells
        if threshold == -1e6:
            assert expected.size == n_rows * total_cols
        elif threshold == 1e6:
            assert expected.size == 0
        assert np.array_equal(got, expected), (n_rows, width)


# ----------------------------------------------------------- score rows


def test_int_table_never_aliased_across_matrix_lifetimes(database):
    """Two different matrices at a reused ``id()`` never share a table.

    An early kernel cached its int16 table by ``id(db.matrix)``: once a
    matrix was GC'd, a new matrix allocated at the same address silently
    inherited it.  Each database now owns the score rows built from its
    own matrix and the kernel keeps nothing between calls.  Create-and-
    drop matrices of *different* content in a loop so CPython reuses
    addresses, checking bit-exactness against the reference each time —
    any table outliving its matrix yields wrongly scaled scores and the
    assertion fires.
    """
    kernel = BatchedNumpyKernel()
    chunked = ChunkedNumpyKernel()
    rng = np.random.default_rng(31)
    seq = rng.integers(0, 20, size=18).astype(np.uint8)
    for i in range(20):
        scores = np.asarray(PAM120.scores) * (i + 1)  # integer, distinct
        matrix = SubstitutionMatrix(f"scaled-{i}", scores)
        db = PipeDatabase(database.graph, matrix, W, THRESHOLD, kernel=kernel)
        assert np.array_equal(kernel.sweep(db, seq), chunked.sweep(db, seq))
        del db, matrix, scores
    # ... and a long-lived kernel holds no state at all.
    assert vars(kernel) == {}


def test_int_table_key_includes_window_size(database):
    # The overflow verdict depends on window_size: a matrix safe at w=1
    # can overflow int16 at w=3.  One shared kernel must not let the
    # first database's verdict leak into the second's.
    scores = np.where(np.eye(20, dtype=bool), 20_000.0, -1.0)
    matrix = SubstitutionMatrix("huge", scores)
    kernel = BatchedNumpyKernel()
    chunked = ChunkedNumpyKernel()
    db1 = PipeDatabase(database.graph, matrix, 1, 10.0, kernel=kernel)
    db3 = PipeDatabase(database.graph, matrix, 3, 10.0, kernel=kernel)
    assert db1.score_rows is not None  # 20000 * 1 fits int16
    assert db3.score_rows is None  # 20000 * 3 overflows
    rng = np.random.default_rng(37)
    for db in (db1, db3):
        seq = rng.integers(0, 20, size=12).astype(np.uint8)
        assert np.array_equal(kernel.sweep(db, seq), chunked.sweep(db, seq))


# -------------------------------------------------- database integration


def test_database_batch_matches_per_sequence(database):
    rng = np.random.default_rng(23)
    seqs = _population(rng, 9, lo=1, hi=30)  # includes shorter-than-window
    singles = [database.sequence_similarity(s) for s in seqs]
    batch = database.sequence_similarity_batch(seqs)
    assert len(batch) == len(singles)
    for a, b in zip(singles, batch):
        assert a.num_windows == b.num_windows
        assert (a.counts != b.counts).nnz == 0


def test_database_kernel_choice_is_bit_exact():
    rng = np.random.default_rng(29)
    proteins = [
        Protein(f"Q{i}", decode(rng.integers(0, 20, size=15).astype(np.uint8)))
        for i in range(5)
    ]
    graph = InteractionGraph(proteins, [("Q0", "Q1")])
    chunked_db = PipeDatabase(graph, PAM120, W, THRESHOLD, kernel="chunked")
    batched_db = PipeDatabase(graph, PAM120, W, THRESHOLD, kernel="batched")
    seq = rng.integers(0, 20, size=30).astype(np.uint8)
    a = chunked_db.sequence_similarity(seq)
    b = batched_db.sequence_similarity(seq)
    assert (a.counts != b.counts).nnz == 0
