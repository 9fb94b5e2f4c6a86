"""Hypothesis property tests: the batched similarity kernel and the
batched database/LRU entry points are bit-exact with the serial reference.

The batched kernel concatenates a whole population back to back and
sweeps it in one stacked pass, dropping the window rows that straddle
two candidates; the claim is bitwise equality with per-sequence
:class:`ChunkedNumpyKernel` sweeps, for any population and any grouping
limits, through either tile body — the compiled loop and the numpy one —
for any window size, threshold and proteome width.  `similarity_batch` additionally must
preserve the *sequential* delta semantics: a child batched together with
its parent still takes the delta route, and the result is identical to
calling `similarity_batch` one sequence at a time.

Every property checks two databases: the in-process one, and one
attached from a :class:`~repro.ppi.shm.SharedProteomeView`, whose
``score_rows`` (the batched kernel's gather source) are read straight
from the shared segment rather than rebuilt.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.operators import mutate_with_provenance
from repro.ppi.database import PipeDatabase
from repro.ppi.delta import SimilarityLRU
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import BatchedNumpyKernel, ChunkedNumpyKernel
from repro.ppi.shm import SharedProteomeView
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120

W = 3
THRESHOLD = 15.0


def _build_database():
    rng = np.random.default_rng(424242)
    proteins = [
        Protein(
            f"P{i}",
            decode(rng.integers(0, 20, size=int(rng.integers(8, 24))).astype(np.uint8)),
        )
        for i in range(6)
    ]
    proteins.append(Protein("SHORT", "AC"))
    edges = [("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P4", "P5")]
    return PipeDatabase(
        InteractionGraph(proteins, edges), PAM120, W, THRESHOLD, kernel="chunked"
    )


# Read-only after construction, so one shared instance serves every example
# (and is the reference every sweep is compared against).
DATABASE = _build_database()


@pytest.fixture(scope="module")
def databases():
    """The in-process database and its shm-attached twin."""
    with SharedProteomeView.share(DATABASE) as owner:
        with SharedProteomeView.attach(owner.handle) as view:
            attached = view.build_database(kernel="batched")
            # Mapped, not rebuilt: a read-only view of the segment's copy.
            assert not attached.score_rows.flags.owndata
            assert not attached.score_rows.flags.writeable
            assert np.array_equal(attached.score_rows, DATABASE.score_rows)
            yield DATABASE, attached
            del attached


populations = st.lists(
    st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=30).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    min_size=1,
    max_size=12,
)


@settings(deadline=None, max_examples=30)
@given(populations)
def test_batched_kernel_bit_exact(databases, population):
    chunked = ChunkedNumpyKernel()
    batched = BatchedNumpyKernel()
    swept = [s for s in population if s.size >= W]
    expected = [chunked.sweep(DATABASE, s) for s in swept]
    for database in databases:
        got = batched.sweep_batch(database, swept)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)


#: Query rows per block of the compiled loop's diagonal walk
#: (``BLOCK_ROWS`` in ``_sweep.c``) and its widest band (``UNROLL`` AVX2
#: vectors of 16 lanes): a proteome narrower than their sum fits no band.
BLOCK_ROWS = 128
WIDEST_BAND = 8 * 16


@st.composite
def sweep_cases(draw):
    """A proteome, window, threshold and query batch for the tile bodies.

    Windows 1–24 (20 is the ``paper`` profile's); thresholds from "every
    cell hits" (more hits than the compiled loop's first buffer holds, so
    it re-runs sized exactly) to "none does"; queries shorter than the
    window.  Proteome widths that are rarely a multiple of a vector or a
    band, and ones narrower than one band plus a row block, where every
    cell is an edge cell of the diagonal walk.  Batches of up to 5 × 40
    residues, and batches that stack to a row count just below, at or
    above a multiple of the row block, cut into up to five queries.
    """
    w = draw(st.one_of(st.just(20), st.integers(min_value=1, max_value=24)))
    if draw(st.booleans()):
        lengths = draw(
            st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6)
        )
        if draw(st.booleans()):
            lengths.append(draw(st.integers(min_value=1000, max_value=1400)))
    else:
        narrow = WIDEST_BAND + BLOCK_ROWS - 2
        lengths = [draw(st.integers(min_value=1, max_value=narrow))]
    # PAM120 scores lie in [-8, 12]: -9 w makes every cell a hit.
    threshold = draw(st.integers(min_value=-9 * w, max_value=6 * w)) + draw(
        st.sampled_from([0.0, 0.5])
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    if draw(st.booleans()):
        queries = draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=19), max_size=40).map(
                    lambda xs: np.array(xs, dtype=np.uint8)
                ),
                min_size=1,
                max_size=5,
            )
        )
    else:
        n_rows = draw(st.integers(min_value=1, max_value=3)) * BLOCK_ROWS + draw(
            st.sampled_from([-1, 0, 1])
        )
        stacked = np.random.default_rng(seed + 1).integers(
            0, 20, size=n_rows + w - 1, dtype=np.uint8
        )
        cuts = draw(
            st.lists(st.integers(min_value=0, max_value=stacked.size), max_size=4)
        )
        queries = np.split(stacked, sorted(cuts))
    return w, lengths, threshold, queries, seed


@pytest.mark.parametrize("body", ["numpy", "native", "native-vec16"])
@settings(deadline=None, max_examples=25)
@given(sweep_cases())
def test_tile_bodies_bit_exact(tile_kernel, body, case):
    """Compiled loop == numpy tile body == float64 reference, in process
    and over a shared-memory segment."""
    w, lengths, threshold, queries, seed = case
    kernel = tile_kernel(body)
    rng = np.random.default_rng(seed)
    proteins = [
        Protein(f"P{i}", decode(rng.integers(0, 20, size=n).astype(np.uint8)))
        for i, n in enumerate(lengths)
    ]
    database = PipeDatabase(
        InteractionGraph(proteins, []), PAM120, w, threshold, kernel="chunked"
    )
    assert database.score_rows is not None
    expected = [ChunkedNumpyKernel().sweep(database, q) for q in queries]
    with SharedProteomeView.share(database) as owner:
        with SharedProteomeView.attach(owner.handle) as view:
            attached = view.build_database(kernel="chunked")
            for db in (database, attached):
                got = kernel.sweep_batch_sparse(db, queries)
                for e, g in zip(expected, got, strict=True):
                    assert (g.num_windows, g.num_proteins) == e.shape
                    assert np.array_equal(g.tocsr().toarray(), e)
            del attached


@settings(deadline=None, max_examples=20)
@given(
    populations,
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=64, max_value=4096),
)
def test_batched_kernel_grouping_invariant(databases, population, residues, elements):
    """Any (BATCH_RESIDUES, BATCH_ELEMENTS) split yields identical counts —
    grouping is a wall-clock decision, never a numerical one."""
    swept = [s for s in population if s.size >= W]
    kernel = BatchedNumpyKernel()
    reference = kernel.sweep_batch(DATABASE, swept)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchedNumpyKernel, "BATCH_RESIDUES", residues)
        patch.setattr(BatchedNumpyKernel, "BATCH_ELEMENTS", elements)
        for database in databases:
            for r, l in zip(reference, kernel.sweep_batch(database, swept)):
                assert np.array_equal(r, l)


@settings(deadline=None, max_examples=25)
@given(populations)
def test_database_batch_bit_exact(databases, population):
    singles = [DATABASE.sequence_similarity(s) for s in population]
    for database in databases:
        batch = database.sequence_similarity_batch(population)
        for a, b in zip(singles, batch):
            assert a.num_windows == b.num_windows
            assert (a.counts != b.counts).nnz == 0


@settings(deadline=None, max_examples=15)
@given(
    st.lists(st.integers(min_value=0, max_value=19), min_size=6, max_size=30).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=4),
)
def test_similarity_batch_matches_sequential_deltas(databases, parent, rng_seed, depth):
    """A mutation chain scored through `similarity_batch` — parent and all
    descendants in ONE batch — equals the one-at-a-time one-item
    `similarity_batch` route, and the descendants still take the delta
    path (hit=True)."""
    rng = np.random.default_rng(rng_seed)
    children = [(parent, None)]
    current = parent
    for _ in range(depth):
        current, prov = mutate_with_provenance(current, 0.2, rng)
        children.append((current, prov))
    seqs = [c for c, _ in children]
    provs = [p for _, p in children]

    sequential = SimilarityLRU(16)
    expected = [
        sequential.similarity_batch(DATABASE, [c], [p])[0] for c, p in children
    ]
    for database in databases:
        got = SimilarityLRU(16).similarity_batch(database, seqs, provs)
        assert len(got) == len(expected)
        for (e_sim, e_stats), (g_sim, g_stats) in zip(expected, got):
            assert e_sim.num_windows == g_sim.num_windows
            assert (e_sim.counts != g_sim.counts).nnz == 0
            assert e_stats == g_stats


@settings(deadline=None, max_examples=10)
@given(
    st.lists(st.integers(min_value=0, max_value=19), min_size=8, max_size=24).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    )
)
def test_similarity_batch_duplicates_resolve_as_hits(seq):
    """Duplicates of a pending sequence inside one batch cost one sweep;
    with provenance attached they report as cache hits, matching the
    sequential loop (the copy operation re-submits identical bytes)."""
    from repro.ppi.delta import copy_provenance

    lru = SimilarityLRU(8)
    results = lru.similarity_batch(
        DATABASE,
        [seq, seq.copy(), seq.copy()],
        [None, copy_provenance(seq), copy_provenance(seq)],
    )
    reference = DATABASE.sequence_similarity(seq)
    for sim, _ in results:
        assert (sim.counts != reference.counts).nnz == 0
    assert results[0][1] is None  # no provenance, nothing to account
    for _, dup_stats in results[1:]:
        assert dup_stats is not None and dup_stats.hit
        assert dup_stats.rows_rescored == 0
