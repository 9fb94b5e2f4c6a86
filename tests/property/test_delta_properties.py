"""Hypothesis property tests: delta re-scoring is bit-exact with the
full sweep over arbitrary chains of GA operations.

The delta path's whole claim is *exactness*, not approximation: for any
sequence of copy / mutate / crossover steps, patching parent rows and
re-sweeping only the dirty windows must reproduce the full-sweep counts
(and therefore the PIPE scores) bit for bit, whatever the LRU happens to
contain.  These tests drive random operation chains through a shared
:class:`~repro.ppi.delta.SimilarityLRU` and compare every intermediate
against a from-scratch :meth:`~repro.ppi.database.PipeDatabase.sequence_similarity`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.operators import (
    crossover_with_provenance,
    mutate_with_provenance,
    point_copy_with_provenance,
)
from repro.ppi.database import PipeDatabase
from repro.ppi.delta import (
    SimilarityLRU,
    crossover_provenance,
    mutation_provenance,
)
from repro.ppi.graph import InteractionGraph
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120

W = 3
THRESHOLD = 15.0


def _build_database():
    rng = np.random.default_rng(2024)
    proteins = [
        Protein(
            f"P{i}",
            decode(rng.integers(0, 20, size=int(rng.integers(8, 24))).astype(np.uint8)),
        )
        for i in range(5)
    ]
    edges = [("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P0", "P0")]
    return PipeDatabase(InteractionGraph(proteins, edges), PAM120, W, THRESHOLD)


# Read-only after construction, so one shared instance serves every example.
DATABASE = _build_database()


sequences = st.lists(
    st.integers(min_value=0, max_value=19), min_size=4, max_size=30
).map(lambda xs: np.array(xs, dtype=np.uint8))

loci_fractions = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    min_size=0,
    max_size=5,
)


def _assert_bit_exact(database, lru, child, provenance):
    similarity, stats = lru.similarity_batch(database, [child], [provenance])[0]
    expected = database.sequence_similarity(child)
    assert similarity.num_windows == expected.num_windows
    assert np.array_equal(similarity.counts.toarray(), expected.counts.toarray())
    return stats


@settings(deadline=None, max_examples=30)
@given(sequences, loci_fractions)
def test_mutation_delta_bit_exact(parent, fractions):
    database = DATABASE
    lru = SimilarityLRU(8)
    lru.put(parent.tobytes(), database.sequence_similarity(parent))
    loci = sorted({int(f * parent.size) for f in fractions})
    child = parent.copy()
    for locus in loci:
        child[locus] = (int(child[locus]) + 1) % 20
    prov = mutation_provenance(parent, loci)
    stats = _assert_bit_exact(database, lru, child, prov)
    if loci and child.tobytes() != parent.tobytes():
        if prov.segments:
            assert stats.hit
            assert stats.rows_rescored <= min(stats.rows_total, W * len(loci))
        else:
            # Every residue mutated: no clean run survives, so the only
            # correct route is the full-sweep fallback.
            assert not stats.hit
            assert stats.rows_rescored == stats.rows_total


@settings(deadline=None, max_examples=30)
@given(sequences, sequences, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_crossover_delta_bit_exact(a, b, frac):
    database = DATABASE
    lru = SimilarityLRU(8)
    lru.put(a.tobytes(), database.sequence_similarity(a))
    lru.put(b.tobytes(), database.sequence_similarity(b))
    cut_a = min(a.size - 1, max(1, int(frac * a.size)))
    cut_b = min(b.size - 1, max(1, int(frac * b.size)))
    child1 = np.concatenate([a[:cut_a], b[cut_b:]])
    child2 = np.concatenate([b[:cut_b], a[cut_a:]])
    p1, p2 = crossover_provenance(a, b, cut_a, cut_b)
    for child, prov in ((child1, p1), (child2, p2)):
        stats = _assert_bit_exact(database, lru, child, prov)
        assert stats.hit
        # Only the windows straddling the cut can be dirty.
        assert stats.rows_rescored <= W - 1


@settings(deadline=None, max_examples=15)
@given(
    sequences,
    sequences,
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_operation_chain_delta_bit_exact(seed_a, seed_b, ops, rng_seed):
    """A random mutate/crossover/copy chain stays exact at every step,
    including when the LRU evicts parents mid-chain (forced fallbacks)."""
    database = DATABASE
    rng = np.random.default_rng(rng_seed)
    lru = SimilarityLRU(4)  # small on purpose: eviction-driven fallbacks
    pool = [seed_a, seed_b]
    for s in pool:
        lru.similarity_batch(database, [s], [None])
    for op in ops:
        if op == 0:
            parent = pool[int(rng.integers(len(pool)))]
            child, prov = point_copy_with_provenance(parent)
            children = [(child, prov)]
        elif op == 1:
            parent = pool[int(rng.integers(len(pool)))]
            child, prov = mutate_with_provenance(parent, 0.1, rng)
            children = [(child, prov)]
        else:
            i, j = rng.integers(len(pool)), rng.integers(len(pool))
            pair = crossover_with_provenance(
                pool[int(i)], pool[int(j)], 0.1, rng
            )
            children = list(pair)
        for child, prov in children:
            _assert_bit_exact(database, lru, child, prov)
            pool.append(np.asarray(child))
        pool = pool[-6:]  # bound the pool like a GA population would


@settings(deadline=None, max_examples=15)
@given(sequences, st.floats(min_value=0.0, max_value=0.3))
def test_delta_scores_equal_full_scores(parent, p_mutate):
    """End to end: PIPE scores via the delta route == full-sweep scores."""
    from repro.ppi.pipe import PipeConfig, PipeEngine

    database = DATABASE
    engine = PipeEngine(
        database, PipeConfig(window_size=W, similarity_threshold=THRESHOLD)
    )
    rng = np.random.default_rng(7)
    lru = SimilarityLRU(8)
    lru.similarity_batch(database, [parent], [None])
    child, prov = mutate_with_provenance(parent, p_mutate, rng)
    similarity, _ = lru.similarity_batch(database, [child], [prov])[0]
    names = ["P0", "P2"]
    via_delta = engine.score_against(child, names, similarity=similarity)
    from_scratch = engine.score_against(child, names)
    assert via_delta == from_scratch


@settings(deadline=None, max_examples=40)
@given(
    sequences,
    sequences,
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batched_delta_equals_sequential_routes(seed_a, seed_b, ops, rng_seed):
    """One generation — mutants, crossovers, copies, twins, and children
    of *other members of the batch* — through ``similarity_batch`` gives
    the structures of a from-scratch sweep and exactly the ``DeltaStats``
    a one-at-a-time loop of one-item batches reports."""
    database = DATABASE
    rng = np.random.default_rng(rng_seed)
    pool = [seed_a, seed_b]  # warm parents; batch members join as they appear
    batch = []
    for op in ops:
        parent = pool[int(rng.integers(len(pool)))]
        if op == 0:
            made = [point_copy_with_provenance(parent)]
        elif op == 1:
            made = [mutate_with_provenance(parent, 0.15, rng)]
        elif op == 2:
            other = pool[int(rng.integers(len(pool)))]
            made = list(crossover_with_provenance(parent, other, 0.15, rng))
        else:  # a twin of an earlier member, under that member's provenance
            made = [batch[int(rng.integers(len(batch)))]] if batch else []
        for child, prov in made:
            batch.append((np.asarray(child), prov))
            pool.append(np.asarray(child))

    def warm():
        lru = SimilarityLRU(64)
        for s in (seed_a, seed_b):
            lru.similarity_batch(database, [s], [None])
        return lru

    sequential = warm()
    expected = [
        sequential.similarity_batch(database, [c], [p])[0] for c, p in batch
    ]
    got = warm().similarity_batch(
        database, [c for c, _ in batch], [p for _, p in batch]
    )
    assert len(got) == len(expected)
    for (child, _), (e_sim, e_stats), (g_sim, g_stats) in zip(batch, expected, got):
        scratch = database.sequence_similarity(child)
        assert g_sim.num_windows == scratch.num_windows
        assert np.array_equal(g_sim.counts.toarray(), scratch.counts.toarray())
        assert g_sim.counts.dtype == scratch.counts.dtype
        assert g_stats == e_stats


@settings(deadline=None, max_examples=30)
@given(
    sequences,
    st.lists(loci_fractions, min_size=1, max_size=6),
)
def test_update_similarity_batch_equals_per_item(parent, children_fractions):
    """``update_similarity_batch`` is ``update_similarity`` per item (one
    kernel pass instead of one per child), itself the full sweep."""
    database = DATABASE
    parent_sim = database.sequence_similarity(parent)
    items = []
    for fractions in children_fractions:
        loci = sorted({int(f * parent.size) for f in fractions})
        child = parent.copy()
        for locus in loci:
            child[locus] = (int(child[locus]) + 1) % 20
        prov = mutation_provenance(parent, loci)
        sources = [
            (parent_sim, seg.parent_start, seg.child_start, seg.length)
            for seg in prov.segments
        ]
        items.append((child, sources))
    batched = database.update_similarity_batch(items)
    assert len(batched) == len(items)
    for (child, sources), update in zip(items, batched):
        alone = database.update_similarity(child, sources)
        scratch = database.sequence_similarity(child)
        assert (update.rows_rescored, update.rows_total) == (
            alone.rows_rescored,
            alone.rows_total,
        )
        assert update.rows_total == scratch.num_windows
        for other in (alone.similarity, scratch):
            assert np.array_equal(
                update.similarity.counts.toarray(), other.counts.toarray()
            )


def _windows(length):
    return max(length - W + 1, 0)


def _clean_rows(child, sources):
    """Child rows a source covers with an existing parent row: the rows
    the delta route may copy, computed window by window."""
    clean = set()
    for sim, ps, cs, ln in sources:
        for r in range(_windows(child.size)):
            if cs <= r and r + W <= cs + ln and ps + (r - cs) < sim.num_windows:
                clean.add(r)
    return clean


residues = st.lists(
    st.integers(min_value=0, max_value=19), min_size=1, max_size=30
).map(lambda xs: np.array(xs, dtype=np.uint8))


@st.composite
def generations(draw):
    """One generation of ``update_similarity_batch`` items over a few
    parents of mixed lengths (some shorter than the window), each child
    with the number of rows its sources leave dirty: mutants and
    crossover children with their operators' provenance, children pieced
    from parents with overlapping and out-of-range segments, and children
    with no usable source."""
    parents = draw(st.lists(residues, min_size=1, max_size=4))
    sims = [DATABASE.sequence_similarity(p) for p in parents]
    items, expected = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["mutant", "crossover", "pieced", "orphan"]))
        k = draw(st.integers(min_value=0, max_value=len(parents) - 1))
        parent, sim = parents[k], sims[k]
        if kind == "mutant":
            loci = sorted(
                set(draw(st.lists(st.integers(0, parent.size - 1), max_size=4)))
            )
            child = parent.copy()
            child[loci] = (child[loci] + 1) % 20
            sources = [
                (sim, seg.parent_start, seg.child_start, seg.length)
                for seg in mutation_provenance(parent, loci).segments
            ]
            # Exactly the windows containing a hit.
            rescored = sum(
                any(r <= h < r + W for h in loci) for r in range(_windows(child.size))
            )
        elif kind == "crossover" and parent.size > 1:
            j = draw(st.integers(min_value=0, max_value=len(parents) - 1))
            other = parents[j]
            if other.size < 2:
                other, j = parent, k
            cut_a = draw(st.integers(min_value=1, max_value=parent.size - 1))
            cut_b = draw(st.integers(min_value=1, max_value=other.size - 1))
            child = np.concatenate([parent[:cut_a], other[cut_b:]])
            prov, _ = crossover_provenance(parent, other, cut_a, cut_b)
            by_key = {parent.tobytes(): sim, other.tobytes(): sims[j]}
            sources = [
                (by_key[seg.parent_key], seg.parent_start, seg.child_start, seg.length)
                for seg in prov.segments
            ]
            # Exactly the windows straddling the cut.
            rescored = sum(
                r < cut_a < r + W for r in range(_windows(child.size))
            )
        elif kind == "pieced":
            pieces, sources, cursor = [], [], 0
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                j = draw(st.integers(min_value=0, max_value=len(parents) - 1))
                ps = draw(st.integers(min_value=0, max_value=parents[j].size - 1))
                piece = parents[j][ps : ps + draw(st.integers(1, parents[j].size))]
                pieces.append(piece)
                sources.append((sims[j], ps, cursor, piece.size))
                if draw(st.booleans()):
                    # Overlapping: a sub-run of the same piece, listed too.
                    d = draw(st.integers(0, piece.size - 1))
                    sources.append((sims[j], ps + d, cursor + d, piece.size - d))
                cursor += piece.size
            if draw(st.booleans()):
                # Out of range: a parent's suffix, then residues of no
                # parent, under one segment running past the parent's end
                # (its rows there have no parent row); and a segment
                # starting beyond the parent.
                j = draw(st.integers(min_value=0, max_value=len(parents) - 1))
                ps = draw(st.integers(min_value=0, max_value=parents[j].size - 1))
                tail = np.concatenate([parents[j][ps:], draw(residues)])
                pieces.append(tail)
                sources.append((sims[j], ps, cursor, tail.size))
                sources.append((sims[j], parents[j].size + 2, 0, cursor))
                cursor += tail.size
            child = np.concatenate(pieces)
            order = draw(st.permutations(range(len(sources))))
            sources = [sources[i] for i in order]
            rescored = _windows(child.size) - len(_clean_rows(child, sources))
        else:  # no usable source: none, or runs too short for a window
            child = draw(residues)
            sources = [(sim, 0, i, 1) for i in range(0, child.size, W)]
            sources = sources[: draw(st.integers(0, len(sources)))]
            rescored = _windows(child.size)
        items.append((child, sources))
        expected.append(rescored)
    return items, expected


def _same_rows(a, b):
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a.rows, part), getattr(b.rows, part)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (a.rows.num_windows, a.rows.num_proteins) == (
        b.rows.num_windows,
        b.rows.num_proteins,
    )


@settings(deadline=None, max_examples=60)
@given(generations())
def test_generation_assembly_equals_per_item_and_full_sweep(generation):
    """One batched assembly of a whole generation is, array for array and
    dtype for dtype, each item's own ``update_similarity`` and the full
    sweep of the child; it re-sweeps exactly the rows no source covers
    (for a mutant the windows containing a hit, for a crossover child
    the windows straddling the cut)."""
    items, expected = generation
    batched = DATABASE.update_similarity_batch(items)
    assert len(batched) == len(items)
    for (child, sources), update, rescored in zip(items, batched, expected):
        alone = DATABASE.update_similarity(child, sources)
        scratch = DATABASE.sequence_similarity(child)
        _same_rows(update.similarity, alone.similarity)
        _same_rows(update.similarity, scratch)
        assert update.similarity.rows.indptr.dtype == np.int32
        assert update.similarity.rows.data.dtype == np.int64
        assert update.rows_total == scratch.num_windows
        assert update.rows_rescored == alone.rows_rescored == rescored
