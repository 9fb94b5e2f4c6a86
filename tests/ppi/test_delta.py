"""Tests for provenance-based delta re-scoring (the incremental sweep)."""

import numpy as np
import pytest

from repro.ppi.database import PipeDatabase
from repro.ppi.delta import (
    DeltaStats,
    Provenance,
    SequenceSegment,
    SimilarityLRU,
    copy_provenance,
    crossover_provenance,
    mutation_provenance,
)
from repro.ppi.graph import InteractionGraph
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120

W = 3
THRESHOLD = 15.0


def _random_protein(name, length, rng):
    return Protein(name, decode(rng.integers(0, 20, size=length).astype(np.uint8)))


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(11)
    proteins = [
        _random_protein(f"P{i}", int(rng.integers(10, 30)), rng) for i in range(5)
    ]
    edges = [("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P4", "P4")]
    return PipeDatabase(InteractionGraph(proteins, edges), PAM120, W, THRESHOLD)


def _assert_exact(database, child, update):
    expected = database.sequence_similarity(child)
    assert update.similarity.num_windows == expected.num_windows
    assert np.array_equal(
        update.similarity.counts.toarray(), expected.counts.toarray()
    )


class TestProvenanceHelpers:
    def test_copy_provenance_single_full_segment(self):
        parent = np.arange(10, dtype=np.uint8) % 20
        prov = copy_provenance(parent)
        assert prov.op == "copy"
        (seg,) = prov.segments
        assert (seg.parent_start, seg.child_start, seg.length) == (0, 0, 10)
        assert prov.parent_keys() == (parent.tobytes(),)

    def test_mutation_provenance_splits_at_hits(self):
        parent = np.zeros(10, dtype=np.uint8)
        prov = mutation_provenance(parent, [3, 7])
        spans = [(s.child_start, s.length) for s in prov.segments]
        assert spans == [(0, 3), (4, 3), (8, 2)]

    def test_mutation_provenance_no_hits_is_copy_shaped(self):
        parent = np.zeros(6, dtype=np.uint8)
        prov = mutation_provenance(parent, [])
        assert [(s.child_start, s.length) for s in prov.segments] == [(0, 6)]

    def test_mutation_provenance_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            mutation_provenance(np.zeros(4, dtype=np.uint8), [4])

    def test_crossover_provenance_geometry(self):
        a = np.zeros(8, dtype=np.uint8)
        b = np.ones(12, dtype=np.uint8)
        p1, p2 = crossover_provenance(a, b, 3, 5)
        assert [(s.parent_start, s.child_start, s.length) for s in p1.segments] == [
            (0, 0, 3),
            (5, 3, 7),
        ]
        assert [(s.parent_start, s.child_start, s.length) for s in p2.segments] == [
            (0, 0, 5),
            (3, 5, 5),
        ]
        assert p1.parent_keys() == (a.tobytes(), b.tobytes())

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            SequenceSegment(b"", 0, 0, 1)
        with pytest.raises(ValueError):
            SequenceSegment(b"x", -1, 0, 1)
        with pytest.raises(ValueError):
            SequenceSegment(b"x", 0, 0, 0)


class TestUpdateSimilarity:
    def test_point_mutation_exact(self, database):
        rng = np.random.default_rng(0)
        parent = rng.integers(0, 20, size=25).astype(np.uint8)
        parent_sim = database.sequence_similarity(parent)
        child = parent.copy()
        child[10] = (child[10] + 5) % 20
        prov = mutation_provenance(parent, [10])
        sources = [
            (parent_sim, s.parent_start, s.child_start, s.length)
            for s in prov.segments
        ]
        update = database.update_similarity(child, sources)
        _assert_exact(database, child, update)
        # Only the w windows covering the locus are dirty.
        assert update.rows_rescored == W
        assert update.rows_total == database.num_query_windows(child.size)

    def test_edge_mutation_exact(self, database):
        rng = np.random.default_rng(1)
        parent = rng.integers(0, 20, size=20).astype(np.uint8)
        parent_sim = database.sequence_similarity(parent)
        for locus in (0, parent.size - 1):
            child = parent.copy()
            child[locus] = (child[locus] + 1) % 20
            prov = mutation_provenance(parent, [locus])
            sources = [
                (parent_sim, s.parent_start, s.child_start, s.length)
                for s in prov.segments
            ]
            update = database.update_similarity(child, sources)
            _assert_exact(database, child, update)
            assert update.rows_rescored < update.rows_total

    def test_every_row_dirty_falls_back_to_full_sweep(self, database):
        rng = np.random.default_rng(2)
        child = rng.integers(0, 20, size=15).astype(np.uint8)
        update = database.update_similarity(child, [])
        _assert_exact(database, child, update)
        assert update.rows_rescored == update.rows_total

    def test_crossover_children_exact(self, database):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 20, size=22).astype(np.uint8)
        b = rng.integers(0, 20, size=17).astype(np.uint8)
        sim_a = database.sequence_similarity(a)
        sim_b = database.sequence_similarity(b)
        cut_a, cut_b = 9, 6
        child1 = np.concatenate([a[:cut_a], b[cut_b:]])
        child2 = np.concatenate([b[:cut_b], a[cut_a:]])
        p1, p2 = crossover_provenance(a, b, cut_a, cut_b)
        by_key = {a.tobytes(): sim_a, b.tobytes(): sim_b}
        for child, prov in ((child1, p1), (child2, p2)):
            sources = [
                (by_key[s.parent_key], s.parent_start, s.child_start, s.length)
                for s in prov.segments
            ]
            update = database.update_similarity(child, sources)
            _assert_exact(database, child, update)
            # Only the cut-straddling windows are re-swept.
            assert update.rows_rescored <= W - 1

    def test_partial_sources_still_exact(self, database):
        # One crossover parent evicted: its rows go dirty, result unchanged.
        rng = np.random.default_rng(4)
        a = rng.integers(0, 20, size=18).astype(np.uint8)
        b = rng.integers(0, 20, size=18).astype(np.uint8)
        sim_a = database.sequence_similarity(a)
        cut = 8
        child = np.concatenate([a[:cut], b[cut:]])
        update = database.update_similarity(child, [(sim_a, 0, 0, cut)])
        _assert_exact(database, child, update)
        assert update.rows_rescored > W - 1  # the missing parent's share

    def test_child_shorter_than_window(self, database):
        child = np.array([1, 2], dtype=np.uint8)
        update = database.update_similarity(child, [])
        assert update.similarity.num_windows == 0
        assert update.rows_total == 0

    def test_overrunning_segment_rejected(self, database):
        child = np.zeros(10, dtype=np.uint8)
        sim = database.sequence_similarity(child)
        with pytest.raises(ValueError, match="overruns"):
            database.update_similarity(child, [(sim, 0, 5, 8)])


class TestSimilarityLRU:
    def test_capacity_bound_and_eviction_order(self, database):
        lru = SimilarityLRU(2)
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 20, size=10).astype(np.uint8) for _ in range(3)]
        for s in seqs:
            lru.put(s.tobytes(), database.sequence_similarity(s))
        assert len(lru) == 2
        assert lru.get(seqs[0].tobytes()) is None  # oldest evicted
        assert lru.get(seqs[2].tobytes()) is not None

    def test_cached_child_reuses_without_rescore(self, database):
        lru = SimilarityLRU(4)
        rng = np.random.default_rng(6)
        seq = rng.integers(0, 20, size=12).astype(np.uint8)
        sim, stats = lru.similarity_batch(database, [seq], [None])[0]
        assert stats is None  # no provenance, nothing to account
        ((again, stats2),) = lru.similarity_batch(
            database, [seq], [copy_provenance(seq)]
        )
        assert again is sim
        assert stats2 == DeltaStats(True, 0, database.num_query_windows(seq.size))

    def test_delta_route_when_parent_cached(self, database):
        lru = SimilarityLRU(4)
        rng = np.random.default_rng(7)
        parent = rng.integers(0, 20, size=16).astype(np.uint8)
        lru.put(parent.tobytes(), database.sequence_similarity(parent))
        child = parent.copy()
        child[8] = (child[8] + 3) % 20
        prov = mutation_provenance(parent, [8])
        sim, stats = lru.similarity_batch(database, [child], [prov])[0]
        assert stats.hit and 0 < stats.rows_rescored < stats.rows_total
        _assert_exact(database, child, type("U", (), {"similarity": sim})())
        # The child is now cached for the next generation.
        assert lru.get(child.tobytes()) is sim

    def test_fallback_when_no_parent_cached(self, database):
        lru = SimilarityLRU(4)
        rng = np.random.default_rng(8)
        parent = rng.integers(0, 20, size=14).astype(np.uint8)
        child = parent.copy()
        child[3] = (child[3] + 1) % 20
        prov = mutation_provenance(parent, [3])
        sim, stats = lru.similarity_batch(database, [child], [prov])[0]
        assert stats == DeltaStats(
            False,
            database.num_query_windows(child.size),
            database.num_query_windows(child.size),
        )
        expected = database.sequence_similarity(child)
        assert np.array_equal(sim.counts.toarray(), expected.counts.toarray())

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SimilarityLRU(0)

    def test_provenance_pickles(self):
        import pickle

        prov = Provenance(
            "mutate", (SequenceSegment(b"abc", 0, 0, 3),)
        )
        assert pickle.loads(pickle.dumps(prov)) == prov


def test_point_mutant_generation_acceptance():
    """What the delta path promises on the GA's dominant workload, as
    exact counts: a generation of 40 children, each 1–2 residues from one
    warm parent (length 128, the ``small`` profile, target + 8
    non-targets), scores byte-identically with and without delta,
    re-sweeps at most 15 % of its window rows and never falls back."""
    from repro.ga.fitness import SerialScoreProvider, score_batch
    from repro.synthetic import get_profile
    from repro.telemetry import MetricsRegistry

    world = get_profile("small").build_world()
    target = "YBL051C"
    non_targets = world.non_targets_for(target, limit=8)
    rng = np.random.default_rng(42)
    parent = rng.integers(0, 20, size=128).astype(np.uint8)
    children, provenances = [], []
    for _ in range(40):
        child = parent.copy()
        loci = sorted(
            int(i)
            for i in rng.choice(128, size=int(rng.integers(1, 3)), replace=False)
        )
        for locus in loci:
            child[locus] = (child[locus] + 1 + rng.integers(19)) % 20
        children.append(child)
        provenances.append(mutation_provenance(parent, loci))

    telemetry = MetricsRegistry()
    provider = SerialScoreProvider(
        world.engine, target, non_targets, telemetry=telemetry
    )
    provider.scores([parent])  # warm, as last generation left it
    delta_scores = provider.scores_with_provenance(children, provenances)
    counters = telemetry.snapshot()
    full_scores, _ = score_batch(
        world.engine, children, [provider.problem] * len(children)
    )
    assert delta_scores == full_scores
    assert "pipe.delta.fallbacks" not in counters
    assert counters["pipe.delta.hits"]["value"] == 40
    rescored = counters["pipe.delta.rows_rescored"]["value"]
    total = counters["pipe.delta.rows_total"]["value"]
    assert total == 40 * world.engine.database.num_query_windows(128)
    assert 0 < rescored <= 0.15 * total
