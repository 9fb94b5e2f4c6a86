"""Tests for the PIPE database: similarity sweeps vs a naive reference."""


import numpy as np
import pytest

from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import ChunkedNumpyKernel
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120

W = 3
THRESHOLD = 15.0


def _random_protein(name, length, rng):
    return Protein(name, decode(rng.integers(0, 20, size=length).astype(np.uint8)))


@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(77)
    proteins = [_random_protein(f"P{i}", int(rng.integers(8, 20)), rng) for i in range(6)]
    proteins.append(Protein("SHORT", "AC"))  # shorter than the window
    edges = [("P0", "P1"), ("P1", "P2"), ("P3", "P4"), ("P5", "P5")]
    return InteractionGraph(proteins, edges)


@pytest.fixture(scope="module")
def database(small_graph):
    return PipeDatabase(small_graph, PAM120, W, THRESHOLD)


def _naive_window_match_counts(query, protein, w, threshold):
    """Reference implementation: counts of similar window pairs."""
    nq = len(query) - w + 1
    npr = len(protein) - w + 1
    counts = np.zeros(max(nq, 0), dtype=np.int64)
    for i in range(max(nq, 0)):
        for j in range(max(npr, 0)):
            score = sum(
                PAM120.scores[query[i + t], protein[j + t]] for t in range(w)
            )
            if score >= threshold:
                counts[i] += 1
    return counts


def test_sequence_similarity_matches_naive(database, small_graph):
    rng = np.random.default_rng(3)
    query = rng.integers(0, 20, size=14).astype(np.uint8)
    sim = database.sequence_similarity(query)
    assert sim.num_windows == 12
    dense = sim.counts.toarray()
    for p_idx, protein in enumerate(small_graph.proteins):
        expected = _naive_window_match_counts(
            query, protein.encoded, W, THRESHOLD
        )
        assert np.array_equal(dense[:, p_idx], expected), protein.name


def test_short_protein_contributes_nothing(database, small_graph):
    rng = np.random.default_rng(4)
    query = rng.integers(0, 20, size=10).astype(np.uint8)
    dense = database.sequence_similarity(query).counts.toarray()
    short_idx = small_graph.index_of("SHORT")
    assert dense[:, short_idx].sum() == 0


def test_chunked_sweep_equivalent(small_graph, monkeypatch):
    rng = np.random.default_rng(5)
    query = rng.integers(0, 20, size=16).astype(np.uint8)
    whole = PipeDatabase(small_graph, PAM120, W, THRESHOLD)
    a = whole.sequence_similarity(query).counts.toarray()
    monkeypatch.setattr(ChunkedNumpyKernel, "CHUNK_RESIDUES", 7)
    chunked = PipeDatabase(small_graph, PAM120, W, THRESHOLD)
    b = chunked.sequence_similarity(query).counts.toarray()
    assert np.array_equal(a, b)


def test_binary_view(database):
    rng = np.random.default_rng(6)
    query = rng.integers(0, 20, size=12).astype(np.uint8)
    sim = database.sequence_similarity(query)
    binary = sim.binary.toarray()
    counts = sim.counts.toarray()
    assert np.array_equal(binary, (counts > 0).astype(np.int64))


def test_matched_protein_indices(database):
    rng = np.random.default_rng(7)
    query = rng.integers(0, 20, size=12).astype(np.uint8)
    sim = database.sequence_similarity(query)
    matched = sim.matched_protein_indices()
    dense = sim.counts.toarray()
    expected = np.nonzero(dense.sum(axis=0) > 0)[0]
    assert np.array_equal(np.sort(matched), expected)


def test_query_shorter_than_window(database):
    sim = database.sequence_similarity(np.array([0, 1], dtype=np.uint8))
    assert sim.num_windows == 0
    assert sim.counts.shape == (0, database.num_proteins)


def test_protein_similarity_cached(database):
    a = database.protein_similarity("P0")
    b = database.protein_similarity("P0")
    assert a is b
    assert database.cache_info()["entries"] >= 1


def test_precompute_fills_cache(small_graph):
    db = PipeDatabase(small_graph, PAM120, W, THRESHOLD)
    db.precompute(["P0", "P1"])
    assert db.cache_info()["entries"] == 2
    db.precompute()
    assert db.cache_info()["entries"] == len(small_graph)


def test_protein_similarity_matches_direct(database, small_graph):
    by_name = database.protein_similarity("P2").counts.toarray()
    direct = database.sequence_similarity(
        small_graph.protein("P2").encoded
    ).counts.toarray()
    assert np.array_equal(by_name, direct)


def test_invalid_construction(small_graph):
    with pytest.raises(ValueError):
        PipeDatabase(small_graph, PAM120, 0, THRESHOLD)


def test_invalid_query(database):
    with pytest.raises(ValueError):
        database.sequence_similarity(np.array([], dtype=np.uint8))
    with pytest.raises(ValueError):
        database.sequence_similarity(np.zeros((2, 2), dtype=np.uint8))


def test_repr(database):
    assert "PipeDatabase" in repr(database)
    assert "PAM120" in repr(database)
