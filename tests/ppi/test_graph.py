"""Tests for the interaction graph."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ppi.graph import InteractionGraph
from repro.sequences.protein import Protein


@pytest.fixture()
def proteins():
    return [Protein(f"P{i}", "MKTLLVAC") for i in range(5)]


@pytest.fixture()
def graph(proteins):
    return InteractionGraph(proteins, [("P0", "P1"), ("P1", "P2"), ("P0", "P2")])


def test_sizes(graph):
    assert len(graph) == 5
    assert graph.num_edges == 3


def test_contains_and_lookup(graph):
    assert "P0" in graph
    assert "PX" not in graph
    assert graph.protein("P3").name == "P3"
    with pytest.raises(KeyError, match="PX"):
        graph.index_of("PX")


def test_duplicate_proteome_rejected(proteins):
    with pytest.raises(ValueError, match="duplicate"):
        InteractionGraph(proteins + [Protein("P0", "MKT")])


def test_empty_proteome_rejected():
    with pytest.raises(ValueError):
        InteractionGraph([])


def test_edges_deduplicated(proteins):
    g = InteractionGraph(proteins, [("P0", "P1"), ("P1", "P0"), ("P0", "P1")])
    assert g.num_edges == 1


def test_add_interaction_returns_status(graph):
    assert graph.add_interaction("P3", "P4") is True
    assert graph.add_interaction("P4", "P3") is False


def test_unknown_endpoint_rejected(graph):
    with pytest.raises(KeyError):
        graph.add_interaction("P0", "PX")


def test_neighbors_sorted(graph):
    assert graph.neighbors("P0") == ["P1", "P2"]
    assert graph.neighbors("P4") == []


def test_degree(graph):
    assert graph.degree("P1") == 2
    assert graph.degree("P3") == 0


def test_has_edge_symmetric(graph):
    assert graph.has_edge("P0", "P1")
    assert graph.has_edge("P1", "P0")
    assert not graph.has_edge("P0", "P3")


def test_edges_listing(graph):
    assert graph.edges() == [("P0", "P1"), ("P0", "P2"), ("P1", "P2")]


def test_self_loop_supported(proteins):
    g = InteractionGraph(proteins, [("P0", "P0")])
    assert g.has_edge("P0", "P0")
    assert g.num_edges == 1
    assert g.degree("P0") == 1


def test_adjacency_matrix(graph):
    adj = graph.adjacency_matrix()
    dense = adj.toarray()
    assert dense.shape == (5, 5)
    assert np.array_equal(dense, dense.T)
    assert dense[0, 1] == 1
    assert dense[0, 3] == 0
    assert dense.sum() == 2 * graph.num_edges


def test_adjacency_with_self_loop(proteins):
    g = InteractionGraph(proteins, [("P0", "P0"), ("P0", "P1")])
    dense = g.adjacency_matrix().toarray()
    assert dense[0, 0] == 1


def test_to_networkx(graph):
    nxg = graph.to_networkx()
    assert nxg.number_of_nodes() == 5
    assert nxg.number_of_edges() == 3


def test_networkx_is_imported_only_by_the_export():
    """Importing the package and building a world leave networkx unloaded
    (it costs every process ~12 MB of RSS); ``to_networkx`` loads it."""
    code = (
        "import sys, repro; from repro.synthetic import get_profile; "
        "world = get_profile('tiny').build_world(); "
        "print('networkx' in sys.modules); world.graph.to_networkx(); "
        "print('networkx' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def test_degree_histogram(graph):
    hist = graph.degree_histogram()
    # P3, P4 have degree 0; P0, P1, P2 degree 2.
    assert hist[0] == 2
    assert hist[2] == 3
