"""Tests for the PIPE engine against a naive reference implementation."""

import numpy as np
import pytest

from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.pipe import PipeConfig, PipeEngine
from repro.sequences.encoding import decode
from repro.substitution import PAM120

from repro.sequences.protein import Protein

W = 3
THRESHOLD = 15.0


def _naive_result_matrix(a, b, graph, w, threshold):
    """Direct transcription of Sec. 2.2: H[i, j] counts ordered interacting
    pairs (X, Y) where fragment a_i is similar to a fragment of X and b_j
    to a fragment of Y."""

    def similar_to_protein(query, i, protein):
        npr = len(protein) - w + 1
        for j in range(max(npr, 0)):
            score = sum(
                PAM120.scores[query[i + t], protein.encoded[j + t]]
                for t in range(w)
            )
            if score >= threshold:
                return True
        return False

    proteins = graph.proteins
    na, nb = len(a) - w + 1, len(b) - w + 1
    h = np.zeros((max(na, 0), max(nb, 0)))
    match_a = np.array(
        [[similar_to_protein(a, i, p) for p in proteins] for i in range(na)]
    )
    match_b = np.array(
        [[similar_to_protein(b, j, p) for p in proteins] for j in range(nb)]
    )
    adj = graph.adjacency_matrix().toarray()
    for i in range(na):
        for j in range(nb):
            h[i, j] = match_a[i] @ adj @ match_b[j]
    return h


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(11)
    proteins = [
        Protein(f"P{i}", decode(rng.integers(0, 20, size=int(rng.integers(9, 18))).astype(np.uint8)))
        for i in range(7)
    ]
    edges = [("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P4", "P5"), ("P6", "P6")]
    graph = InteractionGraph(proteins, edges)
    config = PipeConfig(window_size=W, similarity_threshold=THRESHOLD, saturation=2.0)
    database = PipeDatabase(graph, PAM120, W, THRESHOLD)
    return graph, PipeEngine(database, config)


def test_result_matrix_matches_naive(world):
    graph, engine = world
    rng = np.random.default_rng(21)
    a = rng.integers(0, 20, size=13).astype(np.uint8)
    b = rng.integers(0, 20, size=11).astype(np.uint8)
    h = engine.result_matrix(engine.similarity_of(a), engine.similarity_of(b))
    expected = _naive_result_matrix(a, b, graph, W, THRESHOLD)
    assert np.array_equal(h, expected)


def test_result_matrix_known_proteins(world):
    graph, engine = world
    a = graph.protein("P0").encoded
    b = graph.protein("P1").encoded
    h = engine.result_matrix(
        engine.similarity_of("P0"), engine.similarity_of("P1")
    )
    expected = _naive_result_matrix(a, b, graph, W, THRESHOLD)
    assert np.array_equal(h, expected)


def test_score_in_unit_interval(world):
    _, engine = world
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = rng.integers(0, 20, size=12).astype(np.uint8)
        b = rng.integers(0, 20, size=12).astype(np.uint8)
        s = engine.score(a, b)
        assert 0.0 <= s < 1.0


def test_score_monotone_in_evidence(world):
    _, engine = world
    # score = F / (F + c) is strictly monotone in the filtered max.
    s0, _ = engine.score_matrix(np.zeros((4, 4)))
    s1, _ = engine.score_matrix(np.full((4, 4), 2.0))
    s2, _ = engine.score_matrix(np.full((4, 4), 10.0))
    assert s0 == 0.0
    assert s0 < s1 < s2 < 1.0


def test_score_matrix_empty(world):
    _, engine = world
    score, fmax = engine.score_matrix(np.zeros((0, 5)))
    assert score == 0.0 and fmax == 0.0


def test_box_filter_averages(world):
    _, engine = world
    h = np.zeros((5, 5))
    h[2, 2] = 9.0
    score, fmax = engine.score_matrix(h)
    # 3x3 mean filter spreads the single peak to 1.0.
    assert fmax == pytest.approx(1.0)


def test_box_radius_zero_uses_raw_max(world):
    graph, _ = world
    config = PipeConfig(
        window_size=W, similarity_threshold=THRESHOLD, box_radius=0, saturation=2.0
    )
    engine = PipeEngine(PipeDatabase(graph, PAM120, W, THRESHOLD), config)
    h = np.zeros((5, 5))
    h[2, 2] = 9.0
    score, fmax = engine.score_matrix(h)
    assert fmax == pytest.approx(9.0)
    assert score == pytest.approx(9.0 / 11.0)


def test_evaluate_keep_matrix(world):
    _, engine = world
    rng = np.random.default_rng(41)
    a = rng.integers(0, 20, size=10).astype(np.uint8)
    res = engine.evaluate(a, "P0", keep_matrix=True)
    assert res.result_matrix is not None
    res2 = engine.evaluate(a, "P0")
    assert res2.result_matrix is None
    assert res2.score == res.score


def test_exclude_query_edge(world):
    graph, _ = world
    config = PipeConfig(
        window_size=W,
        similarity_threshold=THRESHOLD,
        exclude_query_edge=True,
        saturation=2.0,
    )
    engine = PipeEngine(PipeDatabase(graph, PAM120, W, THRESHOLD), config)
    # With the edge removed, the evidence can only decrease.
    with_edge = PipeEngine(
        PipeDatabase(graph, PAM120, W, THRESHOLD),
        PipeConfig(window_size=W, similarity_threshold=THRESHOLD, saturation=2.0),
    )
    h_with = with_edge.result_matrix(
        with_edge.similarity_of("P0"), with_edge.similarity_of("P1")
    )
    h_without = engine.result_matrix(
        engine.similarity_of("P0"),
        engine.similarity_of("P1"),
        exclude_edge=("P0", "P1"),
    )
    assert np.all(h_without <= h_with)


def test_score_against_consistent_with_score(world):
    graph, engine = world
    rng = np.random.default_rng(51)
    seq = rng.integers(0, 20, size=12).astype(np.uint8)
    names = ["P0", "P3", "P6"]
    batch = engine.score_against(seq, names)
    for name in names:
        assert batch[name] == pytest.approx(engine.score(seq, name))


def test_count_positions_mode(world):
    graph, _ = world
    cfg = PipeConfig(
        window_size=W,
        similarity_threshold=THRESHOLD,
        count_positions=True,
        saturation=2.0,
    )
    engine = PipeEngine(PipeDatabase(graph, PAM120, W, THRESHOLD), cfg)
    rng = np.random.default_rng(61)
    a = rng.integers(0, 20, size=12).astype(np.uint8)
    b = rng.integers(0, 20, size=12).astype(np.uint8)
    h_counts = engine.result_matrix(engine.similarity_of(a), engine.similarity_of(b))
    binary_engine = PipeEngine(
        PipeDatabase(graph, PAM120, W, THRESHOLD),
        PipeConfig(window_size=W, similarity_threshold=THRESHOLD, saturation=2.0),
    )
    h_binary = binary_engine.result_matrix(
        binary_engine.similarity_of(a), binary_engine.similarity_of(b)
    )
    assert np.all(h_counts >= h_binary)


def test_build_classmethod(world):
    # One way to build an engine from a graph: the make_engine factory
    # (the PipeEngine.build classmethod it replaced is gone).
    from repro.providers import make_engine

    graph, _ = world
    engine = make_engine(graph, PipeConfig(window_size=W, match_rate=1e-4))
    assert engine.database.window_size == W
    assert not hasattr(PipeEngine, "build")


def test_window_size_mismatch_rejected(world):
    graph, _ = world
    db = PipeDatabase(graph, PAM120, W, THRESHOLD)
    with pytest.raises(ValueError, match="window size"):
        PipeEngine(db, PipeConfig(window_size=W + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        PipeConfig(window_size=0)
    with pytest.raises(ValueError):
        PipeConfig(box_radius=-1)
    with pytest.raises(ValueError):
        PipeConfig(saturation=0.0)
    with pytest.raises(ValueError):
        PipeConfig(match_rate=0.0)
    with pytest.raises(ValueError):
        PipeConfig(decision_threshold=1.5)


def test_config_with_matrix():
    cfg = PipeConfig(window_size=4, similarity_threshold=10.0)
    blosum = cfg.with_matrix("BLOSUM62")
    assert blosum.matrix_name == "BLOSUM62"
    assert blosum.similarity_threshold is None  # re-calibrated per matrix
    assert blosum.window_size == 4


def test_resolved_threshold_uses_explicit_value():
    cfg = PipeConfig(window_size=4, similarity_threshold=12.5)
    assert cfg.resolved_threshold() == 12.5


def test_predicted_respects_decision_threshold(world):
    """Regression: PipeResult.predicted hardcoded `score >= 0.5`, ignoring
    PipeConfig.decision_threshold — evaluate() and predict() disagreed for
    non-default thresholds."""
    from dataclasses import replace

    graph, engine = world
    rng = np.random.default_rng(33)
    a = rng.integers(0, 20, size=13).astype(np.uint8)
    b = graph.protein("P1").encoded
    for threshold in (0.0, 0.2, 0.9, 1.0):
        strict = PipeEngine(
            engine.database, replace(engine.config, decision_threshold=threshold)
        )
        result = strict.evaluate(a, b)
        assert result.decision_threshold == threshold
        assert result.predicted == (result.score >= threshold)
        assert result.predicted == strict.predict(a, b)
    # threshold 1.0 can never accept (score is bounded below 1) and 0.0
    # always accepts, so both branches are exercised above.
    always = PipeEngine(engine.database, replace(engine.config, decision_threshold=0.0))
    never = PipeEngine(engine.database, replace(engine.config, decision_threshold=1.0))
    assert always.evaluate(a, b).predicted
    assert not never.evaluate(a, b).predicted


def test_evidence_cache_bounded_lru(world, monkeypatch):
    graph, engine = world
    rng = np.random.default_rng(34)
    seq = rng.integers(0, 20, size=13).astype(np.uint8)
    names = [p.name for p in graph.proteins]
    assert len(names) > 2
    monkeypatch.setattr(PipeEngine, "EVIDENCE_CACHE_SIZE", 2)
    small = PipeEngine(engine.database, engine.config)
    # The cache holds one entry per problem (tuple of names scored against).
    for name in names:
        small.score_against(seq, [name])
    assert len(small._evidence_cache) == 2
    # The most recently used entries survive; re-scoring them evicts nothing.
    kept = list(small._evidence_cache)
    assert kept == [(name,) for name in names[-2:]]
    for problem in kept:
        small.score_against(seq, list(problem))
    assert list(small._evidence_cache) == kept


def test_evidence_cache_size_in_telemetry(world):
    from repro.telemetry import MetricsRegistry

    graph, engine = world
    rng = np.random.default_rng(35)
    seq = rng.integers(0, 20, size=13).astype(np.uint8)
    telemetry = MetricsRegistry()
    fresh = PipeEngine(engine.database, engine.config, telemetry=telemetry)
    fresh.score_against(seq, ["P0", "P1"])
    assert telemetry.gauge("pipe.evidence_cache.size").value == 1.0
    fresh.score_against(seq, ["P0", "P1"])  # same problem: same entry
    fresh.score_against(seq, ["P1"])
    assert telemetry.gauge("pipe.evidence_cache.size").value == 2.0

