"""Hypothesis property tests: fused PIPE scoring is the pairwise oracle.

:meth:`~repro.ppi.pipe.PipeEngine.score_similarities` stacks candidates
and proteins into one product and one filter pass per axis; its whole
claim is bit-identity with scoring each (candidate, protein) pair alone
through ``evaluate`` (``result_matrix`` + ``uniform_filter``), for any
candidate set, any problem and *any* way the batch is cut into groups.
The same holds one level up for :func:`~repro.ga.fitness.score_batch`,
whose batches may mix problems.  Both bodies of the result blocks are held
to it: the compiled pass (where this process loaded the library) and the
numpy body (pinned by making the engine see no library, as a host without
a compiler does).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.fitness import score_batch
from repro.ppi import pipe
from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.kernels import NativeSweep, native_sweep
from repro.ppi.pipe import PipeConfig, PipeEngine
from repro.ppi.shm import SharedProteomeView
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120
from repro.telemetry import MetricsRegistry

W = 3
THRESHOLD = 13.0


def _build_database():
    rng = np.random.default_rng(777)
    proteins = [
        Protein(
            f"P{i}",
            decode(rng.integers(0, 20, size=int(rng.integers(8, 20))).astype(np.uint8)),
        )
        for i in range(6)
    ]
    proteins.append(Protein("SHORT", "AC"))  # shorter than the window
    edges = [
        ("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P5"),
        ("P0", "P3"), ("P2", "P2"), ("P1", "SHORT"),
    ]
    return PipeDatabase(InteractionGraph(proteins, edges), PAM120, W, THRESHOLD)


# Read-only after construction, so one shared instance serves every example.
DATABASE = _build_database()
NAMES = list(DATABASE.graph.names)


def _routes():
    """``{route: what pipe.native_sweep returns on it}``: the numpy body
    always, the compiled pass where this process loaded it."""
    routes = {"numpy": NativeSweep(reason="pinned to the numpy body")}
    if native_sweep().available:
        routes["compiled"] = native_sweep()
    return routes


def _on_route(state, fn):
    """``fn()`` with the engine's result blocks on the route ``state``."""
    saved = pipe.native_sweep
    pipe.native_sweep = lambda: state
    try:
        return fn()
    finally:
        pipe.native_sweep = saved


@st.composite
def candidates(draw):
    """Mixed-length candidates, some shorter than the window, most built
    from proteome fragments so result matrices are not all zero."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        length = draw(st.integers(min_value=1, max_value=16))
        if draw(st.booleans()):
            start = draw(
                st.integers(min_value=0, max_value=DATABASE.concatenated.size - length)
            )
            seq = DATABASE.concatenated[start : start + length].copy()
        else:
            seq = np.array(
                draw(st.lists(st.integers(0, 19), min_size=length, max_size=length)),
                dtype=np.uint8,
            )
        out.append(seq)
    return out


@settings(deadline=None, max_examples=60)
@given(
    candidates(),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.sampled_from([1, 40, 300, 2_000, 65_536]),
    st.integers(min_value=0, max_value=7),
)
def test_fused_scores_equal_pairwise_oracle(
    seqs, names, box_radius, count_positions, group_cells, cut
):
    engine = PipeEngine(
        DATABASE,
        PipeConfig(
            window_size=W,
            similarity_threshold=THRESHOLD,
            box_radius=box_radius,
            count_positions=count_positions,
        ),
    )
    similarities = [engine.similarity_of(seq) for seq in seqs]
    oracle = [
        {name: engine.evaluate(seq, name).score for name in names} for seq in seqs
    ]
    # A mixed-problem batch: candidate i takes the i-th distinct name as
    # its target and every other drawn name as a non-target.
    distinct = list(dict.fromkeys(names))
    problems = [
        (target, tuple(name for name in names if name != target))
        for target in (distinct[i % len(distinct)] for i in range(len(seqs)))
    ]
    cut = min(cut, len(seqs))

    def score_every_way():
        fused = engine.score_similarities(similarities, names)
        halves = engine.score_similarities(
            similarities[:cut], names
        ) + engine.score_similarities(similarities[cut:], names)
        mixed, _ = score_batch(engine, seqs, problems)
        alone = [engine.score_against(seq, names) for seq in seqs]
        return fused, halves, mixed, alone

    saved = pipe.GROUP_CELLS
    # From one candidate per group to all (the numpy body's groups).
    pipe.GROUP_CELLS = group_cells
    try:
        results = [_on_route(state, score_every_way) for state in _routes().values()]
    finally:
        pipe.GROUP_CELLS = saved
    for fused, halves, mixed, alone in results:
        assert fused == oracle  # float equality: bit for bit
        assert halves == oracle
        for expected, (target, non_targets), got in zip(oracle, problems, mixed):
            assert got.target_score == expected[target]
            assert got.non_target_scores == tuple(expected[n] for n in non_targets)
        for seq, expected, got in zip(seqs, oracle, alone):
            assert got == expected
            if seq.size < W:  # no windows: an empty result matrix scores 0.0
                assert set(expected.values()) == {0.0}
    if "SHORT" in names:
        assert all(scores["SHORT"] == 0.0 for scores in fused)


def test_oracle_is_not_trivially_zero():
    """The strategy's fragments do produce evidence: the property above
    compares real filtered maxima, not zeros with zeros."""
    engine = PipeEngine(
        DATABASE, PipeConfig(window_size=W, similarity_threshold=THRESHOLD)
    )
    fragment = DATABASE.concatenated[2:14].copy()
    scores = engine.score_against(fragment, NAMES)
    assert sum(1 for value in scores.values() if value > 0.0) >= 2


# -- deterministic edge cases, on both routes -------------------------------


def _fragment(start, length):
    return DATABASE.concatenated[start : start + length].copy()


def _edge_candidates():
    """``{case: sequence}``: the result-block shapes a random batch may
    miss."""
    rng = np.random.default_rng(4)
    while True:  # the first random 12-mer without a single match
        silent = rng.integers(0, 20, size=12).astype(np.uint8)
        if not DATABASE.sequence_similarity(silent).counts.nnz:
            break
    ends = np.concatenate([_fragment(0, W), silent, _fragment(40, W)])
    return {
        "no match": silent,
        "matches on the first and last window": ends,
        "fewer windows than 2r + 1": _fragment(20, W + 2),
        "one window": _fragment(3, W),
        "no window": _fragment(5, W - 1),
        "longer": _fragment(30, 30),
    }


def test_edge_candidates_are_what_they_say():
    cases = _edge_candidates()
    rows = {
        case: np.diff(DATABASE.sequence_similarity(seq).counts.indptr)
        for case, seq in cases.items()
    }
    assert not rows["no match"].any()
    first_last = rows["matches on the first and last window"]
    assert first_last[0] and first_last[-1]
    assert 0 < rows["fewer windows than 2r + 1"].size < 7
    assert rows["no window"].size == 0


@pytest.mark.parametrize("count_positions", [False, True])
@pytest.mark.parametrize("box_radius", [0, 1, 2, 3])
def test_edge_cases_equal_the_oracle_on_both_routes(box_radius, count_positions):
    """Every edge case, alone and all in one call (mixed window counts),
    against duplicate names, a zero-width block (``SHORT``) and, at r = 3,
    a block narrower than 2r + 1 (``P2``'s 6 windows)."""
    engine = PipeEngine(
        DATABASE,
        PipeConfig(
            window_size=W,
            similarity_threshold=THRESHOLD,
            box_radius=box_radius,
            count_positions=count_positions,
        ),
    )
    names = ["P2", "SHORT", "P0", "P2", "P1", "P5", "P3", "P4", "P0"]
    seqs = list(_edge_candidates().values())
    similarities = [engine.similarity_of(seq) for seq in seqs]
    oracle = [
        {name: engine.evaluate(seq, name).score for name in names} for seq in seqs
    ]
    assert any(v > 0.0 for scores in oracle for v in scores.values())
    for route, state in _routes().items():
        together = _on_route(
            state, lambda: engine.score_similarities(similarities, names)
        )
        alone = _on_route(
            state,
            lambda: [engine.score_similarities([s], names)[0] for s in similarities],
        )
        assert together == oracle, route
        assert alone == oracle, route


def test_a_database_attached_from_shm_scores_the_oracle_on_both_routes():
    config = PipeConfig(window_size=W, similarity_threshold=THRESHOLD, box_radius=2)
    seqs = list(_edge_candidates().values())
    oracle = PipeEngine(DATABASE, config)
    expected = [{n: oracle.evaluate(seq, n).score for n in NAMES} for seq in seqs]
    with SharedProteomeView.share(DATABASE) as owner:
        with SharedProteomeView.attach(owner.handle) as view:
            engine = PipeEngine(view.build_database(), config)
            similarities = [engine.similarity_of(seq) for seq in seqs]
            for route, state in _routes().items():
                got = _on_route(
                    state, lambda: engine.score_similarities(similarities, NAMES)
                )
                assert got == expected, route
            del engine, similarities


def test_non_integral_evidence_takes_the_numpy_body(monkeypatch):
    """Evidence with a non-integer entry is never handed to the compiled
    pass: the engine scores it on the numpy body, still equal to the
    oracle (halves keep every sum exact)."""
    database = copy.copy(DATABASE)
    monkeypatch.setattr(database, "adjacency", DATABASE.adjacency * 0.5)
    telemetry = MetricsRegistry()
    engine = PipeEngine(
        database,
        PipeConfig(window_size=W, similarity_threshold=THRESHOLD),
        telemetry=telemetry,
    )
    seqs = list(_edge_candidates().values())
    got = engine.score_similarities([engine.similarity_of(s) for s in seqs], NAMES)
    spans = telemetry.snapshot()
    assert "pipe.result_block" not in spans
    assert spans["pipe.triple_product"]["count"] > 0
    evidence = engine._evidence(tuple(NAMES))
    assert evidence.native is None and (evidence.matrix.data % 1).any()
    expected = [{n: engine.evaluate(seq, n).score for n in NAMES} for seq in seqs]
    assert got == expected
    assert any(v > 0.0 for scores in got for v in scores.values())
