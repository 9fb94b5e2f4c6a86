"""Hypothesis property tests: fused PIPE scoring is the pairwise oracle.

:meth:`~repro.ppi.pipe.PipeEngine.score_similarities` stacks candidates
and proteins into one product and one filter pass per axis; its whole
claim is bit-identity with scoring each (candidate, protein) pair alone
through ``evaluate`` (``result_matrix`` + ``uniform_filter``), for any
candidate set, any problem and *any* way the batch is cut into groups.
The same holds one level up for :func:`~repro.ga.fitness.score_batch`,
whose batches may mix problems.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.fitness import score_batch
from repro.ppi import pipe
from repro.ppi.database import PipeDatabase
from repro.ppi.graph import InteractionGraph
from repro.ppi.pipe import PipeConfig, PipeEngine
from repro.sequences.encoding import decode
from repro.sequences.protein import Protein
from repro.substitution import PAM120

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
    st.integers(min_value=0, max_value=2),
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
    saved = pipe.GROUP_CELLS
    pipe.GROUP_CELLS = group_cells  # from one candidate per group to all
    try:
        fused = engine.score_similarities(similarities, names)
        cut = min(cut, len(seqs))
        halves = engine.score_similarities(
            similarities[:cut], names
        ) + engine.score_similarities(similarities[cut:], names)
        mixed, _ = score_batch(engine, seqs, problems)
    finally:
        pipe.GROUP_CELLS = saved
    assert fused == oracle  # float equality: bit for bit
    assert halves == oracle
    for expected, (target, non_targets), got in zip(oracle, problems, mixed):
        assert got.target_score == expected[target]
        assert got.non_target_scores == tuple(expected[n] for n in non_targets)
    for seq, expected in zip(seqs, oracle):
        assert engine.score_against(seq, names) == expected
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
