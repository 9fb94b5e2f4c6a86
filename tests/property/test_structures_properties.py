"""Hypothesis property tests for data structures: graph, scheduler,
persistence, diversity, binding sites."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga.fitness import ScoreSet
from repro.ga.population import Individual, Population
from repro.ga.diversity import mean_pairwise_hamming, positional_entropy
from repro.parallel.messages import WorkResult
from repro.parallel.scheduler import SLICE_FLOOR, OnDemandScheduler
from repro.ppi.graph import InteractionGraph
from repro.ppi.sites import predict_binding_sites
from repro.sequences.protein import Protein

# --- interaction graph -------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40
)


@given(edge_lists)
def test_graph_edge_invariants(pairs):
    proteins = [Protein(f"P{i}", "MKTLLVAC") for i in range(10)]
    graph = InteractionGraph(
        proteins, [(f"P{a}", f"P{b}") for a, b in pairs]
    )
    # Symmetry and degree/edge accounting.
    adj = graph.adjacency_matrix().toarray()
    assert np.array_equal(adj, adj.T)
    self_loops = int(np.trace(adj))
    assert adj.sum() == 2 * graph.num_edges - self_loops
    assert len(graph.edges()) == graph.num_edges
    for a, b in graph.edges():
        assert graph.has_edge(a, b) and graph.has_edge(b, a)


# --- scheduler ---------------------------------------------------------------


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.randoms(use_true_random=False),
)
def test_ondemand_scheduler_complete_and_ordered(n_items, n_workers, budget, pyrandom):
    sizes = [pyrandom.randrange(1, 8) for _ in range(n_items)]
    sched = OnDemandScheduler(
        range(n_items), lambda sids: bytes(sum(sizes[s] for s in sids))
    )
    outstanding = []
    handed = []
    recorded = set()

    def complete(sids, worker):
        result = WorkResult(sids, worker, tuple(ScoreSet(0.5, ()) for _ in sids))
        assert sched.record(result)
        recorded.update(sids)
        # What is still owed is exactly what has no reply, ascending.
        assert sched.missing() == sorted(set(range(n_items)) - recorded)

    while sched.backlog:
        w = pyrandom.randrange(n_workers)
        idle = all(worker != w for _, worker in outstanding)
        guided = sched.slice_size(n_workers)
        got = sched.next_for(w, workers=n_workers, budget=budget, idle=idle)
        if got is None:
            # Only a head too large for the budget on its own is held
            # back, and only from a worker with work outstanding.
            assert not idle and sizes[len(handed)] > budget
        else:
            sids, frame = got
            assert len(sids) <= guided
            assert len(frame) <= budget or len(sids) == 1
            handed.extend(sids)
            outstanding.append((sids, w))
        # Randomly complete some outstanding work — at least one slice
        # after a hold-back, so the held worker can fall idle.
        force = got is None
        while outstanding and (force or pyrandom.random() < 0.5):
            complete(*outstanding.pop(pyrandom.randrange(len(outstanding))))
            force = False
    assert not sched.done or not outstanding
    for sids, worker in outstanding:
        complete(sids, worker)
    # Complete: every candidate handed out once, in order, and answered.
    assert handed == list(range(n_items))
    assert sched.done and sched.missing() == [] and sched.remaining == 0


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=400),
    st.randoms(use_true_random=False),
)
def test_slices_keep_the_floor_and_reach_every_worker(
    n_items, n_workers, budget, pyrandom
):
    """Over any backlog, live-worker count and frame budget: the slices
    sum to the batch; none is below ``min(SLICE_FLOOR, ceil(backlog /
    workers))`` unless the budget trimmed it (the frame of the slice as
    sized did not fit); and when the batch has at least one candidate per worker,
    every worker's first request — the pool's first hand-out pass, one
    slice per worker before any reply — gets a slice."""
    sizes = [pyrandom.randrange(1, 8) for _ in range(n_items)]
    sched = OnDemandScheduler(
        range(n_items), lambda sids: bytes(sum(sizes[s] for s in sids))
    )
    handed: list[int] = []
    outstanding: list[tuple[tuple[int, ...], int]] = []

    def hand(worker: int) -> bool:
        backlog = sched.backlog
        sized = sched.slice_size(n_workers)
        idle = all(w != worker for _, w in outstanding)
        got = sched.next_for(worker, workers=n_workers, budget=budget, idle=idle)
        if got is None:
            return False
        sids, _ = got
        floor = min(SLICE_FLOOR, -(-backlog // n_workers))
        # Without requeues the backlog is the tail of the batch in order.
        head = range(len(handed), min(n_items, len(handed) + sized))
        assert len(sids) >= floor or sum(sizes[s] for s in head) > budget
        assert sids == tuple(range(len(handed), len(handed) + len(sids)))
        handed.extend(sids)
        outstanding.append((sids, worker))
        return True

    first_pass = [hand(w) for w in range(n_workers)]
    if n_items >= n_workers:
        assert all(first_pass)
    while sched.backlog:
        if not hand(pyrandom.randrange(n_workers)) or pyrandom.random() < 0.5:
            sids, worker = outstanding.pop(pyrandom.randrange(len(outstanding)))
            result = WorkResult(sids, worker, tuple(ScoreSet(0.5, ()) for _ in sids))
            assert sched.record(result)
    assert handed == list(range(n_items))
    assert sum(len(sids) for sids, _ in outstanding) <= n_items


# --- diversity ---------------------------------------------------------------

populations = st.lists(
    st.lists(st.integers(0, 19), min_size=6, max_size=6),
    min_size=2,
    max_size=25,
)


@given(populations)
def test_diversity_bounds(rows):
    pop = Population([Individual(np.array(r, dtype=np.uint8)) for r in rows])
    h = mean_pairwise_hamming(pop)
    assert 0.0 <= h <= 1.0
    entropy = positional_entropy(pop)
    assert np.all(entropy >= 0.0)
    assert np.all(entropy <= np.log2(20) + 1e-9)


@given(populations)
def test_duplicating_population_preserves_hamming(rows):
    pop = Population([Individual(np.array(r, dtype=np.uint8)) for r in rows])
    doubled = Population(
        [Individual(np.array(r, dtype=np.uint8)) for r in rows + rows]
    )
    # Doubling every member leaves the pairwise-distance *distribution*
    # dominated by the same values; mean changes only through self-pairs.
    a = mean_pairwise_hamming(pop, max_pairs=10**9)
    b = mean_pairwise_hamming(doubled, max_pairs=10**9)
    assert b <= a + 1e-9


# --- binding sites -----------------------------------------------------------

@st.composite
def _matrices(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    m = draw(st.integers(min_value=4, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=n * m,
            max_size=n * m,
        )
    )
    return np.array(values).reshape(n, m)


@settings(max_examples=40)
@given(_matrices(), st.integers(min_value=1, max_value=5))
def test_sites_within_bounds(h, w):
    sites = predict_binding_sites(h, w, max_sites=4)
    for s in sites:
        assert 0 <= s.a_start < s.a_end <= h.shape[0] - 1 + w
        assert 0 <= s.b_start < s.b_end <= h.shape[1] - 1 + w
        assert s.total_evidence >= s.peak_evidence >= 0
    # Strongest-first ordering.
    peaks = [s.peak_evidence for s in sites]
    assert peaks == sorted(peaks, reverse=True)
